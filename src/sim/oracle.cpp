#include "sim/oracle.hpp"

namespace cgct {

void
Oracle::observe(const SystemRequest &req, const LineSnoopSummary &snooped)
{
    bool needed;
    switch (req.type) {
      case RequestType::Writeback:
        needed = false;
        break;
      case RequestType::Ifetch:
      case RequestType::Prefetch:
        needed = snooped.anyDirty;
        break;
      default:
        needed = snooped.anyCopy;
        break;
    }

    Counts &c = stats_.byCat[static_cast<std::size_t>(categoryOf(req.type))];
    ++c.total;
    ++stats_.total;
    if (!needed) {
        ++c.unnecessary;
        ++stats_.unnecessary;
    }
}

void
Oracle::addStats(StatGroup &group) const
{
    group.addCounters(stats_);
    group.addDerived("oracle.unnecessary_fraction",
                     "fraction of broadcasts that were unnecessary",
                     [this] { return unnecessaryFraction(); });
}

} // namespace cgct
