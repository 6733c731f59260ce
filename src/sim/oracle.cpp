#include "sim/oracle.hpp"

#include "snapshot/serializer.hpp"

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

    const auto cat = static_cast<std::size_t>(categoryOf(req.type));
    ++byCat_[cat].total;
    ++total_;
    if (!needed) {
        ++byCat_[cat].unnecessary;
        ++unnecessary_;
    }
}

void
Oracle::reset()
{
    for (auto &c : byCat_)
        c = Counts{};
    total_ = 0;
    unnecessary_ = 0;
}

void
Oracle::transfer(Archive &ar)
{
    for (Counts &c : byCat_) {
        ar.u64(c.total);
        ar.u64(c.unnecessary);
    }
    ar.u64(total_);
    ar.u64(unnecessary_);
}

void
Oracle::addStats(StatGroup &group) const
{
    group.addScalar("oracle.broadcasts", "broadcasts observed", &total_);
    group.addScalar("oracle.unnecessary",
                    "broadcasts an oracle would have avoided",
                    &unnecessary_);
    group.addDerived("oracle.unnecessary_fraction",
                     "fraction of broadcasts that were unnecessary",
                     [this] { return unnecessaryFraction(); });
}

} // namespace cgct
