#include "sim/oracle.hpp"

#include "sim/node.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

void
Oracle::observe(const SystemRequest &req, const LineSnoopSummary &snooped,
                std::uint64_t snoop_mask)
{
    bool any_copy = snooped.anyCopy;
    bool any_dirty = snooped.anyDirty;
    for (Node *node : nodes_) {
        if (node->cpuId() == req.cpu ||
            snoopMaskHas(snoop_mask, node->cpuId()))
            continue;
        const LineState s = node->peekLine(req.lineAddr);
        if (isValid(s))
            any_copy = true;
        if (isDirty(s))
            any_dirty = true;
    }

    bool needed;
    switch (req.type) {
      case RequestType::Writeback:
        needed = false;
        break;
      case RequestType::Ifetch:
      case RequestType::Prefetch:
        needed = any_dirty;
        break;
      default:
        needed = any_copy;
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
Oracle::serialize(Serializer &s) const
{
    for (const Counts &c : byCat_) {
        s.u64(c.total);
        s.u64(c.unnecessary);
    }
    s.u64(total_);
    s.u64(unnecessary_);
}

void
Oracle::deserialize(SectionReader &r)
{
    for (Counts &c : byCat_) {
        c.total = r.u64();
        c.unnecessary = r.u64();
    }
    total_ = r.u64();
    unnecessary_ = r.u64();
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
