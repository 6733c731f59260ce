/**
 * @file
 * The unnecessary-broadcast oracle of Figure 2: at every broadcast, before
 * any snoop-induced state change, it inspects every other processor's cache
 * and decides whether the broadcast was actually needed:
 *
 *  - write-backs never need a broadcast (only the controller must see them);
 *  - instruction fetches (and shared prefetches) need one only if some
 *    other cache holds a *modified* copy of the line;
 *  - everything else (data reads/writes, upgrades, DCB operations) needs
 *    one only if some other cache holds *any* copy of the line.
 *
 * The interconnect calls it right after the line-snoop phase: the snooped
 * CPUs' pre-snoop states are already folded into the line summary, so the
 * oracle peeks only the CPUs outside the snoop mask (none on the flat bus).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "coherence/snoop.hpp"

namespace cgct {

class Node;

/** Classifies every broadcast as necessary or unnecessary. */
class Oracle
{
  public:
    explicit Oracle(std::vector<Node *> nodes) : nodes_(std::move(nodes)) {}

    /**
     * Classify @p req. @p snooped summarizes the pre-snoop line states of
     * the CPUs selected by @p snoop_mask; every other CPU except the
     * requester is peeked. The defaults (nothing snooped) peek everyone.
     */
    void observe(const SystemRequest &req,
                 const LineSnoopSummary &snooped = {},
                 std::uint64_t snoop_mask = 0);

    /** Per-category tallies. */
    struct Counts {
        std::uint64_t total = 0;
        std::uint64_t unnecessary = 0;
    };

    const Counts &
    category(RequestCategory cat) const
    {
        return byCat_[static_cast<std::size_t>(cat)];
    }

    std::uint64_t total() const { return total_; }
    std::uint64_t unnecessary() const { return unnecessary_; }

    double
    unnecessaryFraction() const
    {
        return total_ ? static_cast<double>(unnecessary_) /
                            static_cast<double>(total_)
                      : 0.0;
    }

    void reset();
    void addStats(StatGroup &group) const;

    /** Checkpoint support: per-category and total tallies. */
    void serialize(Serializer &s) const;
    void deserialize(SectionReader &r);

  private:
    std::vector<Node *> nodes_;
    Counts byCat_[static_cast<std::size_t>(RequestCategory::NumCategories)];
    std::uint64_t total_ = 0;
    std::uint64_t unnecessary_ = 0;
};

} // namespace cgct
