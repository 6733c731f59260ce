/**
 * @file
 * The unnecessary-broadcast oracle of Figure 2: at every broadcast, before
 * any snoop-induced state change, it decides from every other processor's
 * cache contents whether the broadcast was actually needed:
 *
 *  - write-backs never need a broadcast (only the controller must see them);
 *  - instruction fetches (and shared prefetches) need one only if some
 *    other cache holds a *modified* copy of the line;
 *  - everything else (data reads/writes, upgrades, DCB operations) needs
 *    one only if some other cache holds *any* copy of the line.
 *
 * The interconnect calls it right after the line-snoop phase with the
 * summary of the snooped CPUs' pre-snoop states, and that summary is the
 * whole answer: the snoop mask covers every holder of the line. The flat
 * bus snoops everyone; the hierarchy and the directory snoop a superset
 * of the presence (and sharer) map, which covers every processor caching
 * a line of the region (invariants F and G, sim/invariants.hpp).
 */

#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "coherence/snoop.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

/** Classifies every broadcast as necessary or unnecessary. */
class Oracle
{
  public:
    /**
     * Classify @p req from @p snooped, the pre-snoop line states of the
     * snooped CPUs, which include every CPU holding the line.
     */
    void observe(const SystemRequest &req, const LineSnoopSummary &snooped);

    /** Per-category tallies. */
    struct Counts {
        std::uint64_t total = 0;
        std::uint64_t unnecessary = 0;
    };

    struct Stats {
        Counts byCat[kNumCategories];
        std::uint64_t total = 0;
        std::uint64_t unnecessary = 0;

        static void
        visit(auto &&f, auto &...s)
        {
            for (std::size_t i = 0; i < kNumCategories; ++i) {
                f(nullptr, nullptr, s.byCat[i].total...);
                f(nullptr, nullptr, s.byCat[i].unnecessary...);
            }
            f("oracle.broadcasts", "broadcasts observed", s.total...);
            f("oracle.unnecessary", "broadcasts an oracle would have avoided",
              s.unnecessary...);
        }
    };

    const Counts &
    category(RequestCategory cat) const
    {
        return stats_.byCat[static_cast<std::size_t>(cat)];
    }

    std::uint64_t total() const { return stats_.total; }
    std::uint64_t unnecessary() const { return stats_.unnecessary; }

    double
    unnecessaryFraction() const
    {
        return stats_.total ? static_cast<double>(stats_.unnecessary) /
                                  static_cast<double>(stats_.total)
                            : 0.0;
    }

    void reset() { stats_ = Stats{}; }
    void addStats(StatGroup &group) const;

    /** Checkpoint layout: the counter list. */
    void transfer(Archive &ar) { ar.counters(stats_); }

  private:
    Stats stats_;
};

} // namespace cgct
