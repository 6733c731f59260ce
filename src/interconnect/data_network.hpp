/**
 * @file
 * Point-to-point data network. High-performance snooping systems decouple
 * data transfer from coherence (Section 1 of the paper): data moves over an
 * unordered network sized at 16 B per system cycle per processor link
 * (Table 3). The model charges the critical-word latency of the distance
 * class for responsiveness and occupies the destination link for the full
 * line to model bandwidth.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace cgct {

/** The data-transfer side of the interconnect. */
class DataNetwork
{
  public:
    DataNetwork(unsigned num_cpus, const InterconnectParams &params);

    /**
     * Deliver @p bytes to processor @p dst starting no earlier than
     * @p start over a path of distance class @p d.
     * @return the tick at which the critical word arrives.
     */
    Tick deliver(CpuId dst, Tick start, Distance d, unsigned bytes);

    struct Stats {
        std::uint64_t transfers = 0;
        std::uint64_t bytes = 0;
        std::uint64_t linkWaitCycles = 0;
    };

    const Stats &stats() const { return stats_; }
    void resetStats() { stats_ = Stats{}; }
    void addStats(StatGroup &group) const;

    /**
     * Checkpoint layout: per-link busy-until ticks (a link can be
     * reserved past the drain point) and the transfer counters.
     */
    void transfer(Archive &ar);

  private:
    InterconnectParams params_;
    std::vector<Tick> linkFree_;   ///< Next free tick per destination link.
    Stats stats_;
};

} // namespace cgct
