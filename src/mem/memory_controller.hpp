/**
 * @file
 * Memory controller / DRAM timing model.
 *
 * Reproduces the two access modes of Figure 6:
 *  - snoop-overlapped: the Fireplane baseline starts the DRAM access in
 *    parallel with the snoop, so only dramOverlappedExtra (7 system cycles)
 *    remains after the snoop completes;
 *  - direct: a CGCT direct request starts the full DRAM access
 *    (16 system cycles) when it reaches the controller.
 *
 * The controller serializes request initiation (one per memCtrlSlot) so
 * queuing delays appear under load, but allows overlapped DRAM service
 * (banked DRAM).
 */

#pragma once

#include <cstdint>
#include <functional>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "event/event_queue.hpp"

namespace cgct {

class TraceSink;

/** One per-chip memory controller. */
class MemoryController
{
  public:
    MemoryController(MemCtrlId id, EventQueue &eq,
                     const InterconnectParams &params);

    /**
     * Service a request whose DRAM access was started in parallel with the
     * snoop (baseline broadcast path). @p snoop_done is when the snoop
     * response resolved; the data is ready dramOverlappedExtra later, plus
     * any queuing.
     * @return tick at which the critical word leaves the controller.
     */
    Tick accessOverlapped(Tick snoop_done);

    /**
     * Service a direct request arriving at @p arrival (already including
     * the request-delivery latency). The full DRAM latency applies.
     * @return tick at which the critical word leaves the controller.
     */
    Tick accessDirect(Tick arrival);

    /**
     * Accept a write-back arriving at @p arrival. Write data is sunk; the
     * call only accounts occupancy.
     */
    void acceptWriteback(Tick arrival);

    MemCtrlId id() const { return id_; }

    /** Register this controller's statistics into @p group. */
    void addStats(StatGroup &group) const;

    struct Stats {
        std::uint64_t overlappedReads = 0;
        std::uint64_t directReads = 0;
        std::uint64_t writebacks = 0;
        std::uint64_t queuedCycles = 0;   ///< Total cycles spent queued.
    };

    const Stats &stats() const { return stats_; }
    void resetStats() { stats_ = Stats{}; }

    /** Emit mem_access trace events to @p sink. */
    void setTraceSink(TraceSink *sink) { trace_ = sink; }

    /** Checkpoint layout: the initiation-slot cursor and counters. */
    void transfer(Archive &ar);

  private:
    /** Claim the next initiation slot at or after @p at. */
    Tick claimSlot(Tick at);

    MemCtrlId id_;
    EventQueue &eq_;
    InterconnectParams params_;
    Tick nextFreeSlot_ = 0;
    Stats stats_;
    TraceSink *trace_ = nullptr;
};

} // namespace cgct
