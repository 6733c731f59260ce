/**
 * @file
 * Broadcast address network (Fireplane-like). The bus is the coherence
 * ordering point: requests arbitrate for a slot, are broadcast to every
 * processor, and resolve 16 system cycles later when all snoop responses
 * (line state plus the CGCT region bits) have been combined. For requests
 * served by memory, the DRAM access is started in parallel with the snoop
 * (Figure 6), so only the overlapped-extra latency remains afterwards.
 *
 * The flat bus is one Interconnect topology (docs/TOPOLOGY.md): every
 * request snoops every processor (snoop mask = all ones), so each
 * broadcast occupies the single system-wide — "inter-chip" — level.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "interconnect/interconnect.hpp"

namespace cgct {

/** The broadcast address bus plus snoop-response combining logic. */
class Bus : public Interconnect
{
  public:
    Bus(EventQueue &eq, const InterconnectParams &params,
        const AddressMap &map, DataNetwork &data_net,
        std::vector<MemoryController *> mem_ctrls);

    /**
     * Broadcast @p req, invoking @p fn at resolution. Must be called at
     * the issuing event's time: arbitration is inline and FCFS, granting
     * g = max(now, previous grant + busSlot) and resolving at
     * g + snoopLatency.
     */
    void broadcast(const SystemRequest &req, ResponseFn fn) override;

    /** On the flat bus every broadcast occupies the system-wide level. */
    std::uint64_t interChipBroadcasts() const override
    {
        return stats_.broadcasts;
    }

    void addStats(StatGroup &group) const override;

    /** Clear counters; traffic windows restart at @p now. */
    void
    resetStats(Tick now) override
    {
        settleGrants(now);
        Interconnect::resetStats(now);
    }

    /**
     * Checkpoint layout. No grant may be in flight when saving (drained
     * system; panics otherwise). Stores the arbitration slot cursor, the
     * counters and the traffic windows.
     */
    void transfer(Archive &ar) override;

  private:
    /**
     * Apply the accounting of every grant with grant tick <= @p up_to.
     * A broadcast counts (stats_.broadcasts, queue cycles, the traffic
     * window) at its grant tick, which lies beyond the enqueue when the
     * bus is backlogged — so a stats reset between enqueue and grant
     * must see the grant as not-yet-counted. Called by resetStats() and
     * by every resolve (which fires after its own grant).
     */
    void settleGrants(Tick up_to);

    Tick nextFreeSlot_ = 0;

    /** Unsettled per-grant accounting: (grant tick, queue wait). */
    struct GrantCharge {
        Tick grant;
        Tick queued;
    };
    /** FIFO ring in grant order; grows (doubling) only past its
     *  high-water mark, so the steady state never allocates. */
    std::vector<GrantCharge> charges_;
    std::size_t chargeHead_ = 0;
    std::size_t chargeCount_ = 0;
};

} // namespace cgct
