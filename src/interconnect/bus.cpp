#include "interconnect/bus.hpp"

#include "common/log.hpp"
#include "common/trace_sink.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

Bus::Bus(EventQueue &eq, const InterconnectParams &params,
         const AddressMap &map, DataNetwork &data_net,
         std::vector<MemoryController *> mem_ctrls)
    : Interconnect(eq, params, map, data_net, std::move(mem_ctrls)),
      charges_(64)
{
}

void
Bus::broadcast(const SystemRequest &req, ResponseFn fn)
{
    // Inline FCFS arbitration: the grant recurrence is a pure function
    // of arrival order, so no grant event is needed.
    const Tick enq = eq_.now();
    const Tick g = nextFreeSlot_ > enq ? nextFreeSlot_ : enq;
    nextFreeSlot_ = g + params_.busSlot;
    if (chargeCount_ == charges_.size()) {
        // Full: double the ring, unrolling the FIFO to start at 0.
        std::vector<GrantCharge> grown(2 * charges_.size());
        for (std::size_t i = 0; i < chargeCount_; ++i)
            grown[i] = charges_[(chargeHead_ + i) & (charges_.size() - 1)];
        charges_.swap(grown);
        chargeHead_ = 0;
    }
    charges_[(chargeHead_ + chargeCount_++) & (charges_.size() - 1)] =
        GrantCharge{g, g - enq};
    CGCT_TRACE(trace_, busGrant(g, req.cpu, req.type, req.lineAddr,
                                g - enq));

    // The snoop resolves a fixed latency after the broadcast slot.
    eq_.schedule(g + params_.snoopLatency,
                 [this, req, fn = std::move(fn)]() mutable {
                     settleGrants(eq_.now());
                     resolveRequest(req, fn, kSnoopAll);
                 },
                 EventPriority::Snoop);
}

void
Bus::settleGrants(Tick up_to)
{
    // Charges sit in grant-tick order (the recurrence is monotone), so a
    // prefix drain applies them in the order the grants happened.
    while (chargeCount_ > 0 && charges_[chargeHead_].grant <= up_to) {
        const GrantCharge &c = charges_[chargeHead_];
        stats_.queueCycles += c.queued;
        ++stats_.broadcasts;
        traffic_.note(c.grant);
        chargeHead_ = (chargeHead_ + 1) & (charges_.size() - 1);
        --chargeCount_;
    }
}

void
Bus::transfer(Archive &ar)
{
    if (ar.saving() && chargeCount_ != 0)
        panic("Bus: serializing with %zu grants unresolved — snapshots "
              "require a drained system",
              chargeCount_);
    ar.u64(nextFreeSlot_);
    transferStats(ar, /*domain_counters=*/false);
}

void
Bus::addStats(StatGroup &group) const
{
    group.addScalar("bus.broadcasts", "requests broadcast on the bus",
                    &stats_.broadcasts);
    group.addScalar("bus.queue_cycles",
                    "total cycles requests waited for arbitration",
                    &stats_.queueCycles);
    addCommonStats(group, "bus", "broadcasts");
}

} // namespace cgct
