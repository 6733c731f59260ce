#include "interconnect/topology.hpp"

#include <algorithm>

#include "common/trace_sink.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

HierRouter::HierRouter(EventQueue &eq, const AddressMap &map,
                       DataNetwork &data_net,
                       std::vector<MemoryController *> mem_ctrls,
                       const TopologyParams &topo,
                       std::uint64_t region_bytes)
    : FilteredInterconnect(eq, map, data_net, std::move(mem_ctrls),
                           topo, region_bytes),
      domainNextFree_(topo.numChips(), 0)
{
}

void
HierRouter::broadcast(const SystemRequest &req, ResponseFn fn)
{
    const Tick enq = eq_.now();

    // I/O-bridge DMA has no snoop domain of its own: it enters at the
    // inter-chip level and snoops every processor, like on the flat bus.
    if (!fromCpu(req)) {
        const Tick g = std::max(globalNextFree_, enq);
        globalNextFree_ = g + InterconnectParams::busSlot;
        stats_.queueCycles += g - enq;
        ++stats_.broadcasts;
        ++stats_.interChip;
        traffic_.note(g);
        if (trace_)
            trace_->busGrant(g, req.cpu, req.type, req.lineAddr, g - enq);
        eq_.schedule(g + InterconnectParams::snoopLatency,
                     [this, req, fn = std::move(fn)]() mutable {
                         resolveRequest(req, fn, kSnoopAll);
                     },
                     EventPriority::Snoop);
        return;
    }

    // Local-domain FCFS arbitration, then the short on-chip snoop.
    const unsigned d = topo_.chipOfCpu(req.cpu);
    const Tick g = std::max(domainNextFree_[d], enq);
    domainNextFree_[d] = g + InterconnectParams::busSlot;
    stats_.queueCycles += g - enq;
    ++stats_.broadcasts;
    traffic_.note(g);
    if (trace_)
        trace_->busGrant(g, req.cpu, req.type, req.lineAddr, g - enq);
    eq_.schedule(g + InterconnectParams::localSnoopLatency,
                 [this, req, fn = std::move(fn)]() mutable {
                     localStage(req, std::move(fn));
                 },
                 EventPriority::Snoop);
}

void
HierRouter::localStage(const SystemRequest &req, ResponseFn fn)
{
    const unsigned d = topo_.chipOfCpu(req.cpu);
    const std::uint64_t local = chipMask(d);
    const std::uint64_t remote = presenceOf(req.lineAddr) & ~local;

    // Write-backs never need remote snoops (they are state-neutral on
    // other processors), and a request whose region has no possible
    // holder outside the chip resolves entirely inside the domain. The
    // escape check and the resolution are one atomic event, so a
    // concurrent remote acquisition either already published its
    // presence bit (we escape and snoop it) or has not resolved yet
    // (it holds nothing to snoop).
    if (req.type == RequestType::Writeback || remote == 0) {
        ++stats_.localResolves;
        resolveRequest(req, fn, local);
        return;
    }

    // Escape: bridge onto the inter-chip level, FCFS like the flat bus.
    ++stats_.interChip;
    if (trace_)
        trace_->hierEscape(eq_.now(), req.cpu, req.type, req.lineAddr, remote);
    const Tick now = eq_.now();
    const Tick g = std::max(globalNextFree_, now);
    globalNextFree_ = g + InterconnectParams::busSlot;
    stats_.queueCycles += g - now;
    eq_.schedule(g + InterconnectParams::snoopLatency,
                 [this, req, local, fn = std::move(fn)]() mutable {
                     // Recompute presence at resolution: it can only have
                     // grown, and snooping more processors is safe.
                     resolveRequest(req, fn,
                                    local | presenceOf(req.lineAddr));
                 },
                 EventPriority::Snoop);
}

void
HierRouter::addStats(StatGroup &group) const
{
    group.addScalar("hier.broadcasts",
                    "requests entering the snoop hierarchy",
                    &stats_.broadcasts);
    group.addScalar("hier.queue_cycles",
                    "total cycles requests waited for arbitration "
                    "(both levels)",
                    &stats_.queueCycles);
    group.addScalar("hier.local_resolves",
                    "requests resolved inside their chip's snoop domain",
                    &stats_.localResolves);
    group.addScalar("hier.interchip",
                    "requests escaping onto the inter-chip level",
                    &stats_.interChip);
    addCommonStats(group, "hier", "requests");
    group.addDerived("hier.bypass_fraction",
                     "fraction of requests resolved without the "
                     "inter-chip level",
                     [this] {
                         return stats_.broadcasts
                                    ? static_cast<double>(
                                          stats_.localResolves) /
                                          static_cast<double>(
                                              stats_.broadcasts)
                                    : 0.0;
                     });
}

void
HierRouter::transfer(Archive &ar)
{
    ar.u64(globalNextFree_);
    ar.expect("snoop domains",
              static_cast<std::uint32_t>(domainNextFree_.size()));
    for (Tick &t : domainNextFree_)
        ar.u64(t);
    transferStats(ar, /*domain_counters=*/true);
    transferMaskTable(ar, presence_);
}

} // namespace cgct
