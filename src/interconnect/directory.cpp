#include "interconnect/directory.hpp"

#include <algorithm>

#include "common/trace_sink.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

DirectoryInterconnect::DirectoryInterconnect(
    EventQueue &eq, const AddressMap &map, DataNetwork &data_net,
    std::vector<MemoryController *> mem_ctrls, const TopologyParams &topo,
    std::uint64_t region_bytes)
    : FilteredInterconnect(eq, map, data_net, std::move(mem_ctrls),
                           topo, region_bytes),
      bankNextFree_(topo.numMemCtrls(), 0)
{
}

void
DirectoryInterconnect::broadcast(const SystemRequest &req, ResponseFn fn)
{
    const Tick now = eq_.now();

    // Point-to-point delivery to the line's home controller, at the
    // direct-request latency of the requester->home distance class.
    const MemCtrlId mc = map_.controllerOf(req.lineAddr);
    const Tick arrive = now + InterconnectParams::directLatency(
                                  map_.distanceToCtrl(req.cpu, mc));

    // FCFS at the home directory bank.
    const unsigned bank = static_cast<unsigned>(mc);
    const Tick g = std::max(bankNextFree_[bank], arrive);
    bankNextFree_[bank] = g + InterconnectParams::busSlot;
    stats_.queueCycles += g - arrive;
    ++stats_.broadcasts;
    traffic_.note(g);
    if (trace_)
        trace_->busGrant(g, req.cpu, req.type, req.lineAddr, g - arrive);

    eq_.schedule(g + InterconnectParams::dirLookupLatency,
                 [this, req, fn = std::move(fn)]() mutable {
                     lookup(req, std::move(fn));
                 },
                 EventPriority::Snoop);
}

void
DirectoryInterconnect::lookup(const SystemRequest &req, ResponseFn fn)
{
    // The snoop set: the full-map sharer vector, widened by the sticky
    // region presence that covers CGCT direct fills the directory never
    // saw. DMA requests have no directory entry discipline of their own
    // and snoop everyone, as on the flat bus.
    std::uint64_t mask;
    if (!fromCpu(req))
        mask = kSnoopAll;
    else if (req.type == RequestType::Writeback)
        // A write-back only deposits data at its home controller; it
        // needs no snoops at all (they are state-neutral on others).
        mask = 0;
    else
        mask = sharerMask(req.lineAddr) | presenceOf(req.lineAddr);
    if (trace_)
        trace_->dirLookup(eq_.now(), req.cpu, req.type, req.lineAddr, mask);

    // A lookup that only snoops the requester's own chip (or nobody)
    // kept the request off the remote-snoop paths.
    std::uint64_t beyond = mask;
    if (fromCpu(req)) {
        beyond &= ~chipMask(topo_.chipOfCpu(req.cpu));
        beyond &= ~(1ULL << static_cast<unsigned>(req.cpu));
    }
    if (beyond != 0)
        ++stats_.interChip;
    else
        ++stats_.localResolves;

    resolveRequest(req, fn, mask);
}

void
DirectoryInterconnect::noteResolution(const SystemRequest &req,
                                      bool gets_exclusive)
{
    if (!fromCpu(req)) {
        // DMA write: every cached copy was invalidated by the snoop.
        // DMA read: copies survive (at most downgraded), keep the entry.
        if (gets_exclusive)
            sharers_.erase(req.lineAddr);
        return;
    }
    const std::uint64_t bit = 1ULL << static_cast<unsigned>(req.cpu);
    if (req.type == RequestType::Writeback) {
        if (std::uint64_t *bits = sharers_.find(req.lineAddr)) {
            *bits &= ~bit;
            if (*bits == 0)
                sharers_.erase(req.lineAddr);
        }
        return;
    }
    std::uint64_t &bits = sharers_.findOrInsert(req.lineAddr);
    bits = gets_exclusive ? bit : bits | bit;
    FilteredInterconnect::noteResolution(req, gets_exclusive);
}

void
DirectoryInterconnect::addStats(StatGroup &group) const
{
    group.addScalar("dir.lookups",
                    "requests looked up at a home directory bank",
                    &stats_.broadcasts);
    group.addScalar("dir.queue_cycles",
                    "total cycles requests waited at directory banks",
                    &stats_.queueCycles);
    group.addScalar("dir.local_resolves",
                    "lookups whose snoop set stayed on the requester's "
                    "chip",
                    &stats_.localResolves);
    group.addScalar("dir.interchip",
                    "lookups that had to snoop remote processors",
                    &stats_.interChip);
    addCommonStats(group, "dir", "lookups");
    group.addDerived("dir.entries",
                     "live full-map directory entries",
                     [this] {
                         return static_cast<double>(sharers_.size());
                     });
}

void
DirectoryInterconnect::transfer(Archive &ar)
{
    ar.expect("directory banks",
              static_cast<std::uint32_t>(bankNextFree_.size()));
    for (Tick &t : bankNextFree_)
        ar.u64(t);
    transferStats(ar, /*domain_counters=*/true);
    transferMaskTable(ar, sharers_);
    transferMaskTable(ar, presence_);
}

} // namespace cgct
