#include "interconnect/directory.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/trace_sink.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

DirectoryInterconnect::DirectoryInterconnect(
    EventQueue &eq, const InterconnectParams &params, const AddressMap &map,
    DataNetwork &data_net, std::vector<MemoryController *> mem_ctrls,
    const TopologyParams &topo, std::uint64_t region_bytes)
    : Interconnect(eq, params, map, data_net, std::move(mem_ctrls)),
      topo_(topo), regionBytes_(region_bytes),
      bankNextFree_(topo.numMemCtrls(), 0)
{
    if (topo_.numCpus > 64)
        panic("DirectoryInterconnect: sharer vectors are 64-bit; numCpus "
              "must be <= 64 (config.validate should have rejected this)");
}

void
DirectoryInterconnect::broadcast(const SystemRequest &req, ResponseFn fn)
{
    const Tick now = eq_.now();

    // Point-to-point delivery to the line's home controller, at the
    // direct-request latency of the requester->home distance class.
    const MemCtrlId mc = map_.controllerOf(req.lineAddr);
    const Tick arrive =
        now + params_.directLatency(map_.distanceToCtrl(req.cpu, mc));

    // FCFS at the home directory bank.
    const unsigned bank = static_cast<unsigned>(mc);
    const Tick g = std::max(bankNextFree_[bank], arrive);
    bankNextFree_[bank] = g + params_.busSlot;
    stats_.queueCycles += g - arrive;
    ++stats_.broadcasts;
    traffic_.note(g);
    CGCT_TRACE(trace_, busGrant(g, req.cpu, req.type, req.lineAddr,
                                g - arrive));

    eq_.schedule(g + params_.dirLookupLatency,
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
    if (static_cast<unsigned>(req.cpu) >= topo_.numCpus)
        mask = kSnoopAll;
    else if (req.type == RequestType::Writeback)
        // A write-back only deposits data at its home controller; it
        // needs no snoops at all (they are state-neutral on others).
        mask = 0;
    else
        mask = sharerMask(req.lineAddr) | presenceOf(req.lineAddr);
    CGCT_TRACE(trace_, dirLookup(eq_.now(), req.cpu, req.type,
                                 req.lineAddr, mask));

    // A lookup that only snoops the requester's own chip (or nobody)
    // kept the request off the remote-snoop paths.
    std::uint64_t beyond = mask;
    if (static_cast<unsigned>(req.cpu) < topo_.numCpus) {
        beyond &= ~chipMask(topo_.chipOfCpu(req.cpu));
        beyond &= ~(1ULL << static_cast<unsigned>(req.cpu));
    }
    if (beyond != 0)
        ++stats_.interChip;
    else
        ++stats_.localResolves;

    // Pre-seed the requester's bits: the post-resolve hook (invariant
    // checker) fires inside resolveRequest, after the response installed
    // the line but before updateDirectory could run. The mask above is
    // already computed, so the early bits change no snoop decision; an
    // exclusive grant overwrites the vector right after anyway.
    if (static_cast<unsigned>(req.cpu) < topo_.numCpus &&
        req.type != RequestType::Writeback) {
        sharers_.findOrInsert(req.lineAddr) |=
            1ULL << static_cast<unsigned>(req.cpu);
        presence_.findOrInsert(regionOf(req.lineAddr)) |=
            chipMask(topo_.chipOfCpu(req.cpu));
    }

    const ResolveOutcome out = resolveRequest(req, fn, mask);
    updateDirectory(req, out.getsExclusive);
}

void
DirectoryInterconnect::updateDirectory(const SystemRequest &req,
                                       bool gets_exclusive)
{
    if (static_cast<unsigned>(req.cpu) >= topo_.numCpus) {
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
    // Chip-granular, like the hierarchy's map: a sibling core sharing
    // the requester's chip RCA can direct-fill lines of this region
    // without a directory lookup of its own.
    presence_.findOrInsert(regionOf(req.lineAddr)) |=
        chipMask(topo_.chipOfCpu(req.cpu));
}

void
DirectoryInterconnect::warmNote(const SystemRequest &req,
                                bool gets_exclusive)
{
    updateDirectory(req, gets_exclusive);
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
    group.addScalar("dir.cache_to_cache",
                    "reads whose data came from another cache",
                    &stats_.cacheToCache);
    group.addScalar("dir.memory_supplied",
                    "reads whose data came from DRAM",
                    &stats_.memorySupplied);
    group.addDerived("dir.avg_per_100k",
                     "average lookups per 100K cycles",
                     [this] {
                         return traffic_.averagePerWindow(eq_.now());
                     });
    group.addDerived("dir.peak_per_100k",
                     "peak lookups in any 100K-cycle window",
                     [this] {
                         return static_cast<double>(
                             traffic_.peakWindowCount());
                     });
    group.addDerived("dir.entries",
                     "live full-map directory entries",
                     [this] {
                         return static_cast<double>(sharers_.size());
                     });
}

void
DirectoryInterconnect::serialize(Serializer &s) const
{
    s.u32(static_cast<std::uint32_t>(bankNextFree_.size()));
    for (const Tick t : bankNextFree_)
        s.u64(t);
    s.u64(stats_.broadcasts);
    s.u64(stats_.queueCycles);
    s.u64(stats_.cacheToCache);
    s.u64(stats_.memorySupplied);
    s.u64(stats_.localResolves);
    s.u64(stats_.interChip);
    traffic_.serialize(s);
    saveMaskTable(s, sharers_);
    saveMaskTable(s, presence_);
}

void
DirectoryInterconnect::deserialize(SectionReader &r)
{
    const std::uint32_t n = r.u32();
    if (n != bankNextFree_.size())
        panic("DirectoryInterconnect: snapshot has %u banks, system has "
              "%zu",
              n, bankNextFree_.size());
    for (Tick &t : bankNextFree_)
        t = r.u64();
    stats_.broadcasts = r.u64();
    stats_.queueCycles = r.u64();
    stats_.cacheToCache = r.u64();
    stats_.memorySupplied = r.u64();
    stats_.localResolves = r.u64();
    stats_.interChip = r.u64();
    traffic_.deserialize(r);
    loadMaskTable(r, sharers_);
    loadMaskTable(r, presence_);
}

} // namespace cgct
