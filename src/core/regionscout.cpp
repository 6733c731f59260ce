#include "core/regionscout.hpp"

#include "common/log.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

RegionScout::RegionScout(CpuId cpu, const RegionScoutParams &params,
                         unsigned line_bytes)
    : cpu_(cpu),
      nsrt_("NSRT", params.nsrtSets, params.nsrtWays, params.regionBytes),
      crh_(params.crhEntries, 0)
{
    if (!isPowerOfTwo(params.crhEntries))
        fatal("RegionScout: the CRH size must be a power of two");
    if (params.regionBytes < line_bytes)
        fatal("RegionScout: region smaller than a line");
}

std::uint64_t
RegionScout::crhIndex(Addr region_addr) const
{
    // Simple multiplicative hash of the region number.
    const std::uint64_t region = region_addr / nsrt_.blockBytes();
    return (region * 0x9e3779b97f4a7c15ULL) >> (64 - log2i(crh_.size()));
}

RouteDecision
RegionScout::route(RequestType type, Addr line_addr, Tick now)
{
    RouteDecision d;
    const Addr region = regionAlign(line_addr);
    NsrtEntry *e = nsrt_.find(region);
    if (!e)
        return d; // Broadcast: nothing is known about the region.
    nsrt_.touch(*e, now);
    ++stats_.nsrtHits;
    // An NSRT hit proves "no other processor caches the region"; report
    // the equivalent exclusive region state (matches peekState()).
    d.state = RegionState::DirtyInvalid;

    switch (type) {
      case RequestType::Writeback:
        // RegionScout has no memory-controller index; write-backs keep
        // using the broadcast network to find their controller.
        d.kind = RouteKind::Broadcast;
        break;
      case RequestType::Upgrade:
      case RequestType::Dcbz:
      case RequestType::Dcbf:
      case RequestType::Dcbi:
        d.kind = RouteKind::LocalComplete;
        break;
      default:
        d.kind = RouteKind::Direct;
        // The global memory map is not known to the processor; direct
        // requests are routed by the fabric. The simulator models this by
        // leaving memCtrl unset and letting the node resolve it from the
        // address map at the fabric boundary.
        break;
    }
    return d;
}

void
RegionScout::onBroadcastResponse(RequestType type, Addr line_addr,
                                 bool /*line_granted_exclusive*/,
                                 const SnoopResponse &resp, Tick now)
{
    if (type == RequestType::Writeback)
        return;
    const Addr region = regionAlign(line_addr);
    if (!resp.region.none()) {
        if (nsrt_.invalidate(region))
            ++stats_.nsrtInvalidations;
    } else if (!nsrt_.find(region)) {
        // Globally not shared: remember it.
        std::optional<NsrtEntry> displaced;
        NsrtEntry *e = nsrt_.allocate(region, displaced);
        e->lastUse = now;
        e->resident = true;
        ++stats_.nsrtFills;
    }
}

void
RegionScout::onDirectIssue(RequestType, Addr, bool, Tick)
{
    // Nothing to update: NSRT state is unaffected by our own accesses.
}

void
RegionScout::onLocalComplete(RequestType, Addr, Tick)
{
}

void
RegionScout::onLineFill(Addr line_addr)
{
    ++crh_[crhIndex(regionAlign(line_addr))];
}

void
RegionScout::onLineEvict(Addr line_addr)
{
    std::uint32_t &ctr = crh_[crhIndex(regionAlign(line_addr))];
    if (ctr == 0)
        panic("RegionScout cpu%d: CRH underflow", cpu_);
    --ctr;
}

RegionSnoopBits
RegionScout::externalSnoop(Addr line_addr, bool /*external_gets_excl*/,
                           Tick /*now*/)
{
    const Addr region = regionAlign(line_addr);
    // Any external activity in the region disproves "not shared".
    if (nsrt_.invalidate(region))
        ++stats_.nsrtInvalidations;

    RegionSnoopBits bits;
    if (crh_[crhIndex(region)] == 0) {
        // Provably not cached locally: contribute nothing.
        ++stats_.crhFilteredSnoops;
        return bits;
    }
    // Imprecise: the region (or an alias) is cached here; the requester
    // must assume it could be dirty.
    bits.dirty = true;
    return bits;
}

RegionState
RegionScout::peekState(Addr line_addr)
{
    return nsrt_.find(regionAlign(line_addr)) ? RegionState::DirtyInvalid
                                              : RegionState::Invalid;
}

void
RegionScout::transfer(Archive &ar, unsigned /*mem_ctrls*/)
{
    ar.expect("RegionScout region bytes", nsrt_.blockBytes());
    ar.expect("RegionScout NSRT sets", nsrt_.numSets());
    ar.expect("RegionScout NSRT ways", nsrt_.ways());
    ar.expect("RegionScout CRH entries", crh_.size());
    // Residency is not stored: it is the frame's occupancy bit.
    nsrt_.transfer(ar, [&ar](NsrtEntry &e) {
        ar.u64(e.regionAddr);
        ar.u64(e.lastUse);
        if (!ar.saving())
            e.resident = true;
    });
    for (std::uint32_t &c : crh_)
        ar.u32(c);
    ar.counters(stats_);
}

} // namespace cgct
