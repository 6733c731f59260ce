#include "core/regionscout.hpp"

#include "common/log.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

RegionScout::RegionScout(CpuId cpu, const RegionScoutParams &params,
                         unsigned line_bytes)
    : cpu_(cpu), regionBytes_(params.regionBytes),
      nsrtSets_(params.nsrtSets), nsrtWays_(params.nsrtWays),
      nsrt_(params.nsrtSets * params.nsrtWays),
      crh_(params.crhEntries, 0)
{
    if (!isPowerOfTwo(params.crhEntries) || !isPowerOfTwo(params.nsrtSets))
        fatal("RegionScout: table sizes must be powers of two");
    if (params.regionBytes < line_bytes)
        fatal("RegionScout: region smaller than a line");
}

std::uint64_t
RegionScout::crhIndex(Addr region_addr) const
{
    // Simple multiplicative hash of the region number.
    const std::uint64_t region = region_addr / regionBytes_;
    return (region * 0x9e3779b97f4a7c15ULL) >> (64 - log2i(crh_.size()));
}

RegionScout::NsrtEntry *
RegionScout::nsrtFind(Addr region_addr)
{
    const std::uint64_t set =
        (region_addr / regionBytes_) & (nsrtSets_ - 1);
    NsrtEntry *base = &nsrt_[set * nsrtWays_];
    for (unsigned w = 0; w < nsrtWays_; ++w) {
        if (base[w].valid && base[w].regionAddr == region_addr)
            return &base[w];
    }
    return nullptr;
}

void
RegionScout::nsrtInsert(Addr region_addr, Tick now)
{
    if (nsrtFind(region_addr))
        return;
    const std::uint64_t set =
        (region_addr / regionBytes_) & (nsrtSets_ - 1);
    NsrtEntry *base = &nsrt_[set * nsrtWays_];
    NsrtEntry *victim = &base[0];
    for (unsigned w = 0; w < nsrtWays_; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lastUse < victim->lastUse)
            victim = &base[w];
    }
    victim->valid = true;
    victim->regionAddr = region_addr;
    victim->lastUse = now;
    ++stats_.nsrtFills;
}

void
RegionScout::nsrtInvalidate(Addr region_addr)
{
    if (NsrtEntry *e = nsrtFind(region_addr)) {
        e->valid = false;
        ++stats_.nsrtInvalidations;
    }
}

RouteDecision
RegionScout::route(RequestType type, Addr line_addr, Tick now)
{
    RouteDecision d;
    const Addr region = regionAlign(line_addr);
    NsrtEntry *e = nsrtFind(region);
    if (!e)
        return d; // Broadcast: nothing is known about the region.
    e->lastUse = now;
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
    if (resp.region.none())
        nsrtInsert(region, now); // Globally not shared.
    else
        nsrtInvalidate(region);
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
    nsrtInvalidate(region);

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
RegionScout::peekState(Addr line_addr) const
{
    return const_cast<RegionScout *>(this)->nsrtFind(
               regionAlign(line_addr))
               ? RegionState::DirtyInvalid
               : RegionState::Invalid;
}

void
RegionScout::transfer(Archive &ar)
{
    ar.expect("RegionScout region bytes", regionBytes_);
    ar.expect("RegionScout NSRT sets", nsrtSets_);
    ar.expect("RegionScout NSRT ways", nsrtWays_);
    ar.expect("RegionScout CRH entries", crh_.size());
    for (NsrtEntry &e : nsrt_) {
        ar.b(e.valid);
        ar.u64(e.regionAddr);
        ar.u64(e.lastUse);
    }
    for (std::uint32_t &c : crh_)
        ar.u32(c);
    ar.u64(stats_.nsrtHits);
    ar.u64(stats_.nsrtFills);
    ar.u64(stats_.nsrtInvalidations);
    ar.u64(stats_.crhFilteredSnoops);
}

void
RegionScout::addStats(StatGroup &group) const
{
    group.addScalar("regionscout.nsrt_hits",
                    "requests routed using an NSRT entry",
                    &stats_.nsrtHits);
    group.addScalar("regionscout.nsrt_fills", "NSRT entries installed",
                    &stats_.nsrtFills);
    group.addScalar("regionscout.nsrt_invalidations",
                    "NSRT entries dropped on external activity",
                    &stats_.nsrtInvalidations);
    group.addScalar("regionscout.crh_filtered_snoops",
                    "external snoops answered 'not cached' by the CRH",
                    &stats_.crhFilteredSnoops);
}

} // namespace cgct
