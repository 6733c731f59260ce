#include "core/rca.hpp"

#include "common/trace_sink.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

RegionCoherenceArray::RegionCoherenceArray(std::uint64_t sets, unsigned ways,
                                           std::uint64_t region_bytes,
                                           bool favor_empty)
    : SetAssocArray("RCA", sets, ways, region_bytes),
      favorEmpty_(favor_empty)
{
}

RegionEntry *
RegionCoherenceArray::find(Addr addr)
{
    RegionEntry *entry = SetAssocArray::find(addr);
    ++(entry ? stats_.hits : stats_.misses);
    return entry;
}

RegionEntry *
RegionCoherenceArray::allocate(Addr addr, Tick now, RegionEviction &evicted)
{
    // With favor-empty on, any region with no cached lines is a better
    // victim than one with some; otherwise, and among equals, plain LRU.
    const auto prefer = [this](const RegionEntry &a, const RegionEntry &b) {
        if (favorEmpty_ && (a.lineCount == 0) != (b.lineCount == 0))
            return a.lineCount == 0;
        return a.lastUse < b.lastUse;
    };
    std::optional<RegionEntry> victim;
    RegionEntry *entry = SetAssocArray::allocate(addr, victim, prefer);
    entry->lastUse = now;
    entry->allocTick = now;
    ++stats_.allocations;

    evicted = RegionEviction{};
    if (!victim)
        return entry;
    const RegionEntry &v = *victim;
    evicted = RegionEviction{true, v.regionAddr, v.state, v.lineCount,
                             v.memCtrl};
    stats_.lineCountSum += v.lineCount;
    ++stats_.lineCountSamples;
    switch (v.lineCount) {
      case 0:  ++stats_.evictedEmpty; break;
      case 1:  ++stats_.evictedOneLine; break;
      case 2:  ++stats_.evictedTwoLines; break;
      default: ++stats_.evictedMoreLines; break;
    }
    evictedLines_.record(v.lineCount);
    lifetime_.record(static_cast<double>(now - v.allocTick));
    if (trace_)
        trace_->rcaEvict(now, traceCpu_, v.regionAddr, v.state, v.lineCount);
    return entry;
}

void
RegionCoherenceArray::transfer(Archive &ar, unsigned mem_ctrls)
{
    ar.expect("RCA sets", numSets());
    ar.expect("RCA ways", ways());
    ar.expect("RCA region bytes", blockBytes());
    SetAssocArray::transfer(ar, [&ar, mem_ctrls](RegionEntry &e) {
        ar.u64(e.regionAddr);
        ar.enumerant("region state", e.state, RegionState::DirtyDirty);
        ar.u32(e.lineCount);
        // A controller id, or kInvalidMemCtrl stored as all ones.
        auto mc = static_cast<std::uint64_t>(e.memCtrl);
        ar.u64(mc);
        if (mc != static_cast<std::uint64_t>(kInvalidMemCtrl) &&
            mc >= mem_ctrls)
            ar.fail("RCA memory controller %llu out of range (bound %u)",
                    static_cast<unsigned long long>(mc), mem_ctrls);
        e.memCtrl = static_cast<std::int16_t>(mc);
        ar.u64(e.lastUse);
        ar.u64(e.allocTick);
    });
    ar.counters(stats_);
    evictedLines_.transfer(ar);
    lifetime_.transfer(ar);
}

void
RegionCoherenceArray::addStats(StatGroup &group) const
{
    group.addCounters(stats_);
    group.addHistogram("rca.lines_at_eviction",
                       "lines cached per region at eviction",
                       &evictedLines_);
    group.addDistribution("rca.region_lifetime",
                          "allocation-to-eviction region lifetime (cycles)",
                          &lifetime_);
}

} // namespace cgct
