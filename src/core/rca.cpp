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
    ar.u64(stats_.hits);
    ar.u64(stats_.misses);
    ar.u64(stats_.allocations);
    ar.u64(stats_.evictedEmpty);
    ar.u64(stats_.evictedOneLine);
    ar.u64(stats_.evictedTwoLines);
    ar.u64(stats_.evictedMoreLines);
    ar.u64(stats_.inclusionFlushedLines);
    ar.u64(stats_.selfInvalidations);
    ar.u64(stats_.lineCountSum);
    ar.u64(stats_.lineCountSamples);
    evictedLines_.transfer(ar);
    lifetime_.transfer(ar);
}

void
RegionCoherenceArray::addStats(StatGroup &group) const
{
    group.addScalar("rca.hits", "region lookups that hit", &stats_.hits);
    group.addScalar("rca.misses", "region lookups that missed",
                    &stats_.misses);
    group.addScalar("rca.allocations", "region entries allocated",
                    &stats_.allocations);
    group.addScalar("rca.evicted_empty",
                    "evicted regions with no cached lines",
                    &stats_.evictedEmpty);
    group.addScalar("rca.evicted_one_line",
                    "evicted regions with one cached line",
                    &stats_.evictedOneLine);
    group.addScalar("rca.evicted_two_lines",
                    "evicted regions with two cached lines",
                    &stats_.evictedTwoLines);
    group.addScalar("rca.evicted_more_lines",
                    "evicted regions with three or more cached lines",
                    &stats_.evictedMoreLines);
    group.addScalar("rca.inclusion_flushed_lines",
                    "cache lines flushed to preserve RCA inclusion",
                    &stats_.inclusionFlushedLines);
    group.addScalar("rca.self_invalidations",
                    "regions invalidated by the zero-line-count mechanism",
                    &stats_.selfInvalidations);
    group.addHistogram("rca.lines_at_eviction",
                       "lines cached per region at eviction",
                       &evictedLines_);
    group.addDistribution("rca.region_lifetime",
                          "allocation-to-eviction region lifetime (cycles)",
                          &lifetime_);
}

} // namespace cgct
