#include "core/rca.hpp"

#include <bit>
#include <cassert>

#include "cache/cache_array.hpp"
#include "common/log.hpp"
#include "common/trace_sink.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

RegionCoherenceArray::RegionCoherenceArray(std::uint64_t sets, unsigned ways,
                                           std::uint64_t region_bytes,
                                           bool favor_empty)
    : sets_(sets), ways_(ways), regionBytes_(region_bytes),
      regionShift_(log2i(region_bytes)), favorEmpty_(favor_empty),
      tags_(sets * ways, 0), occupied_(sets, 0), mruWay_(sets, 0),
      entries_(sets * ways)
{
    if (!isPowerOfTwo(sets))
        panic("RCA: sets must be a power of two");
    if (!isPowerOfTwo(region_bytes))
        panic("RCA: region size must be a power of two");
    if (ways == 0)
        panic("RCA: associativity must be >= 1");
    if (ways > 64)
        panic("RCA: associativity above 64 exceeds the per-set "
              "occupancy mask");
}

std::uint64_t
RegionCoherenceArray::setIndex(Addr addr) const
{
    return (addr >> regionShift_) & (sets_ - 1);
}

unsigned
RegionCoherenceArray::scanSet(std::size_t set, Addr tag) const
{
    const std::uint64_t occ = occupied_[set];
    if (!occ)
        return ways_;
    const std::size_t base = set * ways_;
    std::uint64_t match = 0;
    for (unsigned w = 0; w < ways_; ++w)
        match |= static_cast<std::uint64_t>(tags_[base + w] == tag) << w;
    match &= occ;
    if (!match)
        return ways_;
    const unsigned w = static_cast<unsigned>(std::countr_zero(match));
    return entries_[base + w].valid() ? w : ways_;
}

RegionEntry *
RegionCoherenceArray::find(Addr addr)
{
    const Addr tag = addr >> regionShift_;
    const std::size_t set = static_cast<std::size_t>(tag & (sets_ - 1));
    const std::size_t base = set * ways_;

    // MRU fast path: a repeated hit to the same region skips the scan.
    const unsigned hint = mruWay_[set];
    if (((occupied_[set] >> hint) & 1) && tags_[base + hint] == tag) {
        RegionEntry &entry = entries_[base + hint];
        if (entry.valid()) {
            ++stats_.hits;
            return &entry;
        }
        ++stats_.misses;
        return nullptr;
    }

    const unsigned w = scanSet(set, tag);
    if (w == ways_) {
        ++stats_.misses;
        return nullptr;
    }
    mruWay_[set] = static_cast<std::uint8_t>(w);
    ++stats_.hits;
    return &entries_[base + w];
}

const RegionEntry *
RegionCoherenceArray::find(Addr addr) const
{
    return const_cast<RegionCoherenceArray *>(this)->find(addr);
}

const RegionEntry *
RegionCoherenceArray::peekEntry(Addr addr) const
{
    const Addr tag = addr >> regionShift_;
    const std::size_t set = static_cast<std::size_t>(tag & (sets_ - 1));
    const unsigned w = scanSet(set, tag);
    return w == ways_ ? nullptr : &entries_[set * ways_ + w];
}

RegionEntry *
RegionCoherenceArray::allocate(Addr addr, Tick now, RegionEviction &evicted)
{
    evicted = RegionEviction{};
    const Addr tag = addr >> regionShift_;
    const std::size_t set = static_cast<std::size_t>(tag & (sets_ - 1));
    const std::size_t base = set * ways_;
    const std::uint64_t occ = occupied_[set];

    unsigned victim = ways_;
    unsigned empty_lru = ways_;
    unsigned any_lru = ways_;
    for (unsigned w = 0; w < ways_; ++w) {
        if (!((occ >> w) & 1)) {
            victim = w;
            break;
        }
        const RegionEntry &e = entries_[base + w];
        if (tags_[base + w] == tag && e.valid())
            panic("RCA: allocating a region that is already present");
        if (e.lineCount == 0 &&
            (empty_lru == ways_ ||
             e.lastUse < entries_[base + empty_lru].lastUse)) {
            empty_lru = w;
        }
        if (any_lru == ways_ ||
            e.lastUse < entries_[base + any_lru].lastUse) {
            any_lru = w;
        }
    }
    if (victim == ways_)
        victim = (favorEmpty_ && empty_lru != ways_) ? empty_lru : any_lru;

    RegionEntry &entry = entries_[base + victim];
    if ((occ >> victim) & 1) {
        if (entry.valid()) {
            evicted.valid = true;
            evicted.regionAddr = entry.regionAddr;
            evicted.state = entry.state;
            evicted.lineCount = entry.lineCount;
            evicted.memCtrl = entry.memCtrl;
            stats_.lineCountSum += entry.lineCount;
            ++stats_.lineCountSamples;
            switch (entry.lineCount) {
              case 0:  ++stats_.evictedEmpty; break;
              case 1:  ++stats_.evictedOneLine; break;
              case 2:  ++stats_.evictedTwoLines; break;
              default: ++stats_.evictedMoreLines; break;
            }
            evictedLines_.record(entry.lineCount);
            lifetime_.record(static_cast<double>(now - entry.allocTick));
            CGCT_TRACE(trace_, rcaEvict(now, traceCpu_, entry.regionAddr,
                                        entry.state, entry.lineCount));
        }
    } else {
        occupied_[set] |= std::uint64_t{1} << victim;
        ++numValid_;
    }

    tags_[base + victim] = tag;
    mruWay_[set] = static_cast<std::uint8_t>(victim);
    entry = RegionEntry{};
    entry.regionAddr = tag << regionShift_;
    entry.lastUse = now;
    entry.allocTick = now;
    ++stats_.allocations;
    return &entry;
}

void
RegionCoherenceArray::invalidate(Addr addr)
{
    const Addr tag = addr >> regionShift_;
    const std::size_t set = static_cast<std::size_t>(tag & (sets_ - 1));
    const unsigned w = scanSet(set, tag);
    if (w == ways_)
        return;
    entries_[set * ways_ + w] = RegionEntry{};
    occupied_[set] &= ~(std::uint64_t{1} << w);
    --numValid_;
}

void
RegionCoherenceArray::forEachValidEntry(
    FunctionRef<void(const RegionEntry &)> fn) const
{
    for (std::size_t set = 0; set < sets_; ++set) {
        std::uint64_t occ = occupied_[set];
        const std::size_t base = set * ways_;
        while (occ) {
            const unsigned w =
                static_cast<unsigned>(std::countr_zero(occ));
            occ &= occ - 1;
            const RegionEntry &e = entries_[base + w];
            if (e.valid())
                fn(e);
        }
    }
}

std::uint64_t
RegionCoherenceArray::countValid() const
{
#ifndef NDEBUG
    std::uint64_t scan = 0;
    for (const auto &e : entries_)
        if (e.valid())
            ++scan;
    assert(scan == numValid_ &&
           "RCA: incremental valid counter out of sync");
#endif
    return numValid_;
}

void
RegionCoherenceArray::reset()
{
    for (auto &e : entries_)
        e = RegionEntry{};
    for (auto &occ : occupied_)
        occ = 0;
    for (auto &hint : mruWay_)
        hint = 0;
    numValid_ = 0;
}

void
RegionCoherenceArray::transfer(Archive &ar)
{
    ar.expect("RCA sets", sets_);
    ar.expect("RCA ways", ways_);
    ar.expect("RCA region bytes", regionBytes_);
    transferSetIndex(ar, tags_, occupied_, mruWay_, ways_);
    for (RegionEntry &e : entries_) {
        ar.u64(e.regionAddr);
        ar.enumerant("region state", e.state, RegionState::DirtyDirty);
        ar.u32(e.lineCount);
        ar.u64(e.memCtrl);
        ar.u64(e.lastUse);
        ar.u64(e.allocTick);
    }
    ar.u64(numValid_);
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
