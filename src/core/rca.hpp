/**
 * @file
 * The Region Coherence Array (Section 3.2): a set-associative array, one
 * per processor, holding the region protocol state for large aligned
 * regions, a count of the region's lines cached by this processor (for
 * self-invalidation and replacement), and the memory-controller index
 * learned from the snoop response (for direct write-backs).
 *
 * Replacement favors regions with no cached lines — found via the line
 * count — so that evicting a region rarely forces cache-line evictions to
 * preserve inclusion. The paper reports 65.1% of evicted regions empty
 * with this policy at 512 B regions.
 *
 * Storage is split structure-of-arrays exactly like CacheArray (see
 * cache/cache_array.hpp): packed per-set tags, a per-set occupancy
 * bitmask scanned branch-free, a per-set MRU way hint, and a parallel
 * RegionEntry metadata array touched only on hit. Entry pointers are
 * stable until invalidation/reallocation. Lookups confirm
 * `state != Invalid` on a tag match so the allocate()-to-state-set
 * window (during which the controller runs inclusion flushes) reads as
 * a miss, matching the previous array-of-structs behavior.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/inline_function.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/region_protocol.hpp"

namespace cgct {

class TraceSink;
class Archive;

/** One RCA entry. */
struct RegionEntry {
    Addr regionAddr = 0;                    ///< Region-aligned address.
    RegionState state = RegionState::Invalid;
    std::uint32_t lineCount = 0;            ///< Lines cached locally.
    MemCtrlId memCtrl = kInvalidMemCtrl;    ///< Owning memory controller.
    Tick lastUse = 0;
    Tick allocTick = 0;                     ///< When the entry was filled.

    bool valid() const { return state != RegionState::Invalid; }
};

/** A region displaced by allocation; its lines must be flushed. */
struct RegionEviction {
    bool valid = false;
    Addr regionAddr = 0;
    RegionState state = RegionState::Invalid;
    std::uint32_t lineCount = 0;
    MemCtrlId memCtrl = kInvalidMemCtrl;
};

/** The per-processor Region Coherence Array. */
class RegionCoherenceArray
{
  public:
    /**
     * @param sets        number of sets (power of two)
     * @param ways        associativity
     * @param region_bytes region size (power of two, >= line size)
     * @param favor_empty replacement prefers regions with lineCount == 0
     */
    RegionCoherenceArray(std::uint64_t sets, unsigned ways,
                         std::uint64_t region_bytes, bool favor_empty);

    std::uint64_t regionBytes() const { return regionBytes_; }
    std::uint64_t numSets() const { return sets_; }
    unsigned ways() const { return ways_; }

    /** Align an address to a region boundary. */
    Addr regionAlign(Addr addr) const
    {
        return alignDown(addr, regionBytes_);
    }

    /** Find the entry covering @p addr, or nullptr. */
    RegionEntry *find(Addr addr);
    const RegionEntry *find(Addr addr) const;

    /**
     * Side-effect-free lookup: like find() but touches neither the
     * hit/miss counters nor LRU. For the invariant checker and tests,
     * which must be able to observe the array without perturbing the
     * statistics the experiments record.
     */
    const RegionEntry *peekEntry(Addr addr) const;

    /**
     * Allocate an entry for @p addr's region, evicting per the policy if
     * the set is full. The new entry is Invalid-initialized except for its
     * regionAddr; the caller sets state/memCtrl.
     * @param[out] evicted the displaced region (caller must flush lines).
     */
    RegionEntry *allocate(Addr addr, Tick now, RegionEviction &evicted);

    /** Invalidate the entry covering @p addr if present. */
    void invalidate(Addr addr);

    /** LRU touch. */
    void touch(RegionEntry &entry, Tick now) { entry.lastUse = now; }

    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t allocations = 0;
        /** Evicted-region line-count distribution (Section 3.2). */
        std::uint64_t evictedEmpty = 0;
        std::uint64_t evictedOneLine = 0;
        std::uint64_t evictedTwoLines = 0;
        std::uint64_t evictedMoreLines = 0;
        /** Cache lines flushed to preserve inclusion. */
        std::uint64_t inclusionFlushedLines = 0;
        /** Regions self-invalidated by the line-count mechanism. */
        std::uint64_t selfInvalidations = 0;
        /** Sum/samples of lineCount at eviction (avg lines per region). */
        std::uint64_t lineCountSum = 0;
        std::uint64_t lineCountSamples = 0;
    };

    Stats &stats() { return stats_; }
    const Stats &stats() const { return stats_; }
    void addStats(StatGroup &group) const;

    /** Lines-cached-at-eviction histogram (Section 3.2's Figure 9 data). */
    const Histogram &evictedLinesHistogram() const { return evictedLines_; }
    /** Allocation-to-eviction lifetime of displaced regions, in ticks. */
    const Distribution &regionLifetime() const { return lifetime_; }

    /** Emit rca_evict trace events to @p sink on behalf of @p cpu. */
    void
    setTraceSink(TraceSink *sink, CpuId cpu)
    {
        trace_ = sink;
        traceCpu_ = cpu;
    }

    /** Visit every valid entry (non-owning visitor; see FunctionRef). */
    void forEachValidEntry(FunctionRef<void(const RegionEntry &)> fn) const;

    /** Count valid entries (O(1): maintained incrementally). */
    std::uint64_t countValid() const;

    void reset();

    /**
     * Checkpoint layout: tags, occupancy, MRU hints, entry metadata,
     * statistics and the eviction histograms. Geometry is verified on
     * restore; mismatches fatal() with the section name.
     */
    void transfer(Archive &ar);

  private:
    std::uint64_t setIndex(Addr addr) const;
    /** Tag-match scan of one set; returns the way or ways_ on miss. */
    unsigned scanSet(std::size_t set, Addr tag) const;

    std::uint64_t sets_;
    unsigned ways_;
    std::uint64_t regionBytes_;
    unsigned regionShift_;
    bool favorEmpty_;
    /** Packed tags (`regionAddr >> regionShift_`), set-major. */
    std::vector<Addr> tags_;
    /** Per-set tag-occupancy bitmask (bit w = way w holds a tag). */
    std::vector<std::uint64_t> occupied_;
    /** Per-set most-recently-hit way hint. */
    std::vector<std::uint8_t> mruWay_;
    /** Entry metadata, parallel to tags_; touched only on hit. */
    std::vector<RegionEntry> entries_;
    /** Occupied-entry count, maintained incrementally. */
    std::uint64_t numValid_ = 0;
    Stats stats_;
    /** Lines cached at eviction: one bucket per count, 0..7, overflow. */
    Histogram evictedLines_{1, 8};
    Distribution lifetime_;
    TraceSink *trace_ = nullptr;
    CpuId traceCpu_ = kInvalidCpu;
};

} // namespace cgct
