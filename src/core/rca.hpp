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
 * The storage is the one SetAssocArray (common/set_assoc_array.hpp);
 * this class adds the victim preference, the lookup and eviction
 * statistics, the eviction histograms and the rca_evict trace event.
 * Lookups confirm `state != Invalid` on a tag match, so the
 * allocate()-to-state-set window (during which the controller runs
 * inclusion flushes) reads as a miss.
 */

#pragma once

#include <cstdint>

#include "common/set_assoc_array.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/region_protocol.hpp"

namespace cgct {

class TraceSink;
class Archive;

/**
 * One RCA entry, packed into 32 bytes: the frame cost of every RCA way
 * (8192 sets x 2 ways per processor in Table 3). The memory-controller id
 * is 16 bits wide; the storage model gives it 6 (Table 2), and config
 * validation rejects a controller count that does not fit.
 */
struct RegionEntry {
    Addr regionAddr = 0;                    ///< Region-aligned address.
    Tick lastUse = 0;
    Tick allocTick = 0;                     ///< When the entry was filled.
    std::uint32_t lineCount = 0;            ///< Lines cached locally.
    std::int16_t memCtrl = kInvalidMemCtrl; ///< Owning memory controller.
    RegionState state = RegionState::Invalid;

    bool valid() const { return state != RegionState::Invalid; }
};
static_assert(sizeof(RegionEntry) == 32,
              "a new RegionEntry field grows every RCA frame");

/** A region displaced by allocation; its lines must be flushed. */
struct RegionEviction {
    bool valid = false;
    Addr regionAddr = 0;
    RegionState state = RegionState::Invalid;
    std::uint32_t lineCount = 0;
    MemCtrlId memCtrl = kInvalidMemCtrl;
};

/**
 * The per-processor Region Coherence Array. peek(), invalidate(),
 * touch(), forEachValid(), countValid() and reset() are the array's
 * own; find() and allocate() add the statistics.
 */
class RegionCoherenceArray
    : public SetAssocArray<RegionEntry, &RegionEntry::regionAddr>
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

    /** Find the entry covering @p addr, or nullptr; counts a hit or a
     *  miss. */
    RegionEntry *find(Addr addr);

    /**
     * Allocate an entry for @p addr's region, evicting per the policy if
     * the set is full. The new entry is Invalid-initialized except for its
     * regionAddr and timestamps; the caller sets state/memCtrl.
     * @param[out] evicted the displaced region (caller must flush lines).
     */
    RegionEntry *allocate(Addr addr, Tick now, RegionEviction &evicted);

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

    /**
     * Checkpoint layout: geometry, the array, statistics and the
     * eviction histograms. Geometry is verified on restore; mismatches
     * fatal() with the section name, as does an entry whose memory
     * controller is neither kInvalidMemCtrl nor below @p mem_ctrls.
     */
    void transfer(Archive &ar, unsigned mem_ctrls);

  private:
    bool favorEmpty_;
    Stats stats_;
    /** Lines cached at eviction: one bucket per count, 0..7, overflow. */
    Histogram evictedLines_{1, 8};
    Distribution lifetime_;
    TraceSink *trace_ = nullptr;
    CpuId traceCpu_ = kInvalidCpu;
};

} // namespace cgct
