/**
 * @file
 * Generic set-associative array with LRU replacement, used for the L1
 * instruction/data caches and the unified L2. Stores line metadata only
 * (coherence state and fill timing); the simulator does not model data
 * values.
 *
 * Storage is split structure-of-arrays for lookup speed (the hot path of
 * every simulated memory access):
 *  - a packed per-set tag array (`lineAddr >> lineShift`), scanned with a
 *    branch-free compare loop;
 *  - a per-set occupancy bitmask (one bit per way), so empty sets cost
 *    one load and the compare loop needs no per-way valid branch;
 *  - a per-set MRU way hint, so repeated hits to the same line skip the
 *    scan entirely;
 *  - a parallel CacheLine metadata array touched only on hit — callers
 *    keep the stable `CacheLine *` interface (pointers stay valid until
 *    the frame is invalidated or reallocated).
 *
 * The occupancy bit tracks tag residency, which is set at allocate()
 * time; a frame's *coherence* validity is its metadata state, which the
 * caller assigns right after allocate() (Cache::fill). Lookups confirm
 * `state != Invalid` on a tag match, so a frame inside that window reads
 * as a miss — exactly as the previous array-of-structs scan behaved.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/inline_function.hpp"
#include "common/types.hpp"
#include "coherence/protocol.hpp"

namespace cgct {

class Archive;

/** Metadata for one cache line frame. */
struct CacheLine {
    Addr lineAddr = 0;                     ///< Line-aligned address.
    LineState state = LineState::Invalid;
    Tick readyTick = 0;   ///< When the fill data arrives (MSHR merging).
    Tick lastUse = 0;     ///< LRU timestamp.

    bool valid() const { return isValid(state); }
};

/** A victim chosen by allocation, reported to the caller for write-back. */
struct Eviction {
    bool valid = false;
    Addr lineAddr = 0;
    LineState state = LineState::Invalid;
};

/**
 * Checkpoint layout of the set index CacheArray and the RCA share:
 * packed tags, per-set occupancy masks and MRU way hints. On load, no
 * mask may name a way at or above @p ways and every hint must be below
 * it (lookups shift the mask by the hint and index the set with it).
 */
void transferSetIndex(Archive &ar, std::vector<Addr> &tags,
                      std::vector<std::uint64_t> &occupied,
                      std::vector<std::uint8_t> &mru, unsigned ways);

/** Set-associative cache line array. */
class CacheArray
{
  public:
    /**
     * @param sets       number of sets (power of two)
     * @param ways       associativity (1..64; the occupancy mask is one
     *                   64-bit word per set)
     * @param line_bytes line size in bytes (power of two)
     */
    CacheArray(std::uint64_t sets, unsigned ways, unsigned line_bytes);

    /** Line size in bytes. */
    unsigned lineBytes() const { return lineBytes_; }
    std::uint64_t numSets() const { return sets_; }
    unsigned ways() const { return ways_; }

    /** Align an address to this array's line size. */
    Addr lineAlign(Addr addr) const { return alignDown(addr, lineBytes_); }

    /** Find the frame holding @p addr's line, or nullptr. */
    CacheLine *find(Addr addr);
    const CacheLine *find(Addr addr) const;

    /**
     * Allocate a frame for @p addr's line, evicting the LRU valid line if
     * the set is full. The returned frame is zeroed except lineAddr.
     * @param[out] evicted describes the displaced line, if any.
     */
    CacheLine *allocate(Addr addr, Eviction &evicted);

    /** Invalidate the line if present; returns its prior state. */
    LineState invalidate(Addr addr);

    /** Update LRU for a frame. */
    void
    touch(CacheLine &line, Tick now)
    {
        line.lastUse = now;
    }

    /**
     * Visit every valid line whose address falls inside the aligned region
     * [region_base, region_base + region_bytes), in ascending address
     * order (the flush path's write-back order depends on it). Indexes
     * only the sets the region's lines can map to — one occupancy-mask
     * load per candidate line, no LRU/MRU side effects. The visitor is a
     * non-owning FunctionRef: this runs on the snoop/region-flush hot
     * path, and a std::function here allocated per visit.
     */
    void
    forEachLineInRegion(Addr region_base, std::uint64_t region_bytes,
                        FunctionRef<void(CacheLine &)> fn);
    void
    forEachLineInRegion(Addr region_base, std::uint64_t region_bytes,
                        FunctionRef<void(const CacheLine &)> fn) const;

    /** Visit every valid line (tests / invariant checks). */
    void forEachValidLine(FunctionRef<void(const CacheLine &)> fn) const;

    /** Count of valid lines (O(1): maintained incrementally). */
    std::uint64_t countValid() const;

    /** Invalidate everything (between simulation phases). */
    void reset();

    /**
     * Checkpoint layout: tags, occupancy, MRU hints and line metadata.
     * The geometry (sets/ways/line size) is verified on restore;
     * mismatches fatal() with the section name.
     */
    void transfer(Archive &ar);

  private:
    std::uint64_t setIndex(Addr addr) const;

    std::uint64_t sets_;
    unsigned ways_;
    unsigned lineBytes_;
    unsigned lineShift_;

    /** Packed tags (`lineAddr >> lineShift_`), set-major, way-minor. */
    std::vector<Addr> tags_;
    /** Per-set tag-occupancy bitmask (bit w = way w holds a tag). */
    std::vector<std::uint64_t> occupied_;
    /** Per-set most-recently-hit way hint. */
    std::vector<std::uint8_t> mruWay_;
    /** Frame metadata, parallel to tags_; touched only on hit. */
    std::vector<CacheLine> meta_;
    /** Occupied-frame count, maintained incrementally. */
    std::uint64_t numValid_ = 0;
};

} // namespace cgct
