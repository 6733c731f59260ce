/**
 * @file
 * A coherent write-back cache structure: a line array plus hit/miss/
 * eviction statistics. The Cache is deliberately mechanism-only — which
 * requests go to the system, and in what state lines are granted, is
 * decided by the per-processor node controller (src/sim/node.*), keeping
 * this class reusable for L1I, L1D, and L2. The array stores line
 * metadata only (coherence state and fill timing); the simulator does
 * not model data values.
 */

#pragma once

#include <cstdint>
#include <string>

#include "coherence/protocol.hpp"
#include "common/config.hpp"
#include "common/set_assoc_array.hpp"
#include "common/stats.hpp"

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
static_assert(sizeof(CacheLine) == 32,
              "a new CacheLine field grows every cache frame");

/** A victim chosen by a fill, reported to the caller for write-back. */
struct Eviction {
    bool valid = false;
    Addr lineAddr = 0;
    LineState state = LineState::Invalid;
};

/** The line array of one cache level, with plain LRU replacement. */
using CacheArray = SetAssocArray<CacheLine, &CacheLine::lineAddr>;

/** One cache level. */
class Cache
{
  public:
    Cache(std::string name, const CacheParams &params);

    const std::string &name() const { return name_; }
    Tick latency() const { return params_.latency; }
    unsigned lineBytes() const { return params_.lineBytes; }
    Addr lineAlign(Addr addr) const { return array_.align(addr); }

    CacheArray &array() { return array_; }
    const CacheArray &array() const { return array_; }

    /**
     * Probe for @p addr, updating LRU and hit/miss statistics.
     * @return the line if present, else nullptr.
     */
    CacheLine *probe(Addr addr, Tick now);

    /** Look up without statistics or LRU (the node's own snoops and
     *  fills); a hit still becomes its set's MRU way. */
    CacheLine *lookup(Addr addr) { return array_.find(addr); }

    /** Look up with no side effect at all (invariant checker, tests). */
    const CacheLine *peek(Addr addr) const { return array_.peek(addr); }

    /**
     * Install a line in @p state with fill data arriving at @p ready.
     * @param[out] evicted the displaced line, if any (caller handles
     *                     write-back / back-invalidation).
     */
    CacheLine *
    fill(Addr addr, LineState state, Tick now, Tick ready,
         Eviction &evicted);

    /** Invalidate a line (external snoop or back-invalidation). */
    LineState invalidateLine(Addr addr);

    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t fills = 0;
        std::uint64_t evictionsClean = 0;
        std::uint64_t evictionsDirty = 0;
        std::uint64_t invalidations = 0;
    };

    const Stats &stats() const { return stats_; }
    Stats &mutableStats() { return stats_; }

    /** Miss ratio over all probes so far. */
    double missRatio() const;

    void addStats(StatGroup &group) const;
    void resetStats() { stats_ = Stats{}; }

    /**
     * Checkpoint layout: the geometry (verified on restore; a mismatch
     * fatal()s with the section name), the line array, then the
     * statistics block.
     */
    void transfer(Archive &ar);

  private:
    std::string name_;
    CacheParams params_;
    CacheArray array_;
    Stats stats_;
};

} // namespace cgct
