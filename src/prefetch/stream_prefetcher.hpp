/**
 * @file
 * IBM Power4-style hardware stream prefetcher (Table 3): eight concurrent
 * streams, five lines of runahead, ascending or descending, trained by
 * demand accesses at the L2. Streams trained by stores issue exclusive
 * prefetches (MIPS R10000-style) when enabled, so the store's upgrade is
 * avoided.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace cgct {

class Archive;

/** A prefetch the engine wants issued. */
struct PrefetchCandidate {
    Addr lineAddr = 0;
    bool exclusive = false;
};

/** The per-processor stream prefetch engine. */
class StreamPrefetcher
{
  public:
    StreamPrefetcher(const PrefetchParams &params, unsigned line_bytes);

    /**
     * Observe a demand access (L2 probe) and append any prefetches the
     * streams want to issue to @p out.
     *
     * @param line_addr line-aligned demand address
     * @param is_store  the access was a store (trains exclusive streams)
     * @param was_miss  the demand access missed in the L2
     */
    void observe(Addr line_addr, bool is_store, bool was_miss,
                 std::vector<PrefetchCandidate> &out);

    struct Stats {
        std::uint64_t streamsAllocated = 0;
        std::uint64_t streamsConfirmed = 0;
        std::uint64_t prefetchesRequested = 0;
    };

    const Stats &stats() const { return stats_; }
    void addStats(StatGroup &group) const;
    void reset();

    /** Checkpoint layout: stream table, use clock and statistics. */
    void transfer(Archive &ar);

  private:
    struct Stream {
        bool valid = false;
        bool confirmed = false;
        bool storeStream = false;
        int direction = 1;           ///< +1 ascending, -1 descending.
        Addr lastLine = 0;           ///< Last demand line observed.
        Addr nextPrefetch = 0;       ///< Next line to prefetch.
        std::uint64_t lastUse = 0;
    };

    Stream *findMatch(Addr line, int &direction_out);
    Stream *allocate();

    PrefetchParams params_;
    unsigned lineBytes_;
    std::vector<Stream> streams_;
    std::uint64_t useClock_ = 0;
    Stats stats_;
};

} // namespace cgct
