/**
 * @file
 * The one set-associative tag array. It stores the L1I/L1D/L2 caches
 * (cache/cache.hpp), the Region Coherence Array (core/rca.hpp) and
 * RegionScout's not-shared-region table (core/regionscout.hpp). Each user
 * supplies only its entry type and, when it allocates, its victim
 * preference; the array holds everything else.
 *
 * The array stores its frames and nothing beside them. Each frame's
 * address is stored once, in its entry's `kAddr` member, and its state is
 * its entry's `valid()` (a coherence state, or a residency flag): as in
 * the paper's storage accounting (Table 2), Invalid is the valid bit.
 * Lookups (the hot path of every simulated memory access) compare the
 * addresses of one set's frames and confirm `valid()` on a match, so a
 * hit touches that set's entries and nothing else. A frame is empty when
 * its entry is not valid; allocate() fills the first empty way.
 *
 * allocate() sets only the frame's address; the caller assigns its state
 * right after. Until then the frame reads as a miss and is the set's
 * first empty way. Entry pointers stay valid until the frame is
 * invalidated or reallocated. A cleared frame (invalidate(), reset()) is
 * Entry{}. Every entry has a `Tick lastUse`, the LRU timestamp.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"

namespace cgct {

/**
 * @tparam Entry the per-frame metadata; `valid()` is the frame's state
 * @tparam kAddr the Entry member that holds the frame's aligned address
 */
template <typename Entry, Addr Entry::*kAddr>
class SetAssocArray
{
    static_assert(requires(const Entry &e) { bool(e.valid()); },
                  "a tag-array entry's valid() is its frame's state");

  public:
    /** Plain LRU victim order: the least recently used entry first. */
    struct Lru {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return a.lastUse < b.lastUse;
        }
    };

    /**
     * @param what        names the array in panics ("cache", "RCA", ...)
     * @param sets        number of sets (power of two)
     * @param ways        associativity (1..64; the checkpoint stores one
     *                    64-bit occupancy mask per set)
     * @param block_bytes bytes one entry covers (power of two)
     */
    SetAssocArray(const char *what, std::uint64_t sets, unsigned ways,
                  std::uint64_t block_bytes)
        : what_(what), sets_(sets), ways_(ways), shift_(log2i(block_bytes)),
          entries_(sets * ways)
    {
        if (!isPowerOfTwo(sets))
            panic("%s: sets must be a power of two (got %llu)", what,
                  static_cast<unsigned long long>(sets));
        if (!isPowerOfTwo(block_bytes))
            panic("%s: block size must be a power of two (got %llu)", what,
                  static_cast<unsigned long long>(block_bytes));
        if (ways == 0)
            panic("%s: associativity must be >= 1", what);
        if (ways > 64)
            panic("%s: associativity above 64 exceeds the checkpoint's "
                  "per-set occupancy mask", what);
    }

    std::uint64_t numSets() const { return sets_; }
    unsigned ways() const { return ways_; }
    std::uint64_t blockBytes() const { return std::uint64_t{1} << shift_; }

    /** Align an address down to its block. */
    Addr align(Addr addr) const { return alignDown(addr, blockBytes()); }

    /** The valid entry covering @p addr, or nullptr. */
    const Entry *
    find(Addr addr) const
    {
        const Addr block = align(addr);
        const Entry *set = &entries_[setOf(block) * ways_];
        for (unsigned w = 0; w < ways_; ++w)
            if (set[w].*kAddr == block && set[w].valid())
                return &set[w];
        return nullptr;
    }

    Entry *
    find(Addr addr)
    {
        return const_cast<Entry *>(std::as_const(*this).find(addr));
    }

    /**
     * Claim a frame for @p addr's block: the first empty way of its set,
     * else the way @p prefer orders first (prefer(a, b): a is the better
     * victim; ties go to the lower way). The frame is reset to Entry{}
     * with its address set.
     * @param[out] evicted the valid entry the frame held, if any.
     */
    template <typename Prefer = Lru>
    Entry *
    allocate(Addr addr, std::optional<Entry> &evicted, Prefer prefer = {})
    {
        evicted.reset();
        const Addr block = align(addr);
        Entry *set = &entries_[setOf(block) * ways_];

        Entry *victim = nullptr;
        for (unsigned w = 0; w < ways_; ++w) {
            Entry &e = set[w];
            if (!e.valid()) {
                victim = &e;
                break;
            }
            if (e.*kAddr == block)
                panic("%s: allocating an entry that is already present",
                      what_);
            if (!victim || prefer(e, *victim))
                victim = &e;
        }

        if (victim->valid())
            evicted = *victim;
        *victim = Entry{};
        victim->*kAddr = block;
        return victim;
    }

    /** Drop the valid entry covering @p addr; returns it, if there was
     *  one. */
    std::optional<Entry>
    invalidate(Addr addr)
    {
        Entry *frame = find(addr);
        if (!frame)
            return std::nullopt;
        const Entry prior = *frame;
        *frame = Entry{};
        return prior;
    }

    /** LRU touch. */
    void touch(Entry &e, Tick now) { e.lastUse = now; }

    /** Visit every valid entry, in set then way order. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const Entry &e : entries_)
            if (e.valid())
                fn(e);
    }

    /**
     * Visit every valid entry inside the aligned range [base, base +
     * bytes) in ascending address order (the flush path's write-back
     * order depends on it). Indexes only the sets the range's blocks map
     * to, with no side effects.
     */
    template <typename Fn>
    void
    forEachInRange(Addr base, std::uint64_t bytes, Fn &&fn) const
    {
        const Addr first = align(base);
        const Addr blocks = (bytes + blockBytes() - 1) >> shift_;
        for (Addr i = 0; i < blocks; ++i)
            if (const Entry *e = find(first + (i << shift_)))
                fn(*e);
    }

    /** Count of valid entries (a full scan). */
    std::uint64_t
    countValid() const
    {
        std::uint64_t n = 0;
        forEachValid([&n](const Entry &) { ++n; });
        return n;
    }

    /** Invalidate everything (between simulation phases). */
    void reset() { std::fill(entries_.begin(), entries_.end(), Entry{}); }

    /**
     * Checkpoint layout: one u64 occupancy mask per set (bit w = way w is
     * valid), then every frame's entry through @p entry(e); an empty
     * frame is Entry{}. The owner states the geometry first. Only
     * simulated state is saved. On load, no mask may name a way at or
     * above ways(); an occupied frame must hold a valid entry whose
     * address is block-aligned, maps to the frame's set and is in no
     * other way of it; an empty frame must store address 0. A loaded
     * entry's valid() comes from @p entry, and an empty frame is reset to
     * Entry{}. @p ar is the checkpoint Archive (snapshot/serializer.hpp).
     */
    template <typename Ar, typename Fn>
    void
    transfer(Ar &ar, Fn &&entry)
    {
        const std::uint64_t beyond =
            ways_ < 64 ? ~std::uint64_t{0} << ways_ : 0;
        std::vector<std::uint64_t> occupied(sets_, 0);
        for (std::size_t set = 0; set < sets_; ++set) {
            std::uint64_t &occ = occupied[set];
            if (ar.saving())
                for (unsigned w = 0; w < ways_; ++w)
                    occ |= std::uint64_t{entries_[set * ways_ + w].valid()}
                           << w;
            ar.u64(occ);
            if (occ & beyond)
                ar.fail("occupancy mask %016llx names a way at or above %u",
                        static_cast<unsigned long long>(occ), ways_);
        }
        for (std::size_t set = 0; set < sets_; ++set) {
            Entry *frames = &entries_[set * ways_];
            for (unsigned w = 0; w < ways_; ++w) {
                Entry &e = frames[w];
                entry(e);
                const auto stored =
                    static_cast<unsigned long long>(e.*kAddr);
                if (!((occupied[set] >> w) & 1)) {
                    if (stored != 0)
                        ar.fail("empty way %u of set %zu stores address "
                                "%016llx",
                                w, set, stored);
                    e = Entry{};
                    continue;
                }
                if (e.*kAddr != align(e.*kAddr))
                    ar.fail("way %u of set %zu holds misaligned address "
                            "%016llx",
                            w, set, stored);
                if (setOf(e.*kAddr) != set)
                    ar.fail("way %u of set %zu holds address %016llx of "
                            "set %zu",
                            w, set, stored, setOf(e.*kAddr));
                if (!e.valid())
                    ar.fail("occupied way %u of set %zu holds an invalid "
                            "entry",
                            w, set);
                // The ways before w are loaded, so find() meets a copy
                // there before it meets e.
                if (const Entry *first = find(e.*kAddr); first != &e)
                    ar.fail("set %zu holds block %016llx in ways %td and "
                            "%u",
                            set, stored, first - frames, w);
            }
        }
    }

  private:
    /** The set of the block at aligned address @p block. */
    std::size_t
    setOf(Addr block) const
    {
        return static_cast<std::size_t>((block >> shift_) & (sets_ - 1));
    }

    const char *what_;
    std::uint64_t sets_;
    unsigned ways_;
    unsigned shift_;
    /** The frames, set-major, way-minor; each holds its own address. */
    std::vector<Entry> entries_;
};

} // namespace cgct
