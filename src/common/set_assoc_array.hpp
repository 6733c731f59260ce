/**
 * @file
 * The one set-associative tag array. It stores the L1I/L1D/L2 caches
 * (cache/cache.hpp), the Region Coherence Array (core/rca.hpp) and
 * RegionScout's not-shared-region table (core/regionscout.hpp). Each user
 * supplies only its entry type and, when it allocates, its victim
 * preference; the array holds everything else.
 *
 * Each frame's address is stored once, in its entry's `kAddr` member;
 * lookups (the hot path of every simulated memory access) compare those
 * addresses directly, so a hit touches one set's entries and nothing
 * else. Beside the entries the array keeps:
 *  - a per-set occupancy bitmask (one bit per way), so empty sets cost
 *    one load and the branch-free compare loop needs no per-way valid
 *    branch;
 *  - a per-set MRU way hint, so repeated hits to the same block skip the
 *    scan entirely.
 * Entry pointers stay valid until the frame is invalidated or
 * reallocated.
 *
 * A cleared frame (invalidate(), reset()) keeps its last address: the
 * checkpoint layout records every frame's last tag, occupied or not, and
 * the occupancy bit alone says whether the frame holds its block.
 *
 * The occupancy bit tracks block residency and is set by allocate(). An
 * entry type with a `valid()` member (a coherence state) also has a
 * validity of its own, which the caller assigns right after allocate();
 * lookups confirm it on an address match, so a frame inside that window
 * reads as a miss. An entry without `valid()` is valid while its block
 * is resident. Every entry has a `Tick lastUse`, the LRU timestamp.
 */

#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"

namespace cgct {

/**
 * @tparam Entry the per-frame metadata
 * @tparam kAddr the Entry member that holds the frame's aligned address
 */
template <typename Entry, Addr Entry::*kAddr>
class SetAssocArray
{
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
     * @param ways        associativity (1..64; the occupancy mask is one
     *                    64-bit word per set)
     * @param block_bytes bytes one entry covers (power of two)
     */
    SetAssocArray(const char *what, std::uint64_t sets, unsigned ways,
                  std::uint64_t block_bytes)
        : what_(what), sets_(sets), ways_(ways), shift_(log2i(block_bytes)),
          occupied_(sets, 0), mruWay_(sets, 0),
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
            panic("%s: associativity above 64 exceeds the per-set "
                  "occupancy mask", what);
    }

    std::uint64_t numSets() const { return sets_; }
    unsigned ways() const { return ways_; }
    std::uint64_t blockBytes() const { return std::uint64_t{1} << shift_; }

    /** Align an address down to its block. */
    Addr align(Addr addr) const { return alignDown(addr, blockBytes()); }

    /** The valid entry covering @p addr, or nullptr. A hit becomes its
     *  set's MRU way. */
    Entry *
    find(Addr addr)
    {
        const Addr block = align(addr);
        const std::size_t set = setOf(block);
        const std::size_t base = set * ways_;

        // MRU fast path: a repeated hit to the same block skips the scan.
        const unsigned hint = mruWay_[set];
        Entry &e = entries_[base + hint];
        if (((occupied_[set] >> hint) & 1) && e.*kAddr == block)
            return valid(e) ? &e : nullptr;

        const unsigned w = scan(set, block);
        if (w == ways_)
            return nullptr;
        mruWay_[set] = static_cast<std::uint8_t>(w);
        return &entries_[base + w];
    }

    /** Like find(), but touches nothing: not even the MRU way hint. */
    const Entry *
    peek(Addr addr) const
    {
        const Addr block = align(addr);
        const std::size_t set = setOf(block);
        const unsigned w = scan(set, block);
        return w == ways_ ? nullptr : &entries_[set * ways_ + w];
    }

    /**
     * Claim a frame for @p addr's block: the first empty way of its set,
     * else the way @p prefer orders first (prefer(a, b): a is the better
     * victim; ties go to the lower way). The frame is reset to Entry{}
     * with its address set, and becomes the set's MRU way.
     * @param[out] evicted the valid entry the frame held, if any.
     */
    template <typename Prefer = Lru>
    Entry *
    allocate(Addr addr, std::optional<Entry> &evicted, Prefer prefer = {})
    {
        evicted.reset();
        const Addr block = align(addr);
        const std::size_t set = setOf(block);
        const std::size_t base = set * ways_;
        const std::uint64_t occ = occupied_[set];

        unsigned victim = ways_;
        for (unsigned w = 0; w < ways_; ++w) {
            if (!((occ >> w) & 1)) {
                victim = w;
                break;
            }
            const Entry &e = entries_[base + w];
            if (e.*kAddr == block && valid(e))
                panic("%s: allocating an entry that is already present",
                      what_);
            if (victim == ways_ || prefer(e, entries_[base + victim]))
                victim = w;
        }

        Entry &frame = entries_[base + victim];
        if ((occ >> victim) & 1) {
            if (valid(frame))
                evicted = frame;
        } else {
            occupied_[set] |= std::uint64_t{1} << victim;
            ++numValid_;
        }
        mruWay_[set] = static_cast<std::uint8_t>(victim);
        clear(frame);
        frame.*kAddr = block;
        return &frame;
    }

    /** Drop the valid entry covering @p addr; returns it, if there was
     *  one. */
    std::optional<Entry>
    invalidate(Addr addr)
    {
        const Addr block = align(addr);
        const std::size_t set = setOf(block);
        const unsigned w = scan(set, block);
        if (w == ways_)
            return std::nullopt;
        Entry &frame = entries_[set * ways_ + w];
        const Entry prior = frame;
        clear(frame);
        occupied_[set] &= ~(std::uint64_t{1} << w);
        --numValid_;
        return prior;
    }

    /** LRU touch. */
    void touch(Entry &e, Tick now) { e.lastUse = now; }

    /** Visit every valid entry, in set then way order. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (std::size_t set = 0; set < sets_; ++set) {
            for (std::uint64_t occ = occupied_[set]; occ; occ &= occ - 1) {
                const Entry &e =
                    entries_[set * ways_ +
                             static_cast<unsigned>(std::countr_zero(occ))];
                if (valid(e))
                    fn(e);
            }
        }
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
        for (Addr i = 0; i < blocks; ++i) {
            const Addr block = first + (i << shift_);
            const std::size_t set = setOf(block);
            const unsigned w = scan(set, block);
            if (w != ways_)
                fn(entries_[set * ways_ + w]);
        }
    }

    /** Count of valid entries (O(1): maintained incrementally). */
    std::uint64_t
    countValid() const
    {
#ifndef NDEBUG
        // The counter tracks tag occupancy; outside the allocate()-to-
        // state-assignment window every occupied frame is valid. Debug
        // builds verify that.
        std::uint64_t n = 0;
        forEachValid([&n](const Entry &) { ++n; });
        assert(n == numValid_ && "incremental valid counter out of sync");
#endif
        return numValid_;
    }

    /** Invalidate everything (between simulation phases). Each frame
     *  keeps its last address. */
    void
    reset()
    {
        for (Entry &e : entries_)
            clear(e);
        std::fill(occupied_.begin(), occupied_.end(), 0);
        std::fill(mruWay_.begin(), mruWay_.end(), 0);
        numValid_ = 0;
    }

    /**
     * Checkpoint layout: every frame's last tag (`address >> shift`; a
     * cleared frame keeps its own), occupancy masks, MRU way hints, every
     * entry through @p entry(e), which sees an empty frame's address as
     * 0, then the valid count. The owner states the geometry first. On load, a tag must survive `<< shift`,
     * no mask may name a way at or above ways(), every hint must be below
     * it (lookups shift the mask by the hint and index the set with it),
     * and an entry's stored address must be 0 for an empty frame and its
     * tag's address for an occupied one. @p ar is the checkpoint Archive
     * (snapshot/serializer.hpp).
     */
    template <typename Ar, typename Fn>
    void
    transfer(Ar &ar, Fn &&entry)
    {
        for (Entry &e : entries_) {
            Addr tag = e.*kAddr >> shift_;
            ar.u64(tag);
            if (tag > ~Addr{0} >> shift_)
                ar.fail("tag %016llx does not fit a %u-bit block number",
                        static_cast<unsigned long long>(tag), 64 - shift_);
            e.*kAddr = tag << shift_;
        }
        const std::uint64_t beyond =
            ways_ < 64 ? ~std::uint64_t{0} << ways_ : 0;
        for (std::uint64_t &occ : occupied_) {
            ar.u64(occ);
            if (occ & beyond)
                ar.fail("occupancy mask %016llx names a way at or above %u",
                        static_cast<unsigned long long>(occ), ways_);
        }
        for (std::uint8_t &hint : mruWay_)
            ar.index("MRU way hint", hint, ways_);
        for (std::size_t set = 0; set < sets_; ++set) {
            for (unsigned w = 0; w < ways_; ++w) {
                Entry &e = entries_[set * ways_ + w];
                const Addr last = e.*kAddr;
                const Addr stored = (occupied_[set] >> w) & 1 ? last : 0;
                e.*kAddr = stored;
                entry(e);
                if (e.*kAddr != stored)
                    ar.fail("way %u of set %zu stores address %016llx, "
                            "not %016llx",
                            w, set,
                            static_cast<unsigned long long>(e.*kAddr),
                            static_cast<unsigned long long>(stored));
                e.*kAddr = last;
            }
        }
        ar.u64(numValid_);
    }

  private:
    static bool
    valid(const Entry &e)
    {
        if constexpr (requires(const Entry &x) { x.valid(); })
            return e.valid();
        else
            return true;
    }

    /** Reset @p e to Entry{}, keeping its address. */
    static void
    clear(Entry &e)
    {
        const Addr last = e.*kAddr;
        e = Entry{};
        e.*kAddr = last;
    }

    /** The set of the block at aligned address @p block. */
    std::size_t
    setOf(Addr block) const
    {
        return static_cast<std::size_t>((block >> shift_) & (sets_ - 1));
    }

    /** The first occupied way of @p set holding @p block if its entry is
     *  valid, else ways_. */
    unsigned
    scan(std::size_t set, Addr block) const
    {
        const std::uint64_t occ = occupied_[set];
        if (!occ)
            return ways_;
        const std::size_t base = set * ways_;
        std::uint64_t match = 0;
        for (unsigned w = 0; w < ways_; ++w)
            match |= static_cast<std::uint64_t>(
                         entries_[base + w].*kAddr == block)
                     << w;
        match &= occ;
        if (!match)
            return ways_;
        const unsigned w = static_cast<unsigned>(std::countr_zero(match));
        return valid(entries_[base + w]) ? w : ways_;
    }

    const char *what_;
    std::uint64_t sets_;
    unsigned ways_;
    unsigned shift_;
    /** Per-set occupancy bitmask (bit w = way w holds its block). */
    std::vector<std::uint64_t> occupied_;
    /** Per-set most-recently-hit way hint. */
    std::vector<std::uint8_t> mruWay_;
    /** The frames, set-major, way-minor; each holds its own address. */
    std::vector<Entry> entries_;
    /** Occupied-frame count, maintained incrementally. */
    std::uint64_t numValid_ = 0;
};

} // namespace cgct
