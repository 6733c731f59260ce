/**
 * @file
 * Miss Status Handling Registers: track outstanding line fills, merge
 * requests to in-flight lines, and bound the number of outstanding misses
 * per processor (Table 3 resources).
 *
 * The file is a fixed-capacity open-addressed table (see AddrTable):
 * sized from config at construction, it performs no allocations after
 * init. Each outstanding miss occupies a stable slot index in
 * [0, capacity); allocate() returns the slot so the owner can keep
 * per-miss context (the completion chain) in a parallel array instead of
 * captured inside heap-allocated closures.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/addr_table.hpp"
#include "common/types.hpp"

namespace cgct {

class Archive;

/** Tracks outstanding misses for one cache. */
class MshrFile
{
  public:
    /** Returned by slotOf() when no fill for the line is outstanding. */
    static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

    explicit MshrFile(unsigned capacity);

    /** True if no more misses can be issued. */
    bool full() const { return inFlight_ >= capacity_; }

    /** Number of in-flight misses. */
    std::size_t inFlight() const { return inFlight_; }

    unsigned capacity() const { return capacity_; }

    /** True if a fill for @p line_addr is already outstanding. */
    bool contains(Addr line_addr) const { return table_.contains(line_addr); }

    /**
     * Register a new outstanding miss. @pre !full() && !contains()
     * @param prefetch whether the fill was initiated by the prefetcher.
     * @return the slot index, stable until release().
     */
    std::uint32_t allocate(Addr line_addr, bool prefetch);

    /** Complete the fill for @p line_addr. Returns false if unknown. */
    bool release(Addr line_addr);

    /** Slot of the outstanding fill for @p line_addr, or kNoSlot. */
    std::uint32_t
    slotOf(Addr line_addr) const
    {
        const std::uint32_t *slot = table_.find(line_addr);
        return slot ? *slot : kNoSlot;
    }

    /** Whether the outstanding fill for @p line_addr was a prefetch. */
    bool
    isPrefetch(Addr line_addr) const
    {
        const std::uint32_t *slot = table_.find(line_addr);
        return slot && prefetch_[*slot] != 0;
    }

    /**
     * Promote a prefetch fill to demand (a demand access merged with it);
     * used for prefetch-accuracy statistics.
     */
    void
    promoteToDemand(Addr line_addr)
    {
        const std::uint32_t *slot = table_.find(line_addr);
        if (slot)
            prefetch_[*slot] = 0;
    }

    void clear();

    /**
     * Checkpoint layout. Snapshots are taken at quiescence, so the file
     * must be empty when saved (panics otherwise). The free-slot stack
     * order is saved so post-restore slot assignment matches the
     * uninterrupted run exactly.
     */
    void transfer(Archive &ar);

  private:
    unsigned capacity_;
    /** line address -> slot; 2x capacity slots, so it never rehashes. */
    AddrTable<std::uint32_t> table_;
    /** Per-slot prefetch flag, indexed by slot. */
    std::vector<std::uint8_t> prefetch_;
    /** Free slot indices (LIFO). */
    std::vector<std::uint32_t> freeSlots_;
    std::size_t inFlight_ = 0;
};

} // namespace cgct
