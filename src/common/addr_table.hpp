/**
 * @file
 * Open-addressed hash table keyed by physical address, for the memory
 * system's hot-path bookkeeping (MSHR file, fill-waiter lists, pending
 * region acquisitions). Replaces std::unordered_map on paths that run
 * per simulated memory request.
 *
 * Design:
 *  - power-of-two slot count, linear probing from a multiplicative
 *    (Fibonacci) hash of the address;
 *  - tombstone-free deletion by backward shift, so probe sequences never
 *    accumulate dead slots and lookups stay O(cluster);
 *  - a parallel one-byte occupancy array, because every address value
 *    (including 0) is a legal key;
 *  - growth doubles the table when load reaches 7/8. Fixed-size users
 *    (the MSHR) size the table from config at construction and never
 *    rehash; open-ended users (waiter lists) reach a high-water mark
 *    once and are allocation-free from then on.
 *
 * Values must be movable. Pointers into the table are invalidated by
 * insert/erase (slots shift); look up again instead of caching them.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace cgct {

template <typename V>
class AddrTable
{
  public:
    /** @param min_slots lower bound on the slot count (rounded up). */
    explicit AddrTable(std::size_t min_slots = 16)
    {
        std::size_t n = 16;
        while (n < min_slots)
            n <<= 1;
        slots_.resize(n);
        used_.assign(n, 0);
        shift_ = 64u - log2i(n);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** The value stored under @p key, or nullptr. */
    V *
    find(Addr key)
    {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = home(key); used_[i]; i = (i + 1) & mask) {
            if (slots_[i].key == key)
                return &slots_[i].val;
        }
        return nullptr;
    }

    const V *
    find(Addr key) const
    {
        return const_cast<AddrTable *>(this)->find(key);
    }

    bool contains(Addr key) const { return find(key) != nullptr; }

    /** The value stored under @p key, default-inserted if absent. */
    V &
    findOrInsert(Addr key)
    {
        V *v = find(key);
        return v ? *v : insert(key);
    }

    /**
     * Insert @p key with a default-constructed value and return it.
     * @pre the key is absent (callers check; the MSHR panics first).
     */
    V &
    insert(Addr key)
    {
        if ((size_ + 1) * 8 > slots_.size() * 7)
            grow();
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = home(key);
        while (used_[i])
            i = (i + 1) & mask;
        used_[i] = 1;
        slots_[i].key = key;
        slots_[i].val = V{};
        ++size_;
        return slots_[i].val;
    }

    /**
     * Remove @p key. Backward-shift deletion: following slots whose home
     * position lies at or before the vacated slot move back, keeping all
     * probe chains contiguous without tombstones.
     * @return false if the key was absent.
     */
    bool
    erase(Addr key)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = home(key);
        while (true) {
            if (!used_[i])
                return false;
            if (slots_[i].key == key)
                break;
            i = (i + 1) & mask;
        }
        std::size_t j = i;
        while (true) {
            j = (j + 1) & mask;
            if (!used_[j])
                break;
            const std::size_t h = home(slots_[j].key);
            // Move j back into the hole at i unless j's probe chain
            // starts after i (cyclically): then the hole stays put.
            if (((j - h) & mask) >= ((j - i) & mask)) {
                slots_[i] = std::move(slots_[j]);
                i = j;
            }
        }
        used_[i] = 0;
        slots_[i] = Slot{};
        --size_;
        return true;
    }

    /** Move the value out into @p out and erase it. */
    bool
    take(Addr key, V &out)
    {
        if (V *v = find(key)) {
            out = std::move(*v);
            erase(key);
            return true;
        }
        return false;
    }

    /** Visit every entry as (key, value), in slot order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (used_[i])
                f(slots_[i].key, slots_[i].val);
        }
    }

    void
    clear()
    {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (used_[i])
                slots_[i] = Slot{};
            used_[i] = 0;
        }
        size_ = 0;
    }

  private:
    struct Slot {
        Addr key = 0;
        V val{};
    };

    std::size_t
    home(Addr key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> shift_);
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        std::vector<std::uint8_t> old_used = std::move(used_);
        slots_.assign(old.size() * 2, Slot{});
        used_.assign(old.size() * 2, 0);
        shift_ -= 1;
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = 0; i < old.size(); ++i) {
            if (!old_used[i])
                continue;
            std::size_t j = home(old[i].key);
            while (used_[j])
                j = (j + 1) & mask;
            used_[j] = 1;
            slots_[j] = std::move(old[i]);
        }
    }

    std::vector<Slot> slots_;
    std::vector<std::uint8_t> used_;
    std::size_t size_ = 0;
    unsigned shift_ = 60;
};

} // namespace cgct
