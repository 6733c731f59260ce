#include "cache/mshr.hpp"

#include "common/log.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

MshrFile::MshrFile(unsigned capacity)
    : capacity_(capacity),
      table_(static_cast<std::size_t>(capacity) * 2)
{
    prefetch_.assign(capacity_, 0);
    freeSlots_.reserve(capacity_);
    for (std::uint32_t s = capacity_; s-- > 0;)
        freeSlots_.push_back(s);
}

std::uint32_t
MshrFile::allocate(Addr line_addr, bool prefetch)
{
    if (full())
        panic("MshrFile: allocate on a full file");
    if (table_.contains(line_addr))
        panic("MshrFile: duplicate allocation for line %llx",
              static_cast<unsigned long long>(line_addr));
    const std::uint32_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    table_.insert(line_addr) = slot;
    prefetch_[slot] = prefetch ? 1 : 0;
    ++inFlight_;
    return slot;
}

bool
MshrFile::release(Addr line_addr)
{
    std::uint32_t slot;
    if (!table_.take(line_addr, slot))
        return false;
    prefetch_[slot] = 0;
    freeSlots_.push_back(slot);
    --inFlight_;
    return true;
}

void
MshrFile::transfer(Archive &ar)
{
    if (ar.saving() && inFlight_ != 0)
        panic("MshrFile: serializing with %zu misses in flight — "
              "snapshots require a drained (quiescent) system",
              inFlight_);
    ar.expect("MSHR capacity", capacity_);
    if (!ar.saving())
        clear();
    // allocate() indexes prefetch_ (and the node its per-slot context)
    // by these ids, so each must be a distinct slot below capacity.
    std::vector<bool> listed(capacity_, false);
    for (std::uint32_t &slot : freeSlots_) {
        ar.index("MSHR free slot", slot, capacity_);
        if (listed[slot])
            ar.fail("MSHR free slot %u listed twice", slot);
        listed[slot] = true;
    }
}

void
MshrFile::clear()
{
    table_.clear();
    freeSlots_.clear();
    for (std::uint32_t s = capacity_; s-- > 0;)
        freeSlots_.push_back(s);
    prefetch_.assign(capacity_, 0);
    inFlight_ = 0;
}

} // namespace cgct
