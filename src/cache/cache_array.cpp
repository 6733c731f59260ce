#include "cache/cache_array.hpp"

#include <bit>
#include <cassert>

#include "common/log.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

CacheArray::CacheArray(std::uint64_t sets, unsigned ways,
                       unsigned line_bytes)
    : sets_(sets), ways_(ways), lineBytes_(line_bytes),
      lineShift_(log2i(line_bytes)), tags_(sets * ways, 0),
      occupied_(sets, 0), mruWay_(sets, 0), meta_(sets * ways)
{
    if (!isPowerOfTwo(sets))
        panic("CacheArray: sets must be a power of two (got %llu)",
              static_cast<unsigned long long>(sets));
    if (!isPowerOfTwo(line_bytes))
        panic("CacheArray: line size must be a power of two (got %u)",
              line_bytes);
    if (ways == 0)
        panic("CacheArray: associativity must be >= 1");
    if (ways > 64)
        panic("CacheArray: associativity above 64 exceeds the per-set "
              "occupancy mask");
}

std::uint64_t
CacheArray::setIndex(Addr addr) const
{
    return (addr >> lineShift_) & (sets_ - 1);
}

CacheLine *
CacheArray::find(Addr addr)
{
    const Addr tag = addr >> lineShift_;
    const std::size_t set = static_cast<std::size_t>(tag & (sets_ - 1));
    const std::uint64_t occ = occupied_[set];
    if (!occ)
        return nullptr;
    const std::size_t base = set * ways_;

    // MRU fast path: a repeated hit to the same line skips the scan.
    const unsigned hint = mruWay_[set];
    if (((occ >> hint) & 1) && tags_[base + hint] == tag) {
        CacheLine &line = meta_[base + hint];
        return line.valid() ? &line : nullptr;
    }

    std::uint64_t match = 0;
    for (unsigned w = 0; w < ways_; ++w)
        match |= static_cast<std::uint64_t>(tags_[base + w] == tag) << w;
    match &= occ;
    if (!match)
        return nullptr;
    const unsigned w = static_cast<unsigned>(std::countr_zero(match));
    CacheLine &line = meta_[base + w];
    if (!line.valid())
        return nullptr;
    mruWay_[set] = static_cast<std::uint8_t>(w);
    return &line;
}

const CacheLine *
CacheArray::find(Addr addr) const
{
    return const_cast<CacheArray *>(this)->find(addr);
}

CacheLine *
CacheArray::allocate(Addr addr, Eviction &evicted)
{
    evicted = Eviction{};
    const Addr tag = addr >> lineShift_;
    const std::size_t set = static_cast<std::size_t>(tag & (sets_ - 1));
    const std::size_t base = set * ways_;
    const std::uint64_t occ = occupied_[set];

    unsigned victim = ways_;
    for (unsigned w = 0; w < ways_; ++w) {
        if (!((occ >> w) & 1)) {
            victim = w;
            break;
        }
        const CacheLine &frame = meta_[base + w];
        if (tags_[base + w] == tag && frame.valid())
            panic("CacheArray: allocating a line that is already present");
        if (victim == ways_ ||
            frame.lastUse < meta_[base + victim].lastUse) {
            victim = w;
        }
    }

    CacheLine &frame = meta_[base + victim];
    if ((occ >> victim) & 1) {
        if (frame.valid()) {
            evicted.valid = true;
            evicted.lineAddr = frame.lineAddr;
            evicted.state = frame.state;
        }
    } else {
        occupied_[set] |= std::uint64_t{1} << victim;
        ++numValid_;
    }
    tags_[base + victim] = tag;
    mruWay_[set] = static_cast<std::uint8_t>(victim);
    frame = CacheLine{};
    frame.lineAddr = tag << lineShift_;
    return &frame;
}

LineState
CacheArray::invalidate(Addr addr)
{
    const Addr tag = addr >> lineShift_;
    const std::size_t set = static_cast<std::size_t>(tag & (sets_ - 1));
    const std::size_t base = set * ways_;
    std::uint64_t match = 0;
    for (unsigned w = 0; w < ways_; ++w)
        match |= static_cast<std::uint64_t>(tags_[base + w] == tag) << w;
    match &= occupied_[set];
    if (!match)
        return LineState::Invalid;
    const unsigned w = static_cast<unsigned>(std::countr_zero(match));
    CacheLine &frame = meta_[base + w];
    if (!frame.valid())
        return LineState::Invalid;
    const LineState prior = frame.state;
    frame = CacheLine{};
    occupied_[set] &= ~(std::uint64_t{1} << w);
    --numValid_;
    return prior;
}

void
CacheArray::forEachLineInRegion(Addr region_base, std::uint64_t region_bytes,
                                FunctionRef<void(CacheLine &)> fn)
{
    const Addr base_tag = region_base >> lineShift_;
    const std::uint64_t nlines =
        (region_bytes + lineBytes_ - 1) >> lineShift_;
    for (std::uint64_t i = 0; i < nlines; ++i) {
        const Addr tag = base_tag + i;
        const std::size_t set = static_cast<std::size_t>(tag & (sets_ - 1));
        const std::uint64_t occ = occupied_[set];
        if (!occ)
            continue;
        const std::size_t base = set * ways_;
        std::uint64_t match = 0;
        for (unsigned w = 0; w < ways_; ++w)
            match |=
                static_cast<std::uint64_t>(tags_[base + w] == tag) << w;
        match &= occ;
        if (!match)
            continue;
        CacheLine &line =
            meta_[base + static_cast<unsigned>(std::countr_zero(match))];
        if (line.valid())
            fn(line);
    }
}

void
CacheArray::forEachLineInRegion(
    Addr region_base, std::uint64_t region_bytes,
    FunctionRef<void(const CacheLine &)> fn) const
{
    const_cast<CacheArray *>(this)->forEachLineInRegion(
        region_base, region_bytes,
        [&fn](CacheLine &line) { fn(line); });
}

void
CacheArray::forEachValidLine(FunctionRef<void(const CacheLine &)> fn) const
{
    for (std::size_t set = 0; set < sets_; ++set) {
        std::uint64_t occ = occupied_[set];
        const std::size_t base = set * ways_;
        while (occ) {
            const unsigned w =
                static_cast<unsigned>(std::countr_zero(occ));
            occ &= occ - 1;
            const CacheLine &frame = meta_[base + w];
            if (frame.valid())
                fn(frame);
        }
    }
}

std::uint64_t
CacheArray::countValid() const
{
#ifndef NDEBUG
    // The incremental counter tracks tag occupancy; outside the
    // allocate()-to-state-assignment window they agree with the
    // state-based definition. Debug builds verify that.
    std::uint64_t scan = 0;
    for (const auto &frame : meta_)
        if (frame.valid())
            ++scan;
    assert(scan == numValid_ &&
           "CacheArray: incremental valid counter out of sync");
#endif
    return numValid_;
}

void
transferSetIndex(Archive &ar, std::vector<Addr> &tags,
                 std::vector<std::uint64_t> &occupied,
                 std::vector<std::uint8_t> &mru, unsigned ways)
{
    for (Addr &t : tags)
        ar.u64(t);
    const std::uint64_t beyond = ways < 64 ? ~std::uint64_t{0} << ways : 0;
    for (std::uint64_t &occ : occupied) {
        ar.u64(occ);
        if (occ & beyond)
            ar.fail("occupancy mask %016llx names a way at or above %u",
                    static_cast<unsigned long long>(occ), ways);
    }
    for (std::uint8_t &hint : mru)
        ar.index("MRU way hint", hint, ways);
}

void
CacheArray::transfer(Archive &ar)
{
    ar.expect("cache sets", sets_);
    ar.expect("cache ways", ways_);
    ar.expect("cache line bytes", lineBytes_);
    transferSetIndex(ar, tags_, occupied_, mruWay_, ways_);
    for (CacheLine &line : meta_) {
        ar.u64(line.lineAddr);
        ar.enumerant("cache line state", line.state, LineState::Modified);
        ar.u64(line.readyTick);
        ar.u64(line.lastUse);
    }
    ar.u64(numValid_);
}

void
CacheArray::reset()
{
    for (auto &frame : meta_)
        frame = CacheLine{};
    for (auto &occ : occupied_)
        occ = 0;
    for (auto &hint : mruWay_)
        hint = 0;
    numValid_ = 0;
}

} // namespace cgct
