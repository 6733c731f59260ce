/**
 * @file
 * Randomized differential tests for the hot-path storage rewrite: the
 * structure-of-arrays CacheArray and RegionCoherenceArray, RegionScout's
 * not-shared-region table and the open-addressed MshrFile are driven
 * op-for-op against literal reference models — the array-of-structs scan
 * code the SoA versions replaced, and a map-based MSHR — over millions
 * of mixed operations and multiple seeds. Any divergence in lookup
 * results, victim selection, eviction reports, statistics, or iteration
 * order is a bug in the rewrite.
 *
 * Run under the sanitize preset as well (ctest label sanitize_hotpath):
 * the reference models double as lifetime oracles there.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "core/rca.hpp"
#include "core/regionscout.hpp"

namespace cgct {
namespace {

/** xorshift64* — the ops stream must be identical across runs. */
struct Rng {
    std::uint64_t s;

    std::uint64_t
    next()
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545F4914F6CDD1Dull;
    }
};

constexpr std::uint64_t kSeeds[] = {0x1111, 0x2222, 0x3333, 0x4444};

// ---------------------------------------------------------------------
// Reference CacheArray: the previous array-of-structs implementation,
// kept literal (linear scan per lookup, first-invalid-then-LRU victim).
// ---------------------------------------------------------------------

class RefCacheArray
{
  public:
    RefCacheArray(std::uint64_t sets, unsigned ways, unsigned line_bytes)
        : sets_(sets), ways_(ways), lineBytes_(line_bytes),
          lineShift_(log2i(line_bytes)), frames_(sets * ways)
    {
    }

    Addr lineAlign(Addr addr) const { return alignDown(addr, lineBytes_); }

    CacheLine *
    find(Addr addr)
    {
        const Addr line_addr = lineAlign(addr);
        CacheLine *base = &frames_[setIndex(addr) * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            if (base[w].valid() && base[w].lineAddr == line_addr)
                return &base[w];
        }
        return nullptr;
    }

    CacheLine *
    allocate(Addr addr, Eviction &evicted)
    {
        evicted = Eviction{};
        const Addr line_addr = lineAlign(addr);
        CacheLine *base = &frames_[setIndex(addr) * ways_];
        CacheLine *victim = nullptr;
        for (unsigned w = 0; w < ways_; ++w) {
            CacheLine &frame = base[w];
            if (!frame.valid()) {
                victim = &frame;
                break;
            }
            if (!victim || frame.lastUse < victim->lastUse)
                victim = &frame;
        }
        if (victim->valid()) {
            evicted.valid = true;
            evicted.lineAddr = victim->lineAddr;
            evicted.state = victim->state;
        }
        *victim = CacheLine{};
        victim->lineAddr = line_addr;
        return victim;
    }

    LineState
    invalidate(Addr addr)
    {
        CacheLine *line = find(addr);
        if (!line)
            return LineState::Invalid;
        const LineState prior = line->state;
        *line = CacheLine{};
        return prior;
    }

    template <typename Fn>
    void
    forEachLineInRegion(Addr region_base, std::uint64_t region_bytes,
                        Fn fn)
    {
        for (Addr a = region_base; a < region_base + region_bytes;
             a += lineBytes_) {
            if (CacheLine *line = find(a))
                fn(*line);
        }
    }

    std::uint64_t
    countValid() const
    {
        std::uint64_t n = 0;
        for (const auto &frame : frames_)
            if (frame.valid())
                ++n;
        return n;
    }

  private:
    std::uint64_t
    setIndex(Addr addr) const
    {
        return (addr >> lineShift_) & (sets_ - 1);
    }

    std::uint64_t sets_;
    unsigned ways_;
    unsigned lineBytes_;
    unsigned lineShift_;
    std::vector<CacheLine> frames_;
};

LineState
randomValidLineState(Rng &rng)
{
    static const LineState kStates[] = {
        LineState::Shared, LineState::Exclusive, LineState::Owned,
        LineState::Modified};
    return kStates[rng.next() % 4];
}

void
runCacheDifferential(std::uint64_t seed, std::uint64_t ops)
{
    constexpr std::uint64_t kSets = 64;
    constexpr unsigned kWays = 4;
    constexpr unsigned kLine = 64;
    // 4x the capacity, so the mix evicts constantly.
    constexpr std::uint64_t kLines = kSets * kWays * 4;

    CacheArray dut("cache", kSets, kWays, kLine);
    RefCacheArray ref(kSets, kWays, kLine);
    Rng rng{seed};

    for (std::uint64_t i = 0; i < ops; ++i) {
        const std::uint64_t r = rng.next();
        const Addr addr = (r % kLines) * kLine + (rng.next() % kLine);
        const unsigned op = static_cast<unsigned>(r >> 32) % 100;

        if (op < 70) {
            CacheLine *a = dut.find(addr);
            CacheLine *b = ref.find(addr);
            ASSERT_EQ(a != nullptr, b != nullptr)
                << "find presence diverged at op " << i;
            if (a) {
                ASSERT_EQ(a->lineAddr, b->lineAddr);
                ASSERT_EQ(a->state, b->state);
                ASSERT_EQ(a->readyTick, b->readyTick);
                ASSERT_EQ(a->lastUse, b->lastUse);
                dut.touch(*a, i);
                b->lastUse = i;
            } else if (op < 60) {
                std::optional<CacheLine> eva;
                Eviction evb;
                CacheLine *na = dut.allocate(addr, eva);
                CacheLine *nb = ref.allocate(addr, evb);
                ASSERT_EQ(eva.has_value(), evb.valid)
                    << "eviction diverged at op " << i;
                if (eva) {
                    ASSERT_EQ(eva->lineAddr, evb.lineAddr);
                    ASSERT_EQ(eva->state, evb.state);
                }
                ASSERT_EQ(na->lineAddr, nb->lineAddr);
                const LineState st = randomValidLineState(rng);
                na->state = nb->state = st;
                na->readyTick = nb->readyTick = i + 7;
                na->lastUse = nb->lastUse = i;
            }
        } else if (op < 85) {
            const std::optional<CacheLine> prior = dut.invalidate(addr);
            ASSERT_EQ(prior ? prior->state : LineState::Invalid,
                      ref.invalidate(addr))
                << "invalidate diverged at op " << i;
        } else {
            // Region iteration order and contents must match exactly
            // (the flush path's write-back order depends on it).
            const Addr region = alignDown(addr, 512);
            std::vector<std::pair<Addr, LineState>> got, want;
            dut.forEachInRange(region, 512, [&](const CacheLine &line) {
                got.emplace_back(line.lineAddr, line.state);
            });
            ref.forEachLineInRegion(region, 512,
                                    [&](CacheLine &line) {
                                        want.emplace_back(line.lineAddr,
                                                          line.state);
                                    });
            ASSERT_EQ(got, want) << "region scan diverged at op " << i;
        }

        if ((i & 1023) == 0) {
            ASSERT_EQ(dut.countValid(), ref.countValid())
                << "countValid diverged at op " << i;
        }
    }
    ASSERT_EQ(dut.countValid(), ref.countValid());
}

// ---------------------------------------------------------------------
// Reference RCA: the previous array-of-structs implementation with the
// favor-empty victim policy and the full Stats bookkeeping.
// ---------------------------------------------------------------------

class RefRca
{
  public:
    RefRca(std::uint64_t sets, unsigned ways, std::uint64_t region_bytes,
           bool favor_empty)
        : sets_(sets), ways_(ways), regionBytes_(region_bytes),
          regionShift_(log2i(region_bytes)), favorEmpty_(favor_empty),
          entries_(sets * ways)
    {
    }

    Addr
    regionAlign(Addr addr) const
    {
        return alignDown(addr, regionBytes_);
    }

    RegionEntry *
    find(Addr addr)
    {
        const Addr region = regionAlign(addr);
        RegionEntry *base = &entries_[setIndex(addr) * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            if (base[w].valid() && base[w].regionAddr == region) {
                ++stats_.hits;
                return &base[w];
            }
        }
        ++stats_.misses;
        return nullptr;
    }

    const RegionEntry *
    peekEntry(Addr addr) const
    {
        const Addr region = regionAlign(addr);
        const RegionEntry *base = &entries_[setIndex(addr) * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            if (base[w].valid() && base[w].regionAddr == region)
                return &base[w];
        }
        return nullptr;
    }

    RegionEntry *
    allocate(Addr addr, Tick now, RegionEviction &evicted)
    {
        evicted = RegionEviction{};
        const Addr region = regionAlign(addr);
        RegionEntry *base = &entries_[setIndex(addr) * ways_];

        RegionEntry *victim = nullptr;
        RegionEntry *empty_lru = nullptr;
        RegionEntry *any_lru = nullptr;
        for (unsigned w = 0; w < ways_; ++w) {
            RegionEntry &e = base[w];
            if (!e.valid()) {
                victim = &e;
                break;
            }
            if (e.lineCount == 0 &&
                (!empty_lru || e.lastUse < empty_lru->lastUse)) {
                empty_lru = &e;
            }
            if (!any_lru || e.lastUse < any_lru->lastUse)
                any_lru = &e;
        }
        if (!victim)
            victim = (favorEmpty_ && empty_lru) ? empty_lru : any_lru;

        if (victim->valid()) {
            evicted.valid = true;
            evicted.regionAddr = victim->regionAddr;
            evicted.state = victim->state;
            evicted.lineCount = victim->lineCount;
            evicted.memCtrl = victim->memCtrl;
            stats_.lineCountSum += victim->lineCount;
            ++stats_.lineCountSamples;
            switch (victim->lineCount) {
            case 0:
                ++stats_.evictedEmpty;
                break;
            case 1:
                ++stats_.evictedOneLine;
                break;
            case 2:
                ++stats_.evictedTwoLines;
                break;
            default:
                ++stats_.evictedMoreLines;
                break;
            }
        }

        *victim = RegionEntry{};
        victim->regionAddr = region;
        victim->lastUse = now;
        victim->allocTick = now;
        ++stats_.allocations;
        return victim;
    }

    void
    invalidate(Addr addr)
    {
        const Addr region = regionAlign(addr);
        RegionEntry *base = &entries_[setIndex(addr) * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            if (base[w].valid() && base[w].regionAddr == region) {
                base[w] = RegionEntry{};
                return;
            }
        }
    }

    std::uint64_t
    countValid() const
    {
        std::uint64_t n = 0;
        for (const auto &e : entries_)
            if (e.valid())
                ++n;
        return n;
    }

    const RegionCoherenceArray::Stats &stats() const { return stats_; }

  private:
    std::uint64_t
    setIndex(Addr addr) const
    {
        return (addr >> regionShift_) & (sets_ - 1);
    }

    std::uint64_t sets_;
    unsigned ways_;
    std::uint64_t regionBytes_;
    unsigned regionShift_;
    bool favorEmpty_;
    std::vector<RegionEntry> entries_;
    RegionCoherenceArray::Stats stats_;
};

RegionState
randomValidRegionState(Rng &rng)
{
    static const RegionState kStates[] = {
        RegionState::CleanInvalid, RegionState::CleanClean,
        RegionState::CleanDirty,   RegionState::DirtyInvalid,
        RegionState::DirtyClean,   RegionState::DirtyDirty};
    return kStates[rng.next() % 6];
}

void
expectStatsEqual(const RegionCoherenceArray::Stats &a,
                 const RegionCoherenceArray::Stats &b, std::uint64_t op)
{
    ASSERT_EQ(a.hits, b.hits) << "at op " << op;
    ASSERT_EQ(a.misses, b.misses) << "at op " << op;
    ASSERT_EQ(a.allocations, b.allocations) << "at op " << op;
    ASSERT_EQ(a.evictedEmpty, b.evictedEmpty) << "at op " << op;
    ASSERT_EQ(a.evictedOneLine, b.evictedOneLine) << "at op " << op;
    ASSERT_EQ(a.evictedTwoLines, b.evictedTwoLines) << "at op " << op;
    ASSERT_EQ(a.evictedMoreLines, b.evictedMoreLines) << "at op " << op;
    ASSERT_EQ(a.lineCountSum, b.lineCountSum) << "at op " << op;
    ASSERT_EQ(a.lineCountSamples, b.lineCountSamples) << "at op " << op;
}

void
runRcaDifferential(std::uint64_t seed, std::uint64_t ops, bool favor_empty)
{
    constexpr std::uint64_t kSets = 32;
    constexpr unsigned kWays = 4;
    constexpr std::uint64_t kRegion = 512;
    constexpr std::uint64_t kRegions = kSets * kWays * 4;

    RegionCoherenceArray dut(kSets, kWays, kRegion, favor_empty);
    RefRca ref(kSets, kWays, kRegion, favor_empty);
    Rng rng{seed};

    for (std::uint64_t i = 0; i < ops; ++i) {
        const std::uint64_t r = rng.next();
        const Addr addr = (r % kRegions) * kRegion + (rng.next() % kRegion);
        const unsigned op = static_cast<unsigned>(r >> 32) % 100;

        if (op < 70) {
            RegionEntry *a = dut.find(addr);
            RegionEntry *b = ref.find(addr);
            ASSERT_EQ(a != nullptr, b != nullptr)
                << "find presence diverged at op " << i;
            if (a) {
                ASSERT_EQ(a->regionAddr, b->regionAddr);
                ASSERT_EQ(a->state, b->state);
                ASSERT_EQ(a->lineCount, b->lineCount);
                ASSERT_EQ(a->memCtrl, b->memCtrl);
                ASSERT_EQ(a->lastUse, b->lastUse);
                ASSERT_EQ(a->allocTick, b->allocTick);
                dut.touch(*a, i);
                b->lastUse = i;
                // The controller adjusts lineCount as lines come and go;
                // wobble it so both victim classes appear.
                const std::uint32_t lc =
                    static_cast<std::uint32_t>(rng.next() % 5);
                a->lineCount = b->lineCount = lc;
            } else if (op < 55) {
                RegionEviction eva, evb;
                RegionEntry *na = dut.allocate(addr, i, eva);
                RegionEntry *nb = ref.allocate(addr, i, evb);
                ASSERT_EQ(eva.valid, evb.valid)
                    << "eviction diverged at op " << i;
                if (eva.valid) {
                    ASSERT_EQ(eva.regionAddr, evb.regionAddr);
                    ASSERT_EQ(eva.state, evb.state);
                    ASSERT_EQ(eva.lineCount, evb.lineCount);
                    ASSERT_EQ(eva.memCtrl, evb.memCtrl);
                }
                ASSERT_EQ(na->regionAddr, nb->regionAddr);
                na->state = nb->state = randomValidRegionState(rng);
                na->memCtrl = nb->memCtrl =
                    static_cast<MemCtrlId>(rng.next() % 4);
            }
        } else if (op < 85) {
            dut.invalidate(addr);
            ref.invalidate(addr);
        } else {
            const RegionEntry *a = dut.peek(addr);
            const RegionEntry *b = ref.peekEntry(addr);
            ASSERT_EQ(a != nullptr, b != nullptr)
                << "peek presence diverged at op " << i;
            if (a) {
                ASSERT_EQ(a->regionAddr, b->regionAddr);
                ASSERT_EQ(a->state, b->state);
            }
        }

        if ((i & 1023) == 0) {
            ASSERT_EQ(dut.countValid(), ref.countValid())
                << "countValid diverged at op " << i;
            expectStatsEqual(dut.stats(), ref.stats(), i);
        }
    }
    expectStatsEqual(dut.stats(), ref.stats(), ops);
}

// ---------------------------------------------------------------------
// Reference NSRT: RegionScout's not-shared-region table as it was first
// written — an array-of-structs LRU table with a valid flag per entry.
// ---------------------------------------------------------------------

class RefNsrt
{
  public:
    RefNsrt(std::uint64_t sets, unsigned ways, std::uint64_t region_bytes)
        : sets_(sets), ways_(ways), regionBytes_(region_bytes),
          nsrt_(sets * ways)
    {
    }

    struct Entry {
        bool valid = false;
        Addr regionAddr = 0;
        Tick lastUse = 0;
    };

    Entry *
    find(Addr region_addr)
    {
        const std::uint64_t set = (region_addr / regionBytes_) & (sets_ - 1);
        Entry *base = &nsrt_[set * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            if (base[w].valid && base[w].regionAddr == region_addr)
                return &base[w];
        }
        return nullptr;
    }

    void
    insert(Addr region_addr, Tick now)
    {
        if (find(region_addr))
            return;
        const std::uint64_t set = (region_addr / regionBytes_) & (sets_ - 1);
        Entry *base = &nsrt_[set * ways_];
        Entry *victim = &base[0];
        for (unsigned w = 0; w < ways_; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (base[w].lastUse < victim->lastUse)
                victim = &base[w];
        }
        victim->valid = true;
        victim->regionAddr = region_addr;
        victim->lastUse = now;
        ++stats.nsrtFills;
    }

    void
    invalidate(Addr region_addr)
    {
        if (Entry *e = find(region_addr)) {
            e->valid = false;
            ++stats.nsrtInvalidations;
        }
    }

    RegionScout::Stats stats;

  private:
    std::uint64_t sets_;
    unsigned ways_;
    std::uint64_t regionBytes_;
    std::vector<Entry> nsrt_;
};

void
runNsrtDifferential(std::uint64_t seed, std::uint64_t ops)
{
    RegionScoutParams params;
    params.regionBytes = 512;
    params.nsrtSets = 16;
    params.nsrtWays = 4;
    params.crhEntries = 64;
    // 4x the capacity, so the mix evicts constantly.
    const std::uint64_t regions = params.nsrtSets * params.nsrtWays * 4;

    RegionScout dut(0, params, 64);
    RefNsrt ref(params.nsrtSets, params.nsrtWays, params.regionBytes);
    SnoopResponse not_shared;
    SnoopResponse shared;
    shared.region.clean = true;
    Rng rng{seed};

    for (std::uint64_t i = 0; i < ops; ++i) {
        const std::uint64_t r = rng.next();
        const Addr region = (r % regions) * params.regionBytes;
        const Addr addr = region + (rng.next() % params.regionBytes);
        const unsigned op = static_cast<unsigned>(r >> 32) % 100;

        if (op < 40) {
            // route(): an NSRT hit refreshes LRU and routes around the bus.
            RefNsrt::Entry *e = ref.find(region);
            if (e) {
                e->lastUse = i;
                ++ref.stats.nsrtHits;
            }
            const RouteKind kind = dut.route(RequestType::Read, addr, i).kind;
            ASSERT_EQ(kind == RouteKind::Direct, e != nullptr)
                << "route diverged at op " << i;
        } else if (op < 70) {
            // A broadcast response fills on "not shared", else drops.
            const bool fill = (op & 1) != 0;
            if (fill)
                ref.insert(region, i);
            else
                ref.invalidate(region);
            dut.onBroadcastResponse(RequestType::Read, addr, true,
                                    fill ? not_shared : shared, i);
        } else if (op < 85) {
            ref.invalidate(region);
            dut.externalSnoop(addr, false, i);
        } else {
            ASSERT_EQ(dut.peekState(addr) == RegionState::DirtyInvalid,
                      ref.find(region) != nullptr)
                << "peek diverged at op " << i;
        }

        ASSERT_EQ(dut.stats().nsrtHits, ref.stats.nsrtHits) << "at op " << i;
        ASSERT_EQ(dut.stats().nsrtFills, ref.stats.nsrtFills)
            << "at op " << i;
        ASSERT_EQ(dut.stats().nsrtInvalidations, ref.stats.nsrtInvalidations)
            << "at op " << i;
    }
    // The mix must reach hits, fills and drops, not just misses.
    EXPECT_GT(ref.stats.nsrtHits, 0u);
    EXPECT_GT(ref.stats.nsrtFills, 0u);
    EXPECT_GT(ref.stats.nsrtInvalidations, 0u);
}

// ---------------------------------------------------------------------
// Reference MSHR: the map the open-addressed file replaced, plus slot
// bookkeeping checks (stability, uniqueness, prefetch flags).
// ---------------------------------------------------------------------

void
runMshrDifferential(std::uint64_t seed, std::uint64_t ops)
{
    constexpr unsigned kCapacity = 8;
    constexpr std::uint64_t kLines = 48;

    MshrFile dut(kCapacity);
    std::unordered_map<Addr, bool> ref; // line -> prefetch flag
    std::unordered_map<Addr, std::uint32_t> slots;
    std::vector<Addr> inflight;
    Rng rng{seed};

    for (std::uint64_t i = 0; i < ops; ++i) {
        const std::uint64_t r = rng.next();
        const Addr line = (r % kLines) * 64;
        const unsigned op = static_cast<unsigned>(r >> 32) % 100;

        ASSERT_EQ(dut.full(), ref.size() >= kCapacity) << "at op " << i;
        ASSERT_EQ(dut.inFlight(), ref.size()) << "at op " << i;
        ASSERT_EQ(dut.contains(line), ref.count(line) != 0)
            << "at op " << i;

        auto it = ref.find(line);
        if (it != ref.end()) {
            ASSERT_EQ(dut.isPrefetch(line), it->second) << "at op " << i;
            ASSERT_EQ(dut.slotOf(line), slots[line])
                << "slot moved for an in-flight line at op " << i;
            if (op < 30) {
                dut.promoteToDemand(line);
                it->second = false;
            } else if (op < 60) {
                ASSERT_TRUE(dut.release(line));
                ref.erase(line);
                slots.erase(line);
                inflight.erase(std::find(inflight.begin(),
                                         inflight.end(), line));
            }
        } else if (!dut.full() && op < 70) {
            const bool prefetch = (op & 1) != 0;
            const std::uint32_t slot = dut.allocate(line, prefetch);
            ASSERT_LT(slot, kCapacity);
            for (const auto &kv : slots)
                ASSERT_NE(kv.second, slot)
                    << "slot handed out twice at op " << i;
            ASSERT_EQ(dut.slotOf(line), slot);
            ref.emplace(line, prefetch);
            slots.emplace(line, slot);
            inflight.push_back(line);
        } else if (!inflight.empty()) {
            const Addr victim =
                inflight[static_cast<std::size_t>(rng.next()) %
                         inflight.size()];
            ASSERT_TRUE(dut.release(victim));
            ref.erase(victim);
            slots.erase(victim);
            inflight.erase(std::find(inflight.begin(), inflight.end(),
                                     victim));
        }
        ASSERT_FALSE(dut.release((kLines + 1 + i % 7) * 64))
            << "released an absent line at op " << i;
    }
}

// ---------------------------------------------------------------------

TEST(HotpathDifferential, CacheArrayMatchesReferenceModel)
{
    for (std::uint64_t seed : kSeeds)
        runCacheDifferential(seed, 400000);
}

TEST(HotpathDifferential, RcaMatchesReferenceModelFavorEmpty)
{
    for (std::uint64_t seed : kSeeds)
        runRcaDifferential(seed, 400000, /*favor_empty=*/true);
}

TEST(HotpathDifferential, RcaMatchesReferenceModelPureLru)
{
    for (std::uint64_t seed : kSeeds)
        runRcaDifferential(seed, 200000, /*favor_empty=*/false);
}

TEST(HotpathDifferential, NsrtMatchesReferenceModel)
{
    for (std::uint64_t seed : kSeeds)
        runNsrtDifferential(seed, 200000);
}

TEST(HotpathDifferential, MshrMatchesMapModel)
{
    for (std::uint64_t seed : kSeeds)
        runMshrDifferential(seed, 300000);
}

} // namespace
} // namespace cgct
