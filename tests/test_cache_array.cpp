/**
 * @file
 * Tests for the set-associative array (common/set_assoc_array.hpp) as
 * the cache line array: lookup, allocation, LRU victim selection,
 * invalidation, region iteration, and lookups that leave the checkpoint
 * bytes alone; plus an entry type with no state of its own, as
 * RegionScout's NSRT uses.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "core/rca.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {
namespace {

TEST(CacheArray, FindMissesWhenEmpty)
{
    CacheArray arr("cache", 16, 2, 64);
    EXPECT_EQ(arr.find(0x1000), nullptr);
}

TEST(CacheArray, AllocateThenFind)
{
    CacheArray arr("cache", 16, 2, 64);
    std::optional<CacheLine> ev;
    CacheLine *line = arr.allocate(0x1234, ev);
    line->state = LineState::Shared;
    EXPECT_FALSE(ev);
    EXPECT_EQ(line->lineAddr, 0x1200u);
    // Any address within the line finds it.
    EXPECT_EQ(arr.find(0x1200), line);
    EXPECT_EQ(arr.find(0x123F), line);
    EXPECT_EQ(arr.find(0x1240), nullptr);
}

TEST(CacheArray, LruEviction)
{
    CacheArray arr("cache", 1, 2, 64); // One set, two ways.
    std::optional<CacheLine> ev;
    CacheLine *a = arr.allocate(0x0000, ev);
    a->state = LineState::Shared;
    a->lastUse = 10;
    CacheLine *b = arr.allocate(0x1000, ev);
    b->state = LineState::Modified;
    b->lastUse = 20;
    // Set is full; the LRU (a) is evicted.
    CacheLine *c = arr.allocate(0x2000, ev);
    c->state = LineState::Exclusive;
    ASSERT_TRUE(ev);
    EXPECT_EQ(ev->lineAddr, 0x0000u);
    EXPECT_EQ(ev->state, LineState::Shared);
    EXPECT_EQ(arr.find(0x0000), nullptr);
    EXPECT_NE(arr.find(0x1000), nullptr);
    EXPECT_NE(arr.find(0x2000), nullptr);
}

TEST(CacheArray, PrefersInvalidFrames)
{
    CacheArray arr("cache", 1, 4, 64);
    std::optional<CacheLine> ev;
    arr.allocate(0x0000, ev)->state = LineState::Shared;
    arr.allocate(0x1000, ev)->state = LineState::Shared;
    // Two frames remain invalid; no eviction happens.
    arr.allocate(0x2000, ev)->state = LineState::Shared;
    EXPECT_FALSE(ev);
}

TEST(CacheArray, InvalidateReturnsPriorState)
{
    CacheArray arr("cache", 16, 2, 64);
    std::optional<CacheLine> ev;
    arr.allocate(0x40, ev)->state = LineState::Owned;
    EXPECT_EQ(arr.invalidate(0x40)->state, LineState::Owned);
    EXPECT_EQ(arr.find(0x40), nullptr);
    EXPECT_FALSE(arr.invalidate(0x40));
}

TEST(CacheArray, RegionIteration)
{
    CacheArray arr("cache", 64, 4, 64);
    std::optional<CacheLine> ev;
    // Three lines inside the 512-byte region at 0x1000, one outside.
    for (Addr a : {0x1000ULL, 0x1040ULL, 0x11C0ULL, 0x1200ULL})
        arr.allocate(a, ev)->state = LineState::Shared;
    std::vector<Addr> found;
    arr.forEachInRange(0x1000, 512, [&found](const CacheLine &line) {
        found.push_back(line.lineAddr);
    });
    EXPECT_EQ(found, (std::vector<Addr>{0x1000, 0x1040, 0x11C0}));
}

TEST(CacheArray, CountValidAndReset)
{
    CacheArray arr("cache", 16, 2, 64);
    std::optional<CacheLine> ev;
    arr.allocate(0x0000, ev)->state = LineState::Shared;
    arr.allocate(0x4000, ev)->state = LineState::Modified;
    EXPECT_EQ(arr.countValid(), 2u);
    arr.reset();
    EXPECT_EQ(arr.countValid(), 0u);
}

TEST(CacheArray, SetIndexingSeparatesSets)
{
    CacheArray arr("cache", 16, 1, 64); // Direct-mapped, 16 sets.
    std::optional<CacheLine> ev;
    // These two addresses map to different sets: no conflict.
    arr.allocate(0x0000, ev)->state = LineState::Shared;
    arr.allocate(0x0040, ev)->state = LineState::Shared;
    EXPECT_FALSE(ev);
    // Same set (16 sets * 64 B = 1 KB stride): conflict.
    arr.allocate(0x0400, ev)->state = LineState::Shared;
    ASSERT_TRUE(ev);
    EXPECT_EQ(ev->lineAddr, 0x0000u);
}

/** A CacheArray's checkpoint layout, each entry as its address and
 *  state. */
void
transferLines(CacheArray &arr, Archive &ar)
{
    arr.transfer(ar, [&ar](CacheLine &line) {
        ar.u64(line.lineAddr);
        ar.enumerant("cache line state", line.state, LineState::Modified);
    });
}

std::vector<std::uint8_t>
saveBytes(CacheArray &arr)
{
    Serializer s;
    Archive ar(s);
    transferLines(arr, ar);
    return s.buffer();
}

/** The RCA's tag array alone, each entry as its address and state: the
 *  RCA's own statistics stay out of these bytes. */
std::vector<std::uint8_t>
saveBytes(SetAssocArray<RegionEntry, &RegionEntry::regionAddr> &arr)
{
    Serializer s;
    Archive ar(s);
    arr.transfer(ar, [&ar](RegionEntry &e) {
        ar.u64(e.regionAddr);
        ar.enumerant("region state", e.state, RegionState::DirtyDirty);
    });
    return s.buffer();
}

void
loadBytes(CacheArray &arr, const std::vector<std::uint8_t> &bytes)
{
    SectionReader r(bytes.data(), bytes.data() + bytes.size(), "bytes");
    Archive ar(r);
    transferLines(arr, ar);
    ASSERT_TRUE(r.atEnd());
}

TEST(SetAssocArray, LookupsLeaveTheCheckpointAlone)
{
    // One set, two ways, looked up through the const and non-const
    // find() of both arrays: hits on either way, and misses.
    CacheArray arr("cache", 1, 2, 64);
    std::optional<CacheLine> ev;
    arr.allocate(0x0000, ev)->state = LineState::Shared;
    arr.allocate(0x1000, ev)->state = LineState::Modified;
    RegionCoherenceArray rca(1, 2, 512, true);
    RegionEviction rev;
    rca.allocate(0x0000, 1, rev)->state = RegionState::CleanInvalid;
    rca.allocate(0x2000, 2, rev)->state = RegionState::DirtyDirty;

    const std::vector<std::uint8_t> lines = saveBytes(arr);
    const std::vector<std::uint8_t> regions = saveBytes(rca);
    for (Addr a : {0x0000ULL, 0x1000ULL, 0x2000ULL, 0x4000ULL}) {
        arr.find(a);
        std::as_const(arr).find(a);
        rca.find(a);
        std::as_const(rca).find(a);
        EXPECT_EQ(saveBytes(arr), lines) << std::hex << a;
        EXPECT_EQ(saveBytes(rca), regions) << std::hex << a;
    }
    // Only the non-const RCA lookups count: two hits, two misses.
    EXPECT_EQ(rca.stats().hits, 2u);
    EXPECT_EQ(rca.stats().misses, 2u);

    // Layout: the occupancy mask u64, then per frame its address u64 and
    // state byte. An invalidated frame saves as Entry{}: nine zero bytes.
    CacheArray fresh("cache", 1, 2, 64);
    const std::vector<std::uint8_t> empty = saveBytes(fresh);
    ASSERT_TRUE(arr.invalidate(0x0000));
    std::vector<std::uint8_t> bytes = saveBytes(arr);
    EXPECT_EQ(bytes[0], 0b10u);
    EXPECT_TRUE(std::equal(bytes.begin() + 8, bytes.begin() + 17,
                           empty.begin() + 8));
    CacheArray loaded("cache", 1, 2, 64);
    loadBytes(loaded, bytes);
    EXPECT_EQ(saveBytes(loaded), bytes);
    EXPECT_EQ(loaded.countValid(), 1u);

    // reset() clears every frame to Entry{}.
    arr.reset();
    EXPECT_EQ(saveBytes(arr), empty);
}

TEST(CacheArrayDeath, DoubleAllocatePanics)
{
    CacheArray arr("cache", 16, 2, 64);
    std::optional<CacheLine> ev;
    arr.allocate(0x80, ev)->state = LineState::Shared;
    EXPECT_DEATH(arr.allocate(0x80, ev), "already present");
}

TEST(CacheArrayDeath, BadGeometryPanics)
{
    EXPECT_DEATH(CacheArray("cache", 15, 2, 64), "power of two");
    EXPECT_DEATH(CacheArray("cache", 16, 2, 48), "power of two");
    EXPECT_DEATH(CacheArray("cache", 16, 0, 64), "associativity");
}

/** Property sweep: fill an array well past capacity; structure holds. */
class CacheArrayFillSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CacheArrayFillSweep, NeverExceedsCapacityAndFindsResidents)
{
    const auto [sets, ways] = GetParam();
    CacheArray arr("cache", sets, ways, 64);
    std::optional<CacheLine> ev;
    const std::uint64_t capacity =
        static_cast<std::uint64_t>(sets) * static_cast<std::uint64_t>(ways);
    for (Addr a = 0; a < capacity * 4 * 64; a += 64) {
        CacheLine *line = arr.allocate(a, ev);
        line->state = LineState::Shared;
        line->lastUse = a;
        ASSERT_EQ(arr.find(a), line);
    }
    EXPECT_LE(arr.countValid(), capacity);
    EXPECT_EQ(arr.countValid(), capacity); // Fully warmed.
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheArrayFillSweep,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(4, 2),
                      std::make_tuple(16, 4), std::make_tuple(64, 2),
                      std::make_tuple(8, 8)));

} // namespace
} // namespace cgct
