/**
 * @file
 * Tests for the set-associative array (common/set_assoc_array.hpp) as
 * the cache line array: lookup, allocation, LRU victim selection,
 * invalidation, region iteration, and a side-effect-free peek; plus an
 * entry type with no state of its own, as RegionScout's NSRT uses.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "cache/cache.hpp"
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

void
loadBytes(CacheArray &arr, const std::vector<std::uint8_t> &bytes)
{
    SectionReader r(bytes.data(), bytes.data() + bytes.size(), "bytes");
    Archive ar(r);
    transferLines(arr, ar);
    ASSERT_TRUE(r.atEnd());
}

std::uint64_t
u64At(const std::vector<std::uint8_t> &bytes, std::size_t at)
{
    std::uint64_t v;
    std::memcpy(&v, &bytes[at], sizeof v);
    return v;
}

TEST(CacheArray, PeekLeavesTheMruHintAlone)
{
    CacheArray arr("cache", 1, 2, 64);
    std::optional<CacheLine> ev;
    arr.allocate(0x0000, ev)->state = LineState::Shared;
    arr.allocate(0x1000, ev)->state = LineState::Shared; // The MRU way.
    const std::vector<std::uint8_t> before = saveBytes(arr);
    ASSERT_NE(arr.peek(0x0000), nullptr);
    EXPECT_EQ(saveBytes(arr), before);
    ASSERT_NE(arr.find(0x0000), nullptr);
    EXPECT_NE(saveBytes(arr), before) << "a find hit becomes the MRU way";
}

TEST(SetAssocArray, InvalidatedFrameKeepsItsTagInTheCheckpoint)
{
    // One set, two ways of 64 B. Layout: 2 tags, 1 occupancy mask, 1 MRU
    // hint, then per frame its address u64 and state byte, then the
    // valid count.
    constexpr std::size_t kMask = 16;
    constexpr std::size_t kFrame0 = kMask + 8 + 1;
    CacheArray arr("cache", 1, 2, 64);
    std::optional<CacheLine> ev;
    arr.allocate(0x1040, ev)->state = LineState::Shared;
    arr.allocate(0x2000, ev)->state = LineState::Modified;
    ASSERT_TRUE(arr.invalidate(0x1040));

    const auto round_trip = [](CacheArray &from) {
        const std::vector<std::uint8_t> bytes = saveBytes(from);
        CacheArray to("cache", 1, 2, 64);
        loadBytes(to, bytes);
        EXPECT_EQ(saveBytes(to), bytes);
        for (Addr a : {0x1040ULL, 0x2000ULL, 0x3000ULL}) {
            const CacheLine *x = from.peek(a);
            const CacheLine *y = to.peek(a);
            EXPECT_EQ(x == nullptr, y == nullptr) << std::hex << a;
            if (x && y) {
                EXPECT_EQ(x->state, y->state);
            }
        }
        EXPECT_EQ(to.countValid(), from.countValid());
        return bytes;
    };

    // The invalidated frame keeps its tag; its entry stores address 0.
    std::vector<std::uint8_t> bytes = round_trip(arr);
    EXPECT_EQ(u64At(bytes, 0), 0x1040u >> 6);
    EXPECT_EQ(u64At(bytes, 8), 0x2000u >> 6);
    EXPECT_EQ(u64At(bytes, kMask), 0b10u);
    EXPECT_EQ(u64At(bytes, kFrame0), 0u);
    EXPECT_EQ(u64At(bytes, kFrame0 + 9), 0x2000u);

    // reset() clears both frames; each still records its last tag.
    arr.reset();
    bytes = round_trip(arr);
    EXPECT_EQ(u64At(bytes, 0), 0x1040u >> 6);
    EXPECT_EQ(u64At(bytes, 8), 0x2000u >> 6);
    EXPECT_EQ(u64At(bytes, kMask), 0u);
    EXPECT_EQ(u64At(bytes, kFrame0), 0u);
    EXPECT_EQ(u64At(bytes, kFrame0 + 9), 0u);
    EXPECT_EQ(arr.find(0x2000), nullptr);
}

/** An entry with no state: valid exactly while its tag is resident. */
struct Tagged {
    Addr addr = 0;
    Tick lastUse = 0;
};

TEST(SetAssocArray, StatelessEntryIsValidWhileResident)
{
    SetAssocArray<Tagged, &Tagged::addr> arr("table", 1, 2, 512);
    std::optional<Tagged> ev;
    arr.allocate(0x1234, ev)->lastUse = 5;
    EXPECT_FALSE(ev);
    ASSERT_NE(arr.peek(0x1200), nullptr);
    EXPECT_EQ(arr.peek(0x1200)->addr, 0x1200u);
    arr.allocate(0x2000, ev)->lastUse = 3;
    // The set is full: the LRU entry goes.
    arr.allocate(0x4000, ev);
    ASSERT_TRUE(ev);
    EXPECT_EQ(ev->addr, 0x2000u);
    EXPECT_TRUE(arr.invalidate(0x1200));
    EXPECT_FALSE(arr.invalidate(0x1200));
    EXPECT_EQ(arr.countValid(), 1u);
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
