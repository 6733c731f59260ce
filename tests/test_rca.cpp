/**
 * @file
 * Tests for the Region Coherence Array: lookup/allocation, the
 * empty-region-favoring replacement policy of Section 3.2, line counts,
 * and eviction statistics.
 */

#include <gtest/gtest.h>

#include "core/rca.hpp"

namespace cgct {
namespace {

TEST(Rca, FindAndAllocate)
{
    RegionCoherenceArray rca(16, 2, 512, true);
    EXPECT_EQ(rca.find(0x1000), nullptr);
    RegionEviction ev;
    RegionEntry *e = rca.allocate(0x1234, 1, ev);
    e->state = RegionState::CleanInvalid;
    EXPECT_FALSE(ev.valid);
    EXPECT_EQ(e->regionAddr, 0x1200u); // 512-byte aligned.
    EXPECT_EQ(rca.find(0x1200), e);
    EXPECT_EQ(rca.find(0x13FF), e);
    EXPECT_EQ(rca.find(0x1400), nullptr);
}

TEST(Rca, RegionAlign)
{
    RegionCoherenceArray rca(16, 2, 256, true);
    EXPECT_EQ(rca.align(0x12345), 0x12300u);
}

TEST(Rca, ReplacementFavorsEmptyRegions)
{
    RegionCoherenceArray rca(1, 2, 512, /*favor_empty=*/true);
    RegionEviction ev;
    RegionEntry *a = rca.allocate(0x0000, 1, ev);
    a->state = RegionState::DirtyInvalid;
    a->lineCount = 4; // Has cached lines.
    RegionEntry *b = rca.allocate(0x1000, 2, ev);
    b->state = RegionState::CleanInvalid;
    b->lineCount = 0; // Empty.
    // b is more recently used, but empty: it is still the victim.
    RegionEntry *c = rca.allocate(0x2000, 3, ev);
    c->state = RegionState::CleanInvalid;
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.regionAddr, 0x1000u);
    EXPECT_EQ(ev.lineCount, 0u);
    EXPECT_NE(rca.find(0x0000), nullptr);
}

TEST(Rca, ReplacementFallsBackToLru)
{
    RegionCoherenceArray rca(1, 2, 512, true);
    RegionEviction ev;
    RegionEntry *a = rca.allocate(0x0000, 10, ev);
    a->state = RegionState::DirtyInvalid;
    a->lineCount = 2;
    RegionEntry *b = rca.allocate(0x1000, 20, ev);
    b->state = RegionState::DirtyInvalid;
    b->lineCount = 3;
    // No empty region: evict the LRU (a).
    rca.allocate(0x2000, 30, ev)->state = RegionState::CleanInvalid;
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.regionAddr, 0x0000u);
    EXPECT_EQ(ev.lineCount, 2u);
}

TEST(Rca, PlainLruWhenPolicyDisabled)
{
    RegionCoherenceArray rca(1, 2, 512, /*favor_empty=*/false);
    RegionEviction ev;
    RegionEntry *a = rca.allocate(0x0000, 10, ev);
    a->state = RegionState::DirtyInvalid;
    a->lineCount = 4;
    RegionEntry *b = rca.allocate(0x1000, 20, ev);
    b->state = RegionState::CleanInvalid;
    b->lineCount = 0;
    // LRU (a) evicted even though b is empty.
    rca.allocate(0x2000, 30, ev)->state = RegionState::CleanInvalid;
    EXPECT_EQ(ev.regionAddr, 0x0000u);
}

TEST(Rca, EvictionStatisticsBuckets)
{
    RegionCoherenceArray rca(1, 1, 512, true);
    RegionEviction ev;
    const std::uint32_t counts[] = {0, 1, 2, 5};
    Addr addr = 0;
    // Prime the single frame then displace it once per count value.
    RegionEntry *e = rca.allocate(addr, 0, ev);
    e->state = RegionState::CleanInvalid;
    for (std::uint32_t c : counts) {
        e->lineCount = c;
        addr += 0x1000;
        e = rca.allocate(addr, 1, ev);
        e->state = RegionState::CleanInvalid;
        EXPECT_TRUE(ev.valid);
    }
    EXPECT_EQ(rca.stats().evictedEmpty, 1u);
    EXPECT_EQ(rca.stats().evictedOneLine, 1u);
    EXPECT_EQ(rca.stats().evictedTwoLines, 1u);
    EXPECT_EQ(rca.stats().evictedMoreLines, 1u);
    EXPECT_EQ(rca.stats().lineCountSamples, 4u);
    EXPECT_EQ(rca.stats().lineCountSum, 8u);
}

TEST(Rca, InvalidateRemovesEntry)
{
    RegionCoherenceArray rca(16, 2, 512, true);
    RegionEviction ev;
    rca.allocate(0x1000, 1, ev)->state = RegionState::DirtyInvalid;
    rca.invalidate(0x1000);
    EXPECT_EQ(rca.find(0x1000), nullptr);
    rca.invalidate(0x1000); // No-op on a miss.
}

TEST(Rca, CountValidAndReset)
{
    RegionCoherenceArray rca(16, 2, 512, true);
    RegionEviction ev;
    rca.allocate(0x0000, 1, ev)->state = RegionState::CleanInvalid;
    rca.allocate(0x4000, 1, ev)->state = RegionState::DirtyDirty;
    EXPECT_EQ(rca.countValid(), 2u);
    rca.reset();
    EXPECT_EQ(rca.countValid(), 0u);
}

TEST(Rca, HitMissStats)
{
    RegionCoherenceArray rca(16, 2, 512, true);
    RegionEviction ev;
    rca.allocate(0x1000, 1, ev)->state = RegionState::CleanInvalid;
    rca.find(0x1000);
    rca.find(0x9000);
    EXPECT_GE(rca.stats().hits, 1u);
    EXPECT_GE(rca.stats().misses, 1u);
}

TEST(RcaDeath, DoubleAllocatePanics)
{
    RegionCoherenceArray rca(16, 2, 512, true);
    RegionEviction ev;
    rca.allocate(0x1000, 1, ev)->state = RegionState::CleanInvalid;
    EXPECT_DEATH(rca.allocate(0x1000, 2, ev), "already present");
}

TEST(RcaDeath, BadGeometryPanics)
{
    EXPECT_DEATH(RegionCoherenceArray(15, 2, 512, true), "power of two");
    EXPECT_DEATH(RegionCoherenceArray(16, 2, 700, true), "power of two");
    EXPECT_DEATH(RegionCoherenceArray(16, 0, 512, true), "associativity");
}

/** Region-size sweep: alignment and indexing hold for every paper size. */
class RcaRegionSizeSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RcaRegionSizeSweep, AlignmentAndResidency)
{
    const std::uint64_t region_bytes = GetParam();
    RegionCoherenceArray rca(64, 2, region_bytes, true);
    RegionEviction ev;
    for (Addr base = 0; base < 64 * region_bytes;
         base += region_bytes * 2) {
        RegionEntry *e = rca.allocate(base + region_bytes / 2, 1, ev);
        e->state = RegionState::CleanInvalid;
        ASSERT_EQ(e->regionAddr, base);
        // Every line in the region maps to the same entry.
        for (Addr off = 0; off < region_bytes; off += 64)
            ASSERT_EQ(rca.find(base + off), e);
    }
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, RcaRegionSizeSweep,
                         ::testing::Values(256, 512, 1024));

} // namespace
} // namespace cgct
