/**
 * @file
 * Tests for the MSHR file: capacity, line lookup, and misuse panics.
 */

#include <gtest/gtest.h>

#include "cache/mshr.hpp"

namespace cgct {
namespace {

TEST(Mshr, AllocateAndRelease)
{
    MshrFile mshr(4);
    EXPECT_FALSE(mshr.full());
    mshr.allocate(0x100);
    EXPECT_TRUE(mshr.contains(0x100));
    EXPECT_EQ(mshr.inFlight(), 1u);
    EXPECT_TRUE(mshr.release(0x100));
    EXPECT_FALSE(mshr.contains(0x100));
    EXPECT_FALSE(mshr.release(0x100)); // Double release reports false.
}

TEST(Mshr, FullAtCapacity)
{
    MshrFile mshr(2);
    mshr.allocate(0x000);
    mshr.allocate(0x040);
    EXPECT_TRUE(mshr.full());
    mshr.release(0x000);
    EXPECT_FALSE(mshr.full());
}

TEST(Mshr, SlotOfFollowsAllocateAndRelease)
{
    // The owner keys its per-miss record by this slot, so it must name
    // the line's slot exactly while the fill is outstanding and no
    // longer once it is released; a freed slot is handed out again.
    MshrFile mshr(2);
    EXPECT_EQ(mshr.slotOf(0x100), MshrFile::kNoSlot);
    const std::uint32_t a = mshr.allocate(0x100);
    const std::uint32_t b = mshr.allocate(0x200);
    EXPECT_LT(a, 2u);
    EXPECT_LT(b, 2u);
    EXPECT_NE(a, b);
    EXPECT_EQ(mshr.slotOf(0x100), a);
    EXPECT_EQ(mshr.slotOf(0x200), b);
    EXPECT_TRUE(mshr.release(0x100));
    EXPECT_EQ(mshr.slotOf(0x100), MshrFile::kNoSlot);
    EXPECT_EQ(mshr.slotOf(0x200), b);
    EXPECT_EQ(mshr.allocate(0x300), a);
}

TEST(Mshr, Clear)
{
    MshrFile mshr(4);
    mshr.allocate(0x100);
    mshr.clear();
    EXPECT_EQ(mshr.inFlight(), 0u);
    EXPECT_FALSE(mshr.contains(0x100));
}

TEST(MshrDeath, OverflowPanics)
{
    MshrFile mshr(1);
    mshr.allocate(0x000);
    EXPECT_DEATH(mshr.allocate(0x040), "full");
}

TEST(MshrDeath, DuplicatePanics)
{
    MshrFile mshr(4);
    mshr.allocate(0x000);
    EXPECT_DEATH(mshr.allocate(0x000), "duplicate");
}

} // namespace
} // namespace cgct
