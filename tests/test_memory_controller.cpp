/**
 * @file
 * Tests for the DRAM timing model: Figure 6's overlapped vs direct access
 * latencies and initiation-slot queueing.
 */

#include <gtest/gtest.h>

#include "event/event_queue.hpp"
#include "mem/memory_controller.hpp"

namespace cgct {
namespace {

using Ic = InterconnectParams;

class MemoryControllerTest : public ::testing::Test
{
  protected:
    EventQueue eq;
};

TEST_F(MemoryControllerTest, DirectAccessFullDramLatency)
{
    MemoryController mc(0, eq);
    // Figure 6: a direct request pays the full 16-system-cycle DRAM time.
    EXPECT_EQ(mc.accessDirect(1000), 1000 + systemCycles(16));
    EXPECT_EQ(mc.stats().directReads, 1u);
}

TEST_F(MemoryControllerTest, OverlappedAccessResidualLatency)
{
    MemoryController mc(0, eq);
    // The DRAM row access ran in parallel with the snoop; only 7 system
    // cycles remain once the snoop resolves.
    EXPECT_EQ(mc.accessOverlapped(2000), 2000 + systemCycles(7));
    EXPECT_EQ(mc.stats().overlappedReads, 1u);
}

TEST_F(MemoryControllerTest, DirectBeatsSnoopPathForOwnMemory)
{
    // The paper's headline latency win (Figure 6): ~18 vs 25 system
    // cycles for co-located memory.
    MemoryController mc_base(0, eq);
    MemoryController mc_direct(1, eq);
    const Tick issue = 0;
    const Tick snoop_done = issue + Ic::snoopLatency;
    const Tick baseline = mc_base.accessOverlapped(snoop_done) +
                          Ic::xferOwnChip;
    const Tick direct =
        mc_direct.accessDirect(issue + Ic::directOwnChip) +
        Ic::xferOwnChip;
    EXPECT_LT(direct, baseline);
    EXPECT_EQ(baseline, 250u); // 25 system cycles.
    EXPECT_EQ(direct, 181u);   // ~18 system cycles.
}

TEST_F(MemoryControllerTest, InitiationSlotsSerialize)
{
    MemoryController mc(0, eq);
    const Tick first = mc.accessDirect(100);
    const Tick second = mc.accessDirect(100);
    const Tick third = mc.accessDirect(100);
    // One initiation per system cycle.
    EXPECT_EQ(second - first, Ic::memCtrlSlot);
    EXPECT_EQ(third - second, Ic::memCtrlSlot);
    EXPECT_EQ(mc.stats().queuedCycles,
              Ic::memCtrlSlot + 2 * Ic::memCtrlSlot);
}

TEST_F(MemoryControllerTest, NoQueueingWhenSpacedOut)
{
    MemoryController mc(0, eq);
    mc.accessDirect(100);
    mc.accessDirect(100 + 2 * Ic::memCtrlSlot);
    EXPECT_EQ(mc.stats().queuedCycles, 0u);
}

TEST_F(MemoryControllerTest, WritebacksCountAndOccupy)
{
    MemoryController mc(0, eq);
    mc.acceptWriteback(50);
    mc.acceptWriteback(50);
    EXPECT_EQ(mc.stats().writebacks, 2u);
    // The second write-back waited one slot.
    EXPECT_EQ(mc.stats().queuedCycles, Ic::memCtrlSlot);
}

TEST_F(MemoryControllerTest, ResetStats)
{
    MemoryController mc(0, eq);
    mc.accessDirect(10);
    mc.acceptWriteback(20);
    mc.resetStats();
    EXPECT_EQ(mc.stats().directReads, 0u);
    EXPECT_EQ(mc.stats().writebacks, 0u);
}

} // namespace
} // namespace cgct
