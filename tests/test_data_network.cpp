/**
 * @file
 * Tests for the data network: critical-word latency per distance class and
 * per-link bandwidth occupancy.
 */

#include <gtest/gtest.h>

#include "interconnect/data_network.hpp"

namespace cgct {
namespace {

using Ic = InterconnectParams;

TEST(DataNetwork, CriticalWordLatencyByDistance)
{
    DataNetwork net(4);
    EXPECT_EQ(net.deliver(0, 1000, Distance::OwnChip, 64),
              1000 + Ic::xferOwnChip);
    EXPECT_EQ(net.deliver(1, 1000, Distance::SameSwitch, 64),
              1000 + Ic::xferSameSwitch);
    EXPECT_EQ(net.deliver(2, 1000, Distance::SameBoard, 64),
              1000 + Ic::xferSameBoard);
    EXPECT_EQ(net.deliver(3, 1000, Distance::Remote, 64),
              1000 + Ic::xferRemote);
}

TEST(DataNetwork, LinkOccupancySerializesTransfers)
{
    DataNetwork net(4);
    // 64 bytes at 16 B/system-cycle = 4 system cycles = 40 CPU cycles.
    const Tick first = net.deliver(0, 0, Distance::OwnChip, 64);
    const Tick second = net.deliver(0, 0, Distance::OwnChip, 64);
    EXPECT_EQ(second - first, 40u);
    EXPECT_EQ(net.stats().linkWaitCycles, 40u);
}

TEST(DataNetwork, IndependentLinksDoNotInterfere)
{
    DataNetwork net(4);
    net.deliver(0, 0, Distance::OwnChip, 64);
    const Tick other = net.deliver(1, 0, Distance::OwnChip, 64);
    EXPECT_EQ(other, Ic::xferOwnChip);
    EXPECT_EQ(net.stats().linkWaitCycles, 0u);
}

TEST(DataNetwork, StatsAccumulate)
{
    DataNetwork net(2);
    net.deliver(0, 0, Distance::OwnChip, 64);
    net.deliver(1, 0, Distance::Remote, 128);
    EXPECT_EQ(net.stats().transfers, 2u);
    EXPECT_EQ(net.stats().bytes, 192u);
    net.resetStats();
    EXPECT_EQ(net.stats().transfers, 0u);
}

TEST(DataNetwork, SpacedTransfersDoNotQueue)
{
    DataNetwork net(1);
    net.deliver(0, 0, Distance::OwnChip, 64);
    const Tick t = net.deliver(0, 100, Distance::OwnChip, 64);
    EXPECT_EQ(t, 100 + Ic::xferOwnChip);
    EXPECT_EQ(net.stats().linkWaitCycles, 0u);
}

} // namespace
} // namespace cgct
