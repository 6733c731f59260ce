/**
 * @file
 * Tests for the physical address map: interleaving across memory
 * controllers and distance classification.
 */

#include <gtest/gtest.h>

#include "mem/address_map.hpp"

namespace cgct {
namespace {

TopologyParams
fourCpuTopo()
{
    TopologyParams t;
    t.numCpus = 4;
    t.cpusPerChip = 2;
    t.chipsPerSwitch = 2;
    return t;
}

TEST(AddressMap, InterleavesAcrossControllers)
{
    const AddressMap map(fourCpuTopo());
    EXPECT_EQ(map.numControllers(), 2u);
    EXPECT_EQ(map.controllerOf(0x0000), 0);
    EXPECT_EQ(map.controllerOf(0x0FFF), 0);
    EXPECT_EQ(map.controllerOf(0x1000), 1);
    EXPECT_EQ(map.controllerOf(0x1FFF), 1);
    EXPECT_EQ(map.controllerOf(0x2000), 0);
}

TEST(AddressMap, RegionsNeverSpanControllers)
{
    const AddressMap map(fourCpuTopo());
    // Any 512-byte region maps to one controller (interleave is 4 KB).
    for (Addr base = 0; base < 64 * 1024; base += 512) {
        const MemCtrlId mc = map.controllerOf(base);
        for (Addr off = 0; off < 512; off += 64)
            ASSERT_EQ(map.controllerOf(base + off), mc);
    }
}

TEST(AddressMap, DistanceToOwnAndRemoteController)
{
    const AddressMap map(fourCpuTopo());
    // CPU 0 and 1 live on chip 0 (controller 0); 2 and 3 on chip 1.
    EXPECT_EQ(map.distanceToCtrl(0, 0), Distance::OwnChip);
    EXPECT_EQ(map.distanceToCtrl(1, 0), Distance::OwnChip);
    EXPECT_EQ(map.distanceToCtrl(0, 1), Distance::SameSwitch);
    EXPECT_EQ(map.distanceToCtrl(2, 1), Distance::OwnChip);
    EXPECT_EQ(map.distanceToCtrl(3, 0), Distance::SameSwitch);
}

TEST(AddressMap, DistanceByAddress)
{
    const AddressMap map(fourCpuTopo());
    EXPECT_EQ(map.distance(0, 0x0000), Distance::OwnChip);
    EXPECT_EQ(map.distance(0, 0x1000), Distance::SameSwitch);
    EXPECT_EQ(map.distance(2, 0x1000), Distance::OwnChip);
}

TEST(AddressMap, CpuToCpuDistance)
{
    const AddressMap map(fourCpuTopo());
    EXPECT_EQ(map.cpuToCpu(0, 1), Distance::OwnChip);
    EXPECT_EQ(map.cpuToCpu(0, 2), Distance::SameSwitch);
    EXPECT_EQ(map.cpuToCpu(3, 2), Distance::OwnChip);
    EXPECT_EQ(map.cpuToCpu(3, 0), Distance::SameSwitch);
}

TEST(AddressMap, LargerTopologyReachesRemote)
{
    TopologyParams t;
    t.numCpus = 16;
    t.cpusPerChip = 2;
    t.chipsPerSwitch = 2;
    t.switchesPerBoard = 2;
    const AddressMap map(t);
    EXPECT_EQ(map.numControllers(), 8u);
    EXPECT_EQ(map.distanceToCtrl(0, 2), Distance::SameBoard);
    EXPECT_EQ(map.distanceToCtrl(0, 4), Distance::Remote);
    EXPECT_EQ(map.cpuToCpu(0, 15), Distance::Remote);
}

} // namespace
} // namespace cgct
