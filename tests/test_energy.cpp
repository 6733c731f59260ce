/**
 * @file
 * Tests for the Section 6 energy model: arithmetic against known event
 * counts, breakdown composition, and the baseline-vs-CGCT direction on a
 * real workload (CGCT spends less on network/tag energy, pays a little
 * for the RCA).
 */

#include <gtest/gtest.h>

#include "sim/energy.hpp"
#include "sim/system.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"

namespace cgct {
namespace {

EnergyBreakdown
runEnergy(bool cgct_on, std::uint64_t ops)
{
    SystemConfig config = makeDefaultConfig();
    if (cgct_on)
        config = config.withCgct(512);
    SyntheticWorkload wl(benchmarkByName("tpc-w"), 4, ops, 77);
    System sys(config, wl);
    sys.start();
    sys.eq().run();
    return computeEnergy(sys);
}

TEST(Energy, BreakdownTotalsSumComponents)
{
    EnergyBreakdown e;
    e.tagLookups = 1;
    e.cacheAccess = 2;
    e.network = 3;
    e.dram = 4;
    e.dataTransfer = 5;
    e.rca = 6;
    EXPECT_DOUBLE_EQ(e.total(), 21.0);
}

TEST(Energy, BaselineHasNoRcaEnergy)
{
    const EnergyBreakdown e = runEnergy(false, 5000);
    EXPECT_EQ(e.rca, 0.0);
    EXPECT_GT(e.tagLookups, 0.0);
    EXPECT_GT(e.network, 0.0);
    EXPECT_GT(e.dram, 0.0);
    EXPECT_GT(e.dataTransfer, 0.0);
    EXPECT_GT(e.cacheAccess, 0.0);
}

/** tpc-w on @p cpus CPUs whose chip-shared RCAs serve two cores each. */
EnergyBreakdown
runSharedRca(unsigned cpus, TopologyKind kind)
{
    SystemConfig config = makeDefaultConfig().withCgct(512, 256, 2);
    config.cgct.sharedPerChip = true;
    config.topology.numCpus = cpus;
    config.interconnect.topology = kind;
    config.validate();
    SyntheticWorkload wl(benchmarkByName("tpc-w"), cpus, 6000, 21);
    System sys(config, wl);
    sys.start();
    sys.eq().run();
    return computeEnergy(sys);
}

// Each component as recorded when every node's and every RCA's share
// was priced and added separately: a shared array counts once. The
// four-CPU cell rounds the same when the counters are summed first.
TEST(Energy, SharedRcaBreakdownPin)
{
    const EnergyBreakdown e = runSharedRca(4, TopologyKind::Bus);
    EXPECT_EQ(e.tagLookups, 1866.6000000000001);
    EXPECT_EQ(e.cacheAccess, 13931.200000000001);
    EXPECT_EQ(e.network, 21583.200000000001);
    EXPECT_EQ(e.dram, 185328.0);
    EXPECT_EQ(e.dataTransfer, 6625.9200000000001);
    EXPECT_EQ(e.rca, 6473.3100000000004);
}

// On sixteen CPUs, pricing the summed counters once rounds differently
// in the last place (at most two ulps here): equal within four ulps.
TEST(Energy, SixteenCpuSharedRcaBreakdownPin)
{
    const EnergyBreakdown bus = runSharedRca(16, TopologyKind::Bus);
    EXPECT_DOUBLE_EQ(bus.tagLookups, 39198.0);
    EXPECT_DOUBLE_EQ(bus.cacheAccess, 56187.19999999999);
    EXPECT_DOUBLE_EQ(bus.network, 212911.70000000001);
    EXPECT_DOUBLE_EQ(bus.dram, 728256.0);
    EXPECT_DOUBLE_EQ(bus.dataTransfer, 26683.52);
    EXPECT_DOUBLE_EQ(bus.rca, 44967.809999999998);

    const EnergyBreakdown hier = runSharedRca(16, TopologyKind::Hier);
    EXPECT_DOUBLE_EQ(hier.tagLookups, 7648.7999999999993);
    EXPECT_DOUBLE_EQ(hier.cacheAccess, 56150.450000000012);
    EXPECT_DOUBLE_EQ(hier.network, 209267.10000000001);
    EXPECT_DOUBLE_EQ(hier.dram, 728196.0);
    EXPECT_DOUBLE_EQ(hier.dataTransfer, 26696.32);
    EXPECT_DOUBLE_EQ(hier.rca, 26075.369999999995);
}

TEST(Energy, CgctSpendsOnRcaButSavesNetworkAndTags)
{
    const EnergyBreakdown base = runEnergy(false, 10000);
    const EnergyBreakdown with = runEnergy(true, 10000);
    EXPECT_GT(with.rca, 0.0);
    // The paper's Section 6 claims, in model form:
    EXPECT_LT(with.network, base.network);
    EXPECT_LT(with.tagLookups, base.tagLookups);
    EXPECT_LT(with.total(), base.total());
}

} // namespace
} // namespace cgct
