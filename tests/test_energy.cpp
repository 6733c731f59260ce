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
runEnergy(bool cgct_on, std::uint64_t ops, System **out_sys = nullptr)
{
    static std::unique_ptr<System> sys;       // Keep alive for out_sys.
    static std::unique_ptr<SyntheticWorkload> wl;
    SystemConfig config = makeDefaultConfig();
    if (cgct_on)
        config = config.withCgct(512);
    wl = std::make_unique<SyntheticWorkload>(benchmarkByName("tpc-w"), 4,
                                             ops, 77);
    sys = std::make_unique<System>(config, *wl);
    sys->start();
    sys->eq().run();
    if (out_sys)
        *out_sys = sys.get();
    return computeEnergy(*sys);
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

TEST(Energy, ScalesLinearlyWithWeights)
{
    System *sys = nullptr;
    runEnergy(false, 3000, &sys);
    ASSERT_NE(sys, nullptr);
    EnergyParams p;
    const EnergyBreakdown one = computeEnergy(*sys, p);
    p.dramAccessNj *= 2.0;
    const EnergyBreakdown two = computeEnergy(*sys, p);
    EXPECT_DOUBLE_EQ(two.dram, 2.0 * one.dram);
    EXPECT_DOUBLE_EQ(two.network, one.network);
}

} // namespace
} // namespace cgct
