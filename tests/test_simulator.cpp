/**
 * @file
 * Tests for the run harness: seeds that perturb, RunResult accounting
 * identities, baseline-vs-CGCT relationships on a small workload, and
 * distinct seeds of one batch giving distinct runs.
 */

#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "workload/benchmarks.hpp"

namespace cgct {
namespace {

RunOptions
quickOpts(std::uint64_t ops = 8000)
{
    RunOptions o;
    o.opsPerCpu = ops;
    o.warmupOps = 0;
    o.seed = 99;
    return o;
}

TEST(Simulator, DifferentSeedsPerturb)
{
    const SystemConfig cfg = makeDefaultConfig();
    const WorkloadProfile &p = benchmarkByName("ocean");
    RunOptions o1 = quickOpts(), o2 = quickOpts();
    o2.seed = 1234;
    const RunResult a = simulateOnce(cfg, p, o1);
    const RunResult b = simulateOnce(cfg, p, o2);
    EXPECT_NE(a.cycles, b.cycles);
}

TEST(Simulator, BaselineBroadcastsEverything)
{
    const RunResult r = simulateOnce(makeDefaultConfig(),
                                     benchmarkByName("tpc-w"),
                                     quickOpts());
    EXPECT_GT(r.requestsTotal, 0u);
    EXPECT_EQ(r.broadcasts, r.requestsTotal);
    EXPECT_EQ(r.directs, 0u);
    EXPECT_EQ(r.locals, 0u);
    EXPECT_EQ(r.regionBytes, 0u);
    // Every broadcast was observed by the oracle.
    EXPECT_EQ(r.oracleTotal, r.broadcasts);
    EXPECT_DOUBLE_EQ(r.avoidedFraction(), 0.0);
}

TEST(Simulator, RoutingIdentityUnderCgct)
{
    const RunResult r = simulateOnce(makeDefaultConfig().withCgct(512),
                                     benchmarkByName("tpc-w"),
                                     quickOpts());
    EXPECT_EQ(r.regionBytes, 512u);
    EXPECT_EQ(r.broadcasts + r.directs + r.locals, r.requestsTotal);
    EXPECT_GT(r.directs, 0u);
    // Only broadcasts reach the bus/oracle.
    EXPECT_EQ(r.oracleTotal, r.broadcasts);
    // Per-category counts add up to the totals.
    std::uint64_t cat_sum = 0;
    for (std::size_t c = 0; c < kNumCategories; ++c) {
        cat_sum += r.broadcastsByCat[c] + r.directsByCat[c] +
                   r.localsByCat[c];
    }
    EXPECT_EQ(cat_sum, r.requestsTotal);
}

TEST(Simulator, CgctReducesBroadcastsAndRuntime)
{
    const WorkloadProfile &p = benchmarkByName("tpc-w");
    const RunResult base = simulateOnce(makeDefaultConfig(), p,
                                        quickOpts(20000));
    const RunResult with = simulateOnce(makeDefaultConfig().withCgct(512),
                                        p, quickOpts(20000));
    EXPECT_LT(with.broadcasts, base.broadcasts / 2);
    EXPECT_LT(with.cycles, base.cycles);
    EXPECT_LT(with.avgBroadcastsPer100k, base.avgBroadcastsPer100k);
    EXPECT_LT(with.avgMissLatency, base.avgMissLatency);
}

TEST(Simulator, WarmupResetsCounters)
{
    RunOptions with_warmup = quickOpts(10000);
    with_warmup.warmupOps = 5000;
    const RunResult warm = simulateOnce(makeDefaultConfig(),
                                        benchmarkByName("ocean"),
                                        with_warmup);
    const RunResult cold = simulateOnce(makeDefaultConfig(),
                                        benchmarkByName("ocean"),
                                        quickOpts(10000));
    // The measured window is roughly half the run.
    EXPECT_LT(warm.cycles, cold.cycles);
    EXPECT_LT(warm.requestsTotal, cold.requestsTotal);
    EXPECT_GT(warm.requestsTotal, 0u);
}

TEST(Simulator, SeedsProduceDistinctRuns)
{
    SweepSpec spec;
    spec.profiles = {&benchmarkByName("ocean")};
    spec.regionSizes = {0};
    spec.seedsPerCell = 3;
    spec.opts = quickOpts(4000);
    spec.baseSeed = spec.opts.seed;
    spec.baseConfig = makeDefaultConfig();
    const std::vector<RunResult> runs = SweepRunner(spec, 1).run();
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_NE(runs[0].cycles, runs[1].cycles);
    EXPECT_NE(runs[1].cycles, runs[2].cycles);
}

TEST(Simulator, RcaStatsPopulatedUnderCgct)
{
    // Small RCA to force evictions.
    const RunResult r = simulateOnce(
        makeDefaultConfig().withCgct(512, 256, 2),
        benchmarkByName("specint2000rate"), quickOpts(20000));
    const std::uint64_t evicted = r.rcaEvictedEmpty + r.rcaEvictedOne +
                                  r.rcaEvictedTwo + r.rcaEvictedMore;
    EXPECT_GT(evicted, 0u);
}

TEST(Simulator, InstructionsCounted)
{
    const RunResult r = simulateOnce(makeDefaultConfig(),
                                     benchmarkByName("barnes"),
                                     quickOpts(4000));
    // 4 CPUs x 4000 memory ops, plus gap instructions.
    EXPECT_GT(r.instructions, 4u * 4000u);
}

} // namespace
} // namespace cgct
