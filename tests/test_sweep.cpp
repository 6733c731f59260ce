/**
 * @file
 * Tests for the parallel sweep runner: matrix expansion order, the seed
 * chain, per-cell result metadata, progress
 * events, CGCT cells keeping the base RCA geometry, rows streaming in
 * cell order at any thread count, and the CSV row's sampling check.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "sim/sweep.hpp"
#include "snapshot/result_codec.hpp"
#include "snapshot/serializer.hpp"
#include "workload/benchmarks.hpp"

namespace cgct {
namespace {

SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.profiles = {&benchmarkByName("ocean"),
                     &benchmarkByName("barnes")};
    spec.regionSizes = {0, 512};
    spec.seedsPerCell = 2;
    spec.baseSeed = 20050609;
    spec.opts.opsPerCpu = 4000;
    spec.opts.warmupOps = 0;
    spec.baseConfig = makeDefaultConfig();
    return spec;
}

TEST(Sweep, ExpansionOrderAndSeeds)
{
    const SweepSpec spec = smallSpec();
    const std::vector<SweepCell> cells = spec.expand();
    ASSERT_EQ(cells.size(), 8u); // 2 benchmarks x 2 regions x 2 seeds.

    // Profile-major, then region, then seed.
    EXPECT_EQ(cells[0].profile->name, "ocean");
    EXPECT_EQ(cells[0].regionBytes, 0u);
    EXPECT_EQ(cells[3].profile->name, "ocean");
    EXPECT_EQ(cells[3].regionBytes, 512u);
    EXPECT_EQ(cells[4].profile->name, "barnes");

    // The seed chain restarts from the base seed per cell group and is
    // derived at expansion time, independent of execution.
    const std::uint64_t s0 = nextSweepSeed(spec.baseSeed);
    const std::uint64_t s1 = nextSweepSeed(s0);
    EXPECT_EQ(cells[0].seed, s0);
    EXPECT_EQ(cells[1].seed, s1);
    EXPECT_EQ(cells[2].seed, s0);
    EXPECT_EQ(cells[6].seed, s0);

    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(cells[i].index, i);
}

TEST(Sweep, ResultsCarryCellMetadata)
{
    const SweepSpec spec = smallSpec();
    SweepRunner runner(spec, 2);
    const std::vector<RunResult> results = runner.run();
    ASSERT_EQ(results.size(), runner.cells().size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].workload, runner.cells()[i].profile->name);
        EXPECT_EQ(results[i].regionBytes, runner.cells()[i].regionBytes);
        EXPECT_EQ(results[i].seed, runner.cells()[i].seed);
    }
}

TEST(Sweep, ProgressCoversEveryCell)
{
    const SweepSpec spec = smallSpec();
    SweepRunner runner(spec, 4);
    std::atomic<std::size_t> events{0};
    std::atomic<std::size_t> max_done{0};
    runner.run({}, [&](std::size_t done, std::size_t total,
                       const SweepCell &) {
        events.fetch_add(1);
        std::size_t prev = max_done.load();
        while (done > prev && !max_done.compare_exchange_weak(prev, done))
            ;
        EXPECT_EQ(total, 8u);
    });
    EXPECT_EQ(events.load(), 8u);
    EXPECT_EQ(max_done.load(), 8u);
}

std::vector<std::uint8_t>
encoded(const RunResult &r)
{
    Serializer s;
    encodeRunResult(s, r);
    return s.buffer();
}

TEST(Sweep, CgctCellsKeepTheBaseRcaGeometry)
{
    // A spec whose base configuration carries a half-size RCA runs it:
    // the geometry sweepFingerprint hashes is the one simulated.
    SweepSpec spec;
    spec.profiles = {&benchmarkByName("tpc-w")};
    spec.regionSizes = {512};
    spec.seedsPerCell = 1;
    spec.opts.opsPerCpu = 20000;
    spec.opts.warmupOps = 4000;
    spec.baseConfig = makeDefaultConfig();
    spec.baseConfig.cgct.rcaSets = 4096;
    const RunResult swept = SweepRunner(spec, 1).run().at(0);

    RunOptions opts = spec.opts;
    opts.seed = spec.expand().at(0).seed;
    const WorkloadProfile &tpcw = *spec.profiles[0];
    EXPECT_EQ(encoded(swept),
              encoded(simulateOnce(makeDefaultConfig().withCgct(512, 4096, 2),
                                   tpcw, opts)));
    // The geometry matters at this length, so the check above has teeth.
    EXPECT_NE(encoded(swept),
              encoded(simulateOnce(makeDefaultConfig().withCgct(512), tpcw,
                                   opts)));
}

TEST(Sweep, RowsStreamInCellOrderAtAnyJobs)
{
    const SweepSpec spec = smallSpec();
    const std::vector<RunResult> serial = SweepRunner(spec, 1).run();

    // At three threads cells finish out of order; rows still reach the
    // caller's thread in cell order, each the row a serial run makes.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    std::vector<std::vector<std::uint8_t>> rows;
    SweepRunner runner(spec, 3);
    const std::vector<RunResult> results =
        runner.run([&](const SweepCell &cell, const RunResult &r) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            order.push_back(cell.index);
            rows.push_back(encoded(r));
        });
    ASSERT_EQ(order.size(), serial.size());
    ASSERT_EQ(results.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(order[i], i);
        EXPECT_EQ(rows[i], encoded(serial[i])) << "row " << i;
        EXPECT_EQ(encoded(results[i]), rows[i]) << "row " << i;
    }
}

TEST(SweepDeath, SampledColumnsOfAFullDetailResultPanic)
{
    // A full-detail result has no sampling block: asking for its sampled
    // columns is a caller bug, not a row of empty cells.
    std::ostringstream os;
    writeSweepCsvRow(os, RunResult{});
    EXPECT_DEATH(writeSweepCsvRow(os, RunResult{}, /*sampled=*/true),
                 "a sampled column on a full-detail result");
}

} // namespace
} // namespace cgct
