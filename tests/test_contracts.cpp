/**
 * @file
 * The in-process determinism contracts of docs/CONTRACTS.md, one test
 * per row, each parameterised by the scopes its row lists: row 2
 * (ContractSameState), row 3 (ContractAnyJobs), row 5 (ContractRestore,
 * through the sampler's saveImage/restoreImage pair) and row 8
 * (ContractInstrumentation). Rows 1, 4 and 7 are
 * test_event_queue_stress, test_sweep_identity and trace_replay_e2e; row
 * 6 is retired. Under sanitizers row 5's bus4 matrix is cut to one
 * cell (the normal-build CI leg runs it whole). Label: contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/trace_sink.hpp"
#include "core/regionscout.hpp"
#include "drain_schedule.hpp"
#include "golden.hpp"
#include "sim/json_stats.hpp"
#include "sim/sampling.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "sim/system.hpp"
#include "snapshot/result_codec.hpp"
#include "snapshot/serializer.hpp"
#include "snapshot/snapshot.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"

namespace cgct {
namespace {

/** One scope of a row: its name is the test-name suffix, and check()
 *  asserts the row's contract there. */
struct Cell {
    std::string name;
    std::function<void()> check;
};

std::ostream &
operator<<(std::ostream &os, const Cell &cell)
{
    return os << cell.name;
}

const auto kCellName = [](const auto &info) { return info.param.name; };

/** The codec's byte encoding of a result: "equal" means every field. */
std::string
encoded(const RunResult &r)
{
    Serializer s;
    encodeRunResult(s, r);
    return {s.buffer().begin(), s.buffer().end()};
}

RunOptions
runOf(std::uint64_t ops, std::uint64_t warmup, std::uint64_t seed)
{
    RunOptions opts;
    opts.opsPerCpu = ops;
    opts.warmupOps = warmup;
    opts.seed = seed;
    return opts;
}

SystemConfig
withRegion(const SystemConfig &base, std::uint64_t region)
{
    return region ? base.withCgct(region) : base;
}

/** 16 CPUs, two per chip, on @p kind. */
SystemConfig
sixteen(TopologyKind kind)
{
    SystemConfig c = makeDefaultConfig();
    c.topology.numCpus = 16;
    c.interconnect.topology = kind;
    c.validate();
    return c;
}

/** "<scope>_<benchmark>_<baseline|rN>", as a test-name suffix. */
std::string
cellName(const std::string &scope, const std::string &benchmark,
         std::uint64_t region)
{
    std::string name = scope + "_" + benchmark + "_" +
                       (region ? "r" + std::to_string(region) : "baseline");
    std::replace(name.begin(), name.end(), '-', '_');
    return name;
}

/** The nine Table 4 benchmarks. */
const std::vector<std::string> kTable4 = {
    "ocean", "raytrace", "barnes", "specint2000rate", "specweb99",
    "specjbb2000", "tpc-w", "tpc-b", "tpc-h"};

// ---------------------------------------------------------------------
// Row 2: same inputs in one process => same serialized state.

/** Drain a fresh system: its serialized architectural state (caches,
 *  cursors, clocks, executed-event count), then its encoded result. */
std::string
drainedState(const SystemConfig &config, const std::string &benchmark,
             const RunOptions &opts)
{
    const WorkloadProfile &profile = benchmarkByName(benchmark);
    SyntheticWorkload w(profile, config.topology.numCpus, opts.opsPerCpu,
                        opts.seed);
    System sys(config, w);
    Tick measure_start = 0;
    runPhase(sys, /*resume=*/false, opts.maxEvents, [&] {
        if (opts.warmupOps)
            scheduleWarmupCheck(
                sys, [&w] { return w.minOpsDrawn(); }, opts.warmupOps,
                &measure_start);
    });
    EXPECT_GT(sys.eq().executed(), 0u);
    Serializer s;
    sys.serializeState(s);
    encodeRunResult(
        s, collectRunResult(sys, profile.name, opts.seed, measure_start));
    return {s.buffer().begin(), s.buffer().end()};
}

Cell
sameStateCell(std::string name, const SystemConfig &config,
              const std::string &benchmark, const RunOptions &opts)
{
    return {std::move(name), [=] {
                const std::string first =
                    drainedState(config, benchmark, opts);
                EXPECT_FALSE(first.empty());
                EXPECT_EQ(first, drainedState(config, benchmark, opts));
            }};
}

std::vector<Cell>
sameStateCells()
{
    std::vector<Cell> cells = {sameStateCell(
        "bus4_ocean_baseline", makeDefaultConfig(), "ocean",
        runOf(8000, 0, 99))};
    for (TopologyKind k : {TopologyKind::Hier, TopologyKind::Dir})
        cells.push_back(sameStateCell(
            std::string(topologyKindName(k)) + "16_rca256_barnes_r512",
            sixteen(k).withCgct(512, 256, 2), "barnes",
            runOf(6000, 1200, 7)));
    for (const std::string &b : kTable4)
        for (std::uint64_t region : {0, 512})
            cells.push_back(sameStateCell(
                cellName("bus16", b, region),
                withRegion(sixteen(TopologyKind::Bus), region), b,
                runOf(6000, 0, 7)));
    return cells;
}

using ContractSameState = ::testing::TestWithParam<Cell>;

TEST_P(ContractSameState, RepeatedRunIsByteIdentical)
{
    GetParam().check();
}

INSTANTIATE_TEST_SUITE_P(Scopes, ContractSameState,
                         ::testing::ValuesIn(sameStateCells()), kCellName);

// ---------------------------------------------------------------------
// Row 3: any --jobs => the bytes of --jobs 1.

/** @p output at each of @p jobs must be its bytes at --jobs 1. */
Cell
anyJobsCell(std::string name, std::vector<unsigned> jobs,
            std::function<std::string(unsigned)> output)
{
    return {std::move(name), [=] {
                const std::string serial = output(1);
                EXPECT_FALSE(serial.empty());
                for (unsigned j : jobs)
                    EXPECT_EQ(output(j), serial) << "--jobs " << j;
            }};
}

/** A sweep of @p spec: its CSV rows in emission order, its JSON, and
 *  every result's encoding. */
Cell
sweepCell(std::string name, std::vector<unsigned> jobs,
          const SweepSpec &spec)
{
    const bool sampled = spec.sampling.windows != 0;
    return anyJobsCell(std::move(name), std::move(jobs), [=](unsigned j) {
        std::ostringstream csv;
        writeSweepCsvHeader(csv, sampled);
        SweepRunner runner(spec, j);
        const std::vector<RunResult> results =
            runner.run([&](const SweepCell &, const RunResult &r) {
                writeSweepCsvRow(csv, r, sampled);
            });
        std::string out = csv.str();
        EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
                  static_cast<std::ptrdiff_t>(runner.cells().size() + 1));
        const std::string json = toJson(results);
        EXPECT_NE(json.find("\"seed\": "), std::string::npos);
        out += json;
        for (const RunResult &r : results)
            out += encoded(r);
        return out;
    });
}

/** A three-seed ocean batch of @p config as a one-cell sweep: each
 *  result, and each traced one's trace as JSONL. */
std::string
seedsOutput(const SystemConfig &config, const RunOptions &opts,
            unsigned jobs)
{
    SweepSpec spec;
    spec.profiles = {&benchmarkByName("ocean")};
    spec.regionSizes = {0}; // Region 0 runs the configuration as given.
    spec.seedsPerCell = 3;
    spec.baseSeed = opts.seed;
    spec.opts = opts;
    spec.baseConfig = config;
    std::ostringstream os;
    for (const RunResult &r : SweepRunner(std::move(spec), jobs).run()) {
        os << encoded(r);
        EXPECT_EQ(r.trace != nullptr, config.obs.trace);
        if (r.trace)
            TraceSink::writeJsonl(*r.trace, os);
    }
    return os.str();
}

SweepSpec
sweepOf(std::vector<std::string> benchmarks, const RunOptions &opts)
{
    SweepSpec spec;
    for (const std::string &b : benchmarks)
        spec.profiles.push_back(&benchmarkByName(b));
    spec.regionSizes = {0, 512};
    spec.seedsPerCell = 2;
    spec.opts = opts;
    spec.baseConfig = makeDefaultConfig();
    return spec;
}

std::vector<Cell>
anyJobsCells()
{
    std::vector<Cell> cells = {
        sweepCell("generated_sweep_ocean_barnes", {4},
                  sweepOf({"ocean", "barnes"}, runOf(4000, 0, 1))),
        sweepCell("generated_sweep_ocean_tpcw", {0, 3},
                  sweepOf({"ocean", "tpc-w"}, runOf(6000, 1200, 1)))};

    // Sampled library call: windows stream through the workers as the
    // warm pass emits them; K below the job count and K not a multiple
    // of it must land every window in its slot all the same.
    SamplingOptions small;
    small.windows = 4;
    small.windowOps = 500;
    const RunOptions sampledRun = runOf(12000, 2400, 7);
    cells.push_back(anyJobsCell("sampled_call_tpcw", {2, 3}, [=](unsigned j) {
        std::string out;
        const auto sample = [&](SamplingOptions sopts) {
            sopts.jobs = j;
            out += encoded(simulateSampled(makeDefaultConfig().withCgct(512),
                                           benchmarkByName("tpc-w"),
                                           sampledRun, sopts));
        };
        for (WarmMode mode : {WarmMode::Functional, WarmMode::Detailed})
            for (std::uint64_t k : {1u, 3u, 4u}) {
                SamplingOptions fixed = small;
                fixed.warmMode = mode;
                fixed.windows = k;
                sample(fixed);
            }
        return out;
    }));

    SweepSpec sampled = sweepOf({"tpc-w"}, sampledRun);
    sampled.seedsPerCell = 1;
    sampled.sampling = small;
    cells.push_back(sweepCell("sampled_sweep_tpcw", {4}, sampled));

    // Seed batches (one-cell sweeps), untraced and traced;
    // the traced run has small caches, so evictions, write-backs and RCA
    // pressure all show in a short trace.
    SystemConfig traced = makeDefaultConfig();
    traced.l1i = CacheParams{4 * 1024, 2, 64, 1};
    traced.l1d = CacheParams{8 * 1024, 2, 64, 1};
    traced.l2 = CacheParams{64 * 1024, 2, 64, 12};
    traced = traced.withCgct(512, 256, 2);
    traced.obs.trace = true;
    traced.validate();
    cells.push_back(anyJobsCell("seeds_ocean", {4}, [](unsigned j) {
        return seedsOutput(makeDefaultConfig(), runOf(4000, 0, 77), j);
    }));
    cells.push_back(anyJobsCell("traced_seeds_ocean", {3}, [=](unsigned j) {
        return seedsOutput(traced, runOf(5000, 1000, 99), j);
    }));
    return cells;
}

using ContractAnyJobs = ::testing::TestWithParam<Cell>;

TEST_P(ContractAnyJobs, MatchesJobs1)
{
    GetParam().check();
}

INSTANTIATE_TEST_SUITE_P(Paths, ContractAnyJobs,
                         ::testing::ValuesIn(anyJobsCells()), kCellName);

// ---------------------------------------------------------------------
// Row 5: a System restored from an image == the drained System continued.

/** @p sch straight through, then restored from each of its drain
 *  images (expectRestoresMatch). */
Cell
restoreCell(std::string name, Schedule sch)
{
    return {std::move(name),
            [sch] { expectRestoresMatch(sch, runSchedule(sch)); }};
}

Cell
generatedCell(std::string name, const SystemConfig &config,
              const std::string &benchmark, const RunOptions &opts,
              std::uint64_t interval)
{
    return restoreCell(std::move(name),
                       {config, plainSystem(config),
                        &benchmarkByName(benchmark), opts, interval});
}

/** A schedule with no drain inside the stream is the plain run: its one
 *  phase, paused at the stream's end, gives simulateOnce's result and
 *  `--stats` text. */
Cell
noDrainCell(std::string name, const SystemConfig &config,
            const std::string &benchmark, const RunOptions &opts)
{
    return {std::move(name), [=] {
                const Drains drains = runSchedule(
                    {config, plainSystem(config), &benchmarkByName(benchmark),
                     opts, opts.opsPerCpu});
                EXPECT_TRUE(drains.images.empty());
                std::ostringstream stats;
                EXPECT_EQ(drains.result,
                          encoded(simulateOnce(config,
                                               benchmarkByName(benchmark),
                                               opts, &stats)));
                EXPECT_EQ(drains.stats, stats.str());
            }};
}

/** The default bus with a RegionScout tracker per CPU: the image holds
 *  the trackers the System was built with. */
Cell
regionScoutCell()
{
    const SystemConfig config = makeDefaultConfig();
    const MakeSystem make = [config](OpSource &ops) {
        return std::make_unique<System>(
            config, ops, [line = config.l2.lineBytes](CpuId cpu) {
                return std::make_shared<RegionScout>(
                    cpu, RegionScoutParams{}, line);
            });
    };
    return restoreCell("bus4_regionscout_tpc_w",
                       {config, make, &benchmarkByName("tpc-w"),
                        runOf(5000, 0, 20050609), 2500});
}

std::vector<Cell>
restoreCells()
{
    // The benchmark x region x seed matrix on the default bus.
    std::vector<Cell> cells;
    const SystemConfig bus4 = makeDefaultConfig();
    const std::uint64_t ops = CGCT_SANITIZED ? 6000 : 9000;
    for (const char *b : {"tpc-w", "barnes", "ocean"})
        for (std::uint64_t region : {0, 512})
            for (std::uint64_t seed : {1, 2})
                if (!CGCT_SANITIZED ||
                    (b == std::string("tpc-w") && region && seed == 1))
                    cells.push_back(generatedCell(
                        cellName("bus4", b, region) + "_s" +
                            std::to_string(seed),
                        withRegion(bus4, region), b,
                        runOf(ops, ops / 5, seed), 3000));
    cells.push_back(generatedCell("bus4_ocean_r512_s3_nowarmup",
                                  bus4.withCgct(512), "ocean",
                                  runOf(9000, 0, 3), 3000));
    cells.push_back(noDrainCell("bus4_tpc_w_r512_nodrain",
                                bus4.withCgct(512), "tpc-w",
                                runOf(8000, 1600, 7)));
    cells.push_back(regionScoutCell());

    for (TopologyKind k :
         {TopologyKind::Bus, TopologyKind::Hier, TopologyKind::Dir})
        cells.push_back(generatedCell(
            std::string(topologyKindName(k)) + "16_rca256_tpc_w_r512",
            sixteen(k).withCgct(512, 256, 2), "tpc-w", runOf(6000, 1200, 7),
            3000));
    for (const std::string &b : kTable4)
        for (std::uint64_t region : {0, 512})
            cells.push_back(generatedCell(
                cellName("bus16", b, region),
                withRegion(sixteen(TopologyKind::Bus), region), b,
                runOf(6000, 1200, 7), 2000));
    return cells;
}

using ContractRestore = ::testing::TestWithParam<Cell>;

TEST_P(ContractRestore, MatchesUninterruptedRun)
{
    GetParam().check();
}

INSTANTIATE_TEST_SUITE_P(Scopes, ContractRestore,
                         ::testing::ValuesIn(restoreCells()), kCellName);

// ---------------------------------------------------------------------
// Row 8: instrumentation never changes a run's results.

/** canonicalizeConfig leaves config.obs out of every fingerprint on this
 *  claim, which is what lets a plain image restore under `--trace
 *  --check-invariants`. */
Cell
instrumentationCell(std::string name, const SystemConfig &plain)
{
    return {name, [=] {
                SystemConfig observed = plain;
                observed.obs.trace = observed.obs.checkInvariants = true;
                const RunOptions opts = runOf(3000, 600, 7);
                // The encoded result and the dumpStats text.
                const auto full = [&opts](const SystemConfig &c) {
                    std::ostringstream stats;
                    const std::string result = encoded(simulateOnce(
                        c, benchmarkByName("tpc-w"), opts, &stats));
                    return std::pair{result, stats.str()};
                };
                EXPECT_EQ(full(observed), full(plain));

                Schedule sch{plain, plainSystem(plain),
                             &benchmarkByName("tpc-w"), opts, 1500};
                const Drains drained = runSchedule(sch);
                ASSERT_EQ(drained.images.size(), 1u);
                const auto continued = [&](const SystemConfig &c) {
                    sch.config = c;
                    sch.make = plainSystem(c);
                    const Drains d = runSchedule(sch, &drained.images[0],
                                                 1500,
                                                 drained.measureStarts[0]);
                    return std::pair{d.end, d.stats};
                };
                EXPECT_EQ(continued(observed), continued(plain))
                    << "a plain image restored under instrumentation";
            }};
}

std::vector<Cell>
instrumentationCells()
{
    std::vector<Cell> cells;
    for (const auto &[scope, base] :
         {std::pair{"bus4", makeDefaultConfig()},
          std::pair{"hier16", sixteen(TopologyKind::Hier)},
          std::pair{"dir16", sixteen(TopologyKind::Dir)}})
        for (std::uint64_t region : {0, 512})
            cells.push_back(
                instrumentationCell(cellName(scope, "tpc-w", region),
                                    withRegion(base, region)));
    return cells;
}

using ContractInstrumentation = ::testing::TestWithParam<Cell>;

TEST_P(ContractInstrumentation, ChangesNoResult)
{
    GetParam().check();
}

INSTANTIATE_TEST_SUITE_P(Scopes, ContractInstrumentation,
                         ::testing::ValuesIn(instrumentationCells()),
                         kCellName);

} // namespace
} // namespace cgct
