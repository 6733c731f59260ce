/**
 * @file
 * Tests for the statistical-sampling engine (docs/SAMPLING.md):
 * determinism across job counts, agreement with full-detail runs,
 * geometry validation, warm-state invariants, journal persistence of
 * the sampling tail, the sampled sweep CSV columns, the recorded
 * full-vs-sampled cell, and digest pins of the functionally-warmed
 * output.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "golden.hpp"
#include "sha256.hpp"
#include "sim/sampling.hpp"
#include "sim/sweep.hpp"
#include "snapshot/journal.hpp"
#include "snapshot/serializer.hpp"
#include "workload/benchmarks.hpp"

namespace cgct {
namespace {

RunOptions
smallRun()
{
    RunOptions opts;
    opts.opsPerCpu = 12000;
    opts.warmupOps = 2400;
    opts.seed = 7;
    return opts;
}

SamplingOptions
smallSampling()
{
    SamplingOptions sopts;
    sopts.windows = 4;
    sopts.windowOps = 500;
    return sopts;
}

/** Canonical byte encoding of a result (the journal's), for equality. */
std::vector<std::uint8_t>
encoded(const RunResult &r)
{
    Serializer s;
    encodeRunResult(s, r);
    return {s.buffer().data(), s.buffer().data() + s.size()};
}

TEST(Sampling, ParseWarmMode)
{
    WarmMode m = WarmMode::Detailed;
    EXPECT_TRUE(parseWarmMode("functional", &m));
    EXPECT_EQ(m, WarmMode::Functional);
    EXPECT_TRUE(parseWarmMode("detailed", &m));
    EXPECT_EQ(m, WarmMode::Detailed);
    EXPECT_FALSE(parseWarmMode("warm", &m));
    EXPECT_FALSE(parseWarmMode("", &m));
    EXPECT_STREQ(warmModeName(WarmMode::Functional), "functional");
    EXPECT_STREQ(warmModeName(WarmMode::Detailed), "detailed");
}

TEST(Sampling, InfoGeometry)
{
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    const RunResult r = simulateSampled(config, benchmarkByName("tpc-w"),
                                        smallRun(), smallSampling());
    ASSERT_NE(r.sampling, nullptr);
    EXPECT_EQ(r.sampling->windows, 4u);
    EXPECT_EQ(r.sampling->windowOps, 500u);
    EXPECT_EQ(r.sampling->warmMode, "functional");
    EXPECT_EQ(r.sampling->spanOps, 12000u - 2400u);
    EXPECT_EQ(r.sampling->sampledOps, 4u * 500u);
    EXPECT_DOUBLE_EQ(r.sampling->scale, 9600.0 / 2000.0);
    EXPECT_EQ(r.sampling->cycles.count, 4u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.requestsTotal, 0u);
}

TEST(Sampling, ByteIdenticalAcrossJobs)
{
    // The windows stream through the workers as the warm pass emits
    // them; K below the job count and K not a multiple of it must land
    // every window in its slot all the same.
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    const WorkloadProfile &profile = benchmarkByName("tpc-w");

    for (WarmMode mode : {WarmMode::Functional, WarmMode::Detailed}) {
        for (std::uint64_t k : {1u, 3u, 4u}) {
            SamplingOptions sopts = smallSampling();
            sopts.warmMode = mode;
            sopts.windows = k;
            sopts.jobs = 1;
            const std::vector<std::uint8_t> serial =
                encoded(simulateSampled(config, profile, smallRun(), sopts));
            for (unsigned jobs : {2u, 3u}) {
                sopts.jobs = jobs;
                EXPECT_EQ(encoded(simulateSampled(config, profile,
                                                  smallRun(), sopts)),
                          serial)
                    << warmModeName(mode) << " K=" << k << " jobs=" << jobs;
            }
        }
    }

    // An adaptive run streams each of its rounds the same way.
    SamplingOptions adaptive = smallSampling();
    adaptive.windows = 2;
    adaptive.ciTarget = 1e-9;
    adaptive.maxWindows = 8;
    adaptive.jobs = 1;
    const RunResult a =
        simulateSampled(config, profile, smallRun(), adaptive);
    adaptive.jobs = 2;
    const RunResult b =
        simulateSampled(config, profile, smallRun(), adaptive);
    EXPECT_EQ(encoded(a), encoded(b));
}

TEST(Sampling, ZeroWindowsFallsBackToFullDetail)
{
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    const WorkloadProfile &profile = benchmarkByName("tpc-w");
    SamplingOptions off;
    off.windows = 0;
    const RunResult sampled =
        simulateSampled(config, profile, smallRun(), off);
    const RunResult full = simulateOnce(config, profile, smallRun());
    EXPECT_EQ(sampled.sampling, nullptr);
    EXPECT_EQ(encoded(sampled), encoded(full));
}

TEST(Sampling, FunctionalEstimatesTrackFullDetail)
{
    // The sampled headline ratios must land near the full-detail run —
    // within the larger of the reported CI and a small absolute slack
    // (one run of one seed is itself noisy).
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    const WorkloadProfile &profile = benchmarkByName("tpc-w");
    RunOptions opts;
    opts.opsPerCpu = 60000;
    opts.warmupOps = 12000;
    opts.seed = 7;
    SamplingOptions sopts;
    sopts.windows = 8;
    sopts.windowOps = 1000;

    const RunResult full = simulateOnce(config, profile, opts);
    const RunResult sampled =
        simulateSampled(config, profile, opts, sopts);
    ASSERT_NE(sampled.sampling, nullptr);

    const SamplingInfo &s = *sampled.sampling;
    EXPECT_NEAR(sampled.avoidedFraction(), full.avoidedFraction(),
                std::max(2.0 * s.avoidedFraction.ci95Half, 0.05));
    EXPECT_NEAR(sampled.l2MissRatio, full.l2MissRatio,
                std::max(2.0 * s.l2MissRatio.ci95Half, 0.05));
    EXPECT_NEAR(sampled.avgMissLatency, full.avgMissLatency,
                std::max(2.0 * s.avgMissLatency.ci95Half,
                         0.1 * full.avgMissLatency));
    // Scaled totals should be the right order of magnitude.
    EXPECT_GT(sampled.requestsTotal, full.requestsTotal / 2);
    EXPECT_LT(sampled.requestsTotal, full.requestsTotal * 2);
}

TEST(Sampling, DetailedWarmingMatchesGeometry)
{
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    SamplingOptions sopts = smallSampling();
    sopts.warmMode = WarmMode::Detailed;
    const RunResult r = simulateSampled(config, benchmarkByName("tpc-w"),
                                        smallRun(), sopts);
    ASSERT_NE(r.sampling, nullptr);
    EXPECT_EQ(r.sampling->warmMode, "detailed");
    EXPECT_EQ(r.sampling->cycles.count, 4u);
    EXPECT_GT(r.requestsTotal, 0u);
}

TEST(Sampling, BaselineConfigWorks)
{
    // CGCT off: the warm path must run without a region tracker.
    const SystemConfig config = makeDefaultConfig();
    const RunResult r = simulateSampled(config, benchmarkByName("tpc-w"),
                                        smallRun(), smallSampling());
    EXPECT_EQ(r.directs, 0u);
    EXPECT_EQ(r.locals, 0u);
    EXPECT_GT(r.broadcasts, 0u);
}

TEST(Sampling, WarmStateSatisfiesInvariants)
{
    // The end-of-window invariant sweep (collectRunResult -> checkAll)
    // cross-checks RCA state against cache contents, so a sampled run
    // with the checker on validates the functionally-warmed state.
    SystemConfig config = makeDefaultConfig().withCgct(512);
    config.obs.checkInvariants = true;
    const RunResult r = simulateSampled(config, benchmarkByName("tpc-w"),
                                        smallRun(), smallSampling());
    EXPECT_GT(r.requestsTotal, 0u);
}

TEST(Sampling, AdaptiveGrowsWindowsToCap)
{
    // An unreachable precision target doubles K until the hard cap.
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    SamplingOptions sopts = smallSampling();
    sopts.windows = 2;
    sopts.ciTarget = 1e-9;
    sopts.maxWindows = 8;
    const RunResult r = simulateSampled(config, benchmarkByName("tpc-w"),
                                        smallRun(), sopts);
    ASSERT_NE(r.sampling, nullptr);
    EXPECT_EQ(r.sampling->windows, 8u);
}

TEST(Sampling, AdaptiveStopsWhenTargetMet)
{
    // A trivially loose target is met by the starting window count.
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    SamplingOptions sopts = smallSampling();
    sopts.windows = 2;
    sopts.ciTarget = 1e9;
    const RunResult r = simulateSampled(config, benchmarkByName("tpc-w"),
                                        smallRun(), sopts);
    ASSERT_NE(r.sampling, nullptr);
    EXPECT_EQ(r.sampling->windows, 2u);
}

TEST(Sampling, AdaptiveRespectsWindowGeometry)
{
    // Span 9600, 2000 ops per window: at most 4 windows fit, whatever
    // maxWindows allows.
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    SamplingOptions sopts;
    sopts.windows = 2;
    sopts.windowOps = 2000;
    sopts.ciTarget = 1e-9;
    sopts.maxWindows = 64;
    const RunResult r = simulateSampled(config, benchmarkByName("tpc-w"),
                                        smallRun(), sopts);
    ASSERT_NE(r.sampling, nullptr);
    EXPECT_EQ(r.sampling->windows, 4u);
}

TEST(Sampling, AdaptiveFinalRoundMatchesFixedRun)
{
    // The adaptive loop's last round is a plain fixed-K run: pinning
    // start == cap reproduces the non-adaptive result byte for byte.
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    SamplingOptions fixed = smallSampling(); // 4 windows, no target.
    SamplingOptions adaptive = smallSampling();
    adaptive.ciTarget = 1e-9;
    adaptive.maxWindows = 4;
    const WorkloadProfile &profile = benchmarkByName("tpc-w");
    const RunResult a =
        simulateSampled(config, profile, smallRun(), fixed);
    const RunResult b =
        simulateSampled(config, profile, smallRun(), adaptive);
    EXPECT_EQ(encoded(a), encoded(b));
}

TEST(SamplingDeathTest, RejectsOversizedWindows)
{
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    RunOptions opts = smallRun(); // span 9600, 4 windows -> max 2400
    SamplingOptions sopts = smallSampling();
    sopts.windowOps = 3000;
    EXPECT_DEATH(simulateSampled(config, benchmarkByName("tpc-w"), opts,
                                 sopts),
                 "do not fit");
}

TEST(SamplingDeathTest, RejectsWarmupPastEnd)
{
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    RunOptions opts = smallRun();
    opts.warmupOps = opts.opsPerCpu;
    EXPECT_DEATH(simulateSampled(config, benchmarkByName("tpc-w"), opts,
                                 smallSampling()),
                 "warmup");
}

TEST(SamplingDeathTest, RejectsDma)
{
    SystemConfig config = makeDefaultConfig().withCgct(512);
    config.dma.enabled = true;
    EXPECT_DEATH(simulateSampled(config, benchmarkByName("tpc-w"),
                                 smallRun(), smallSampling()),
                 "DMA");
}

TEST(Sampling, JournalRoundTripsSamplingTail)
{
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    const RunResult in = simulateSampled(config, benchmarkByName("tpc-w"),
                                         smallRun(), smallSampling());
    ASSERT_NE(in.sampling, nullptr);

    Serializer s;
    encodeRunResult(s, in);
    SectionReader r(s.buffer().data(), s.buffer().data() + s.size(),
                    "roundtrip");
    const RunResult out = decodeRunResult(r);
    ASSERT_NE(out.sampling, nullptr);
    EXPECT_EQ(out.sampling->windows, in.sampling->windows);
    EXPECT_EQ(out.sampling->warmMode, in.sampling->warmMode);
    EXPECT_DOUBLE_EQ(out.sampling->scale, in.sampling->scale);
    EXPECT_DOUBLE_EQ(out.sampling->cycles.ci95Half,
                     in.sampling->cycles.ci95Half);
    EXPECT_EQ(encoded(in), encoded(out));
}

TEST(Sampling, JournalDecodeAcceptsRecordsWithoutTail)
{
    // Records journaled by a full-detail sweep end at the distribution
    // list; the decoder must not read past them.
    RunResult in;
    in.workload = "tpc-w";
    in.cycles = 123;
    Serializer s;
    encodeRunResult(s, in);
    // Strip the "no sampling" marker and the topology tail to mimic an
    // old record that ends at the distribution list.
    Serializer tail;
    tail.b(false);
    tail.str(in.topology);
    tail.u32(in.nodes);
    tail.u64(in.localResolves);
    tail.u64(in.interChipBroadcasts);
    SectionReader r(s.buffer().data(),
                    s.buffer().data() + s.size() - tail.size(),
                    "old-record");
    const RunResult out = decodeRunResult(r);
    EXPECT_EQ(out.cycles, 123u);
    EXPECT_EQ(out.sampling, nullptr);
    EXPECT_EQ(out.topology, "bus");
    EXPECT_EQ(out.nodes, 4u);
}

TEST(Sampling, SweepEmitsCiColumns)
{
    SweepSpec spec;
    spec.profiles.push_back(&benchmarkByName("tpc-w"));
    spec.regionSizes = {0, 512};
    spec.seedsPerCell = 1;
    spec.opts = smallRun();
    spec.baseConfig = makeDefaultConfig();
    spec.sampled = true;
    spec.sampling = smallSampling();

    std::ostringstream os;
    writeSweepCsvHeader(os, true);
    SweepRunner runner(spec, 2);
    const std::vector<RunResult> results = runner.run(
        [&os](const SweepCell &, const RunResult &r) {
            writeSweepCsvRow(os, r, true);
        });
    ASSERT_EQ(results.size(), 2u);

    std::istringstream is(os.str());
    std::string line;
    std::getline(is, line);
    EXPECT_NE(line.find(",windows,window_ops,warm_mode,"),
              std::string::npos);
    const auto columns = [](const std::string &row) {
        return 1 + static_cast<int>(
                       std::count(row.begin(), row.end(), ','));
    };
    const int header_cols = columns(line);
    while (std::getline(is, line)) {
        EXPECT_EQ(columns(line), header_cols);
        EXPECT_NE(line.find(",functional,"), std::string::npos);
    }
}

TEST(Sampling, SweepCsvIdenticalAcrossJobs)
{
    SweepSpec spec;
    spec.profiles.push_back(&benchmarkByName("tpc-w"));
    spec.regionSizes = {0, 512};
    spec.seedsPerCell = 1;
    spec.opts = smallRun();
    spec.baseConfig = makeDefaultConfig();
    spec.sampled = true;
    spec.sampling = smallSampling();

    const auto sweepCsv = [&spec](unsigned jobs) {
        std::ostringstream os;
        writeSweepCsvHeader(os, true);
        SweepRunner runner(spec, jobs);
        runner.run([&os](const SweepCell &, const RunResult &r) {
            writeSweepCsvRow(os, r, true);
        });
        return os.str();
    };
    EXPECT_EQ(sweepCsv(1), sweepCsv(4));
}

TEST(Sampling, RecordedCellAgainstFullDetail)
{
    // The recorded comparison of docs/SAMPLING.md: one default sweep cell
    // (tpc-w, 512 B, 3 full-detail seeds on the sweep seed chain) against
    // one functionally-warmed run of 8 windows x 2000 ops.
    if (CGCT_SANITIZED)
        GTEST_SKIP() << "1.2M-op cell is too slow under sanitizers";
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    const WorkloadProfile &profile = benchmarkByName("tpc-w");
    RunOptions opts;
    opts.opsPerCpu = 1200000;
    opts.warmupOps = opts.opsPerCpu / 5;

    double avoided = 0, miss_ratio = 0, latency = 0;
    std::uint64_t seed = 20050609;
    for (int i = 0; i < 3; ++i) {
        seed = nextSweepSeed(seed);
        opts.seed = seed;
        const RunResult r = simulateOnce(config, profile, opts);
        avoided += r.avoidedFraction();
        miss_ratio += r.l2MissRatio;
        latency += r.avgMissLatency;
    }
    EXPECT_NEAR(avoided / 3, 0.863574, 5e-7);
    EXPECT_NEAR(miss_ratio / 3, 0.356832, 5e-7);
    EXPECT_NEAR(latency / 3, 291.53, 5e-3);

    opts.seed = nextSweepSeed(20050609);
    SamplingOptions sopts;
    sopts.windows = 8;
    sopts.windowOps = 2000;
    sopts.jobs = 1;
    const RunResult sampled = simulateSampled(config, profile, opts, sopts);
    ASSERT_NE(sampled.sampling, nullptr);
    const SamplingInfo &si = *sampled.sampling;
    EXPECT_NEAR(1.0 / si.scale, 0.0167, 5e-5); // detail fraction
    EXPECT_NEAR(si.cycles.ci95Half / si.cycles.mean, 0.0323, 5e-5);
    EXPECT_NEAR(sampled.avoidedFraction(), 0.866755, 5e-7);
    EXPECT_NEAR(si.avoidedFraction.ci95Half, 0.005885, 5e-7);
    EXPECT_NEAR(sampled.l2MissRatio, 0.341431, 5e-7);
    EXPECT_NEAR(si.l2MissRatio.ci95Half, 0.017932, 5e-7);
    EXPECT_NEAR(sampled.avgMissLatency, 291.97, 5e-3);
    EXPECT_NEAR(si.avgMissLatency.ci95Half, 3.27, 5e-3);
}

/**
 * Sampled-output pins: the SHA-256 of encodeRunResult for small
 * functionally-warmed runs across the warm path's variants — both
 * tracker states, the dcbz-heavy profiles, region prefetch hints, the
 * per-chip RCA, the three-state protocol, and the 16-node hierarchy and
 * directory. Any change to a functional-warming transition shows here.
 */
struct PinCase {
    const char *name;
    const char *benchmark;
    TopologyKind topology;
    unsigned nodes;
    std::uint64_t regionBytes; ///< 0 = baseline (CGCT off).
    bool prefetchHints;
    bool sharedRca;
    bool threeState;
    const char *sha256;
};

std::ostream &
operator<<(std::ostream &os, const PinCase &c)
{
    return os << c.name;
}

class SamplingPin : public ::testing::TestWithParam<PinCase>
{
};

TEST_P(SamplingPin, DigestMatches)
{
    const PinCase &c = GetParam();
    SystemConfig config = makeDefaultConfig();
    config.topology.numCpus = c.nodes;
    config.interconnect.topology = c.topology;
    if (c.regionBytes) {
        config = config.withCgct(c.regionBytes);
        config.cgct.regionPrefetchHints = c.prefetchHints;
        config.cgct.sharedPerChip = c.sharedRca;
        config.cgct.threeStateProtocol = c.threeState;
    }
    config.validate();

    RunOptions opts = smallRun();
    SamplingOptions sopts = smallSampling();
    if (c.nodes > 4) {
        opts.opsPerCpu = 6000;
        opts.warmupOps = 1200;
        sopts.windowOps = 250;
    }
    const std::vector<std::uint8_t> bytes = encoded(
        simulateSampled(config, benchmarkByName(c.benchmark), opts, sopts));
    EXPECT_EQ(sha256Hex(bytes.data(), bytes.size()), c.sha256);
}

constexpr TopologyKind kBus = TopologyKind::Bus;
constexpr TopologyKind kHier = TopologyKind::Hier;
constexpr TopologyKind kDir = TopologyKind::Dir;

INSTANTIATE_TEST_SUITE_P(
    Warm, SamplingPin,
    ::testing::Values(
        PinCase{"bus_tpcw_baseline", "tpc-w", kBus, 4, 0, false, false,
                false,
                "ab04e031e4693c1f08ecb2e20dbd5e76f91d1de18628453a8daf3f2bd5d68bfa"},
        PinCase{"bus_tpcw_cgct512", "tpc-w", kBus, 4, 512, false, false,
                false,
                "808a59bdc50dc8bfd9699e108332a0b33546a67486754e7df16db594c48a80c2"},
        PinCase{"bus_tpcb_cgct512", "tpc-b", kBus, 4, 512, false, false,
                false,
                "9bbf3f9412ea744942643767ddcffb984f1e17c6b8e3eb1321d432c048823ac8"},
        PinCase{"bus_specjbb_cgct512", "specjbb2000", kBus, 4, 512, false,
                false, false,
                "26a167e7e2c16cf4f54c0577f054f87006c948e33a9decc37ef17929c34969a6"},
        PinCase{"bus_specweb_hints", "specweb99", kBus, 4, 512, true,
                false, false,
                "9731a1cff5cae3e9bdfba34d04958a86f8bd2b34ea115c1ad09ce7198a4ab3f4"},
        PinCase{"bus_tpch_shared_rca", "tpc-h", kBus, 4, 512, false, true,
                false,
                "2891f41650ebf66575faafcc480e68727b8e83bdc032e6e1644885f41fc0c4a9"},
        PinCase{"bus_barnes_three_state", "barnes", kBus, 4, 256, false,
                false, true,
                "7555e6a1da044ea0ce382dcc9b21ad7d35360dfc1764b6b794d9415a7f264dc2"},
        PinCase{"hier16_tpcw_cgct512", "tpc-w", kHier, 16, 512, false,
                false, false,
                "cf1e564a8a62eb2f8cc3f3a8ed759cba102b04939c0e6802aef521722bb36ff5"},
        PinCase{"dir16_tpcw_cgct512", "tpc-w", kDir, 16, 512, false, false,
                false,
                "7725a9c11fd7dc14f12e54916d2cd39626d2641fb0794f5a849a5ed3f61860b4"},
        PinCase{"hier16_ocean_shared_rca", "ocean", kHier, 16, 512, false,
                true, false,
                "9c56ed761ea38d50f4aa9faa204fab42f2e66584f8d18dd547214caf207d756f"}),
    [](const ::testing::TestParamInfo<PinCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace cgct
