/**
 * @file
 * Whole-run determinism of the sequential event kernel on a multi-chip
 * topology (16 CPUs on 8 chips), for every Table 4 benchmark, baseline
 * and CGCT. Two fresh systems on the same inputs must drain to the same
 * serialized architectural state — caches, workload cursors, clocks and
 * executed-event counts, not just the statistics — and a run restored
 * from a mid-run checkpoint must finish byte-identical to the run that
 * wrote it. The single-chip default topology is covered by
 * test_snapshot_restore; this suite adds the hierarchical interconnect.
 * Label: snapshot.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/system.hpp"
#include "snapshot/journal.hpp"
#include "snapshot/serializer.hpp"
#include "snapshot/snapshot.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"

namespace cgct {
namespace {

constexpr std::uint64_t kOps = 6000;
constexpr std::uint64_t kInterval = 2000; // Two drains inside kOps.

std::vector<std::uint8_t>
encoded(const RunResult &r)
{
    Serializer s;
    encodeRunResult(s, r);
    return s.buffer();
}

std::string
paramName(const std::tuple<std::string, std::uint64_t> &param)
{
    std::string name = std::get<0>(param);
    for (char &ch : name)
        if (ch == '-')
            ch = '_';
    const std::uint64_t region = std::get<1>(param);
    return name + (region ? "_r" + std::to_string(region) : "_baseline");
}

class RunDeterminism
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::uint64_t>>
{
  protected:
    static SystemConfig
    config()
    {
        SystemConfig c = makeDefaultConfig();
        c.topology.numCpus = 16;
        c.topology.cpusPerChip = 2; // 8 chips.
        c.validate();
        const std::uint64_t region = std::get<1>(GetParam());
        return region ? c.withCgct(region) : c;
    }

    static const WorkloadProfile &
    profile()
    {
        return benchmarkByName(std::get<0>(GetParam()));
    }

    static RunOptions
    options()
    {
        RunOptions opts;
        opts.opsPerCpu = kOps;
        opts.warmupOps = kOps / 5;
        opts.seed = 7;
        return opts;
    }
};

TEST_P(RunDeterminism, DrainedStateIsByteIdentical)
{
    const SystemConfig c = config();
    const auto drainedState = [&] {
        SyntheticWorkload w(profile(), c.topology.numCpus, kOps, 7);
        System sys(c, w);
        sys.start();
        sys.run(UINT64_MAX);
        EXPECT_TRUE(sys.allCoresFinished());
        EXPECT_GT(sys.eq().executed(), 0u);
        Serializer s;
        sys.serializeState(s);
        return s.buffer();
    };
    const std::vector<std::uint8_t> first = drainedState();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, drainedState());
}

TEST_P(RunDeterminism, RestoreMidRunMatchesUninterruptedRun)
{
    const SystemConfig c = config();
    const std::string prefix = std::string(::testing::TempDir()) +
                               "run_det_" + paramName(GetParam());

    CheckpointOptions writing;
    writing.everyOps = kInterval;
    writing.writePrefix = prefix;
    const RunResult full =
        simulateCheckpointed(c, profile(), options(), writing);
    EXPECT_GT(full.cycles, 0u);

    CheckpointOptions restoring;
    restoring.everyOps = kInterval;
    restoring.restorePath = prefix + "." + std::to_string(kInterval);
    const RunResult resumed =
        simulateCheckpointed(c, profile(), options(), restoring);
    EXPECT_EQ(encoded(full), encoded(resumed))
        << "restored run diverged from the uninterrupted run";

    for (std::uint64_t at = kInterval; at < kOps; at += kInterval)
        std::remove((prefix + "." + std::to_string(at)).c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Hier16, RunDeterminism,
    ::testing::Combine(
        ::testing::Values("ocean", "raytrace", "barnes", "specint2000rate",
                          "specweb99", "specjbb2000", "tpc-w", "tpc-b",
                          "tpc-h"),
        ::testing::Values(0ULL, 512ULL)),
    [](const auto &info) { return paramName(info.param); });

} // namespace
} // namespace cgct
