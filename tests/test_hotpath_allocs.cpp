/**
 * @file
 * Hot-path allocation gate. A counting global operator new tallies every
 * heap allocation in the process; the test runs one flat-bus CGCT cell
 * (tpc-w, 512 B regions) exactly as simulateOnce does and requires the
 * post-warm-up half of System::run to stay under one allocation per 1000
 * ops. Every structure on the timed path (event pool, MSHR and waiter
 * pools, the core's load ring, the bus's grant ring) grows to its
 * high-water mark during warm-up and is recycled afterwards, so a
 * regression to per-op allocation shows up here as hundreds per 1000.
 * A trace replay's allocations are printed for reference, not gated.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <unistd.h>

#include "sim/simulator.hpp"
#include "sim/system.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace cgct {
namespace {

constexpr std::uint64_t kOpsPerCpu = 20000;

SystemConfig
cellConfig()
{
    return makeDefaultConfig().withCgct(512, 8192, 2);
}

RunOptions
cellOptions()
{
    RunOptions opts;
    opts.opsPerCpu = kOpsPerCpu;
    opts.warmupOps = kOpsPerCpu / 2;
    opts.seed = 7;
    return opts;
}

TEST(HotpathAllocsTest, PostWarmupRunIsAllocationFree)
{
    const SystemConfig config = cellConfig();
    const RunOptions opts = cellOptions();
    const WorkloadProfile &profile = benchmarkByName("tpc-w");

    // simulateOnce's body, with System::run split at the warm-up reset.
    SyntheticWorkload workload(profile, config.topology.numCpus,
                               opts.opsPerCpu, opts.seed);
    System sys(config, workload);
    Tick measure_start = 0;
    bool warmed = false;
    sys.start();
    scheduleWarmupCheck(
        sys, [&workload] { return workload.minOpsDrawn(); },
        opts.warmupOps, &measure_start, &warmed);
    while (!warmed && !sys.allCoresFinished())
        sys.run(1000);
    ASSERT_TRUE(warmed) << "the run ended before its warm-up reset";

    std::uint64_t ops_before = 0;
    for (unsigned i = 0; i < config.topology.numCpus; ++i)
        ops_before += sys.core(i).memOps();
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    sys.run(opts.maxEvents);
    const std::uint64_t allocs =
        g_allocs.load(std::memory_order_relaxed) - a0;
    ASSERT_TRUE(sys.allCoresFinished());
    std::uint64_t ops = 0;
    for (unsigned i = 0; i < config.topology.numCpus; ++i)
        ops += sys.core(i).memOps();
    ops -= ops_before;

    const double per_kop =
        static_cast<double>(allocs) / (static_cast<double>(ops) / 1e3);
    std::printf("post-warm-up System::run: %llu allocations over %llu ops "
                "(%.3f per 1000 ops)\n",
                static_cast<unsigned long long>(allocs),
                static_cast<unsigned long long>(ops), per_kop);
    EXPECT_GT(ops, kOpsPerCpu);
    EXPECT_LE(per_kop, 1.0);

    // The split run is the simulateOnce cell itself.
    const RunResult split =
        collectRunResult(sys, profile.name, opts.seed, measure_start);
    const RunResult once = simulateOnce(config, profile, opts);
    EXPECT_EQ(split.cycles, once.cycles);
    EXPECT_EQ(split.broadcasts, once.broadcasts);
    EXPECT_EQ(split.oracleUnnecessary, once.oracleUnnecessary);
}

TEST(HotpathAllocsTest, ReplayAllocationsReported)
{
    const SystemConfig config = cellConfig();
    RunOptions opts = cellOptions();
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("cgct_allocs_" + std::to_string(::getpid()) + ".trace"))
            .string();
    opts.capturePath = path;
    simulateOnce(config, benchmarkByName("tpc-w"), opts);
    opts.capturePath.clear();

    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    const RunResult r = simulateReplay(config, path, opts);
    const std::uint64_t allocs =
        g_allocs.load(std::memory_order_relaxed) - a0;
    std::filesystem::remove(path);

    const double ops =
        static_cast<double>(kOpsPerCpu * config.topology.numCpus);
    std::printf("simulateReplay (set-up included): %llu allocations over "
                "%.0f ops (%.2f per 1000 ops)\n",
                static_cast<unsigned long long>(allocs), ops,
                static_cast<double>(allocs) / (ops / 1e3));
    EXPECT_GT(r.cycles, 0u);
}

} // namespace
} // namespace cgct
