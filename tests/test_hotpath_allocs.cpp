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
 *
 * The layers underneath are held to exactly zero, each in isolation: the
 * event kernel's self-rescheduling loop (with and without events beyond
 * the wheel horizon), cache-array and RCA lookup/allocate churn, and the
 * MSHR + pooled-waiter request bookkeeping.
 *
 * The same operator new also tracks live heap bytes (malloc_usable_size).
 * They bound a sampled run's peak heap, which must not grow with the
 * window count, and a 16-node hier System's heap, which must stay within
 * its tag frames plus 32 KiB per node.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <malloc.h>
#include <new>
#include <optional>
#include <string>
#include <vector>
#include <unistd.h>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "common/addr_table.hpp"
#include "common/inline_function.hpp"
#include "common/pool_fifo.hpp"
#include "core/rca.hpp"
#include "event/event_queue.hpp"
#include "sim/sampling.hpp"
#include "sim/simulator.hpp"
#include "sim/system.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
/** Bytes held by live operator-new blocks, and their high-water mark. */
std::atomic<std::uint64_t> g_liveBytes{0};
std::atomic<std::uint64_t> g_peakLiveBytes{0};

void *
countedAlloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    const std::uint64_t bytes = malloc_usable_size(p);
    const std::uint64_t live =
        g_liveBytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::uint64_t peak = g_peakLiveBytes.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_peakLiveBytes.compare_exchange_weak(
               peak, live, std::memory_order_relaxed))
        ;
    return p;
}

void
countedFree(void *p)
{
    if (p)
        g_liveBytes.fetch_sub(malloc_usable_size(p),
                              std::memory_order_relaxed);
    std::free(p);
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }

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

/** Peak operator-new bytes live while @p body runs, above those live
 *  when it starts. */
template <typename F>
std::uint64_t
peakLiveBytesDuring(F &&body)
{
    const std::uint64_t base = g_liveBytes.load(std::memory_order_relaxed);
    g_peakLiveBytes.store(base, std::memory_order_relaxed);
    body();
    return g_peakLiveBytes.load(std::memory_order_relaxed) - base;
}

TEST(HotpathAllocsTest, SampledPeakHeapDoesNotGrowWithWindows)
{
    // Warm, snapshot and measure stream one window at a time, so a
    // serial sampled run holds one warm System, one window System and
    // one CGCTSNAP image (about 6 MB here) whatever K is. Keeping every
    // image until the warm pass ends would add 12 images at K = 16.
    const SystemConfig config = cellConfig();
    RunOptions opts;
    opts.opsPerCpu = 40000;
    opts.warmupOps = 8000;
    opts.seed = 7;
    SamplingOptions sopts;
    sopts.windowOps = 500;
    sopts.jobs = 1;
    const WorkloadProfile &profile = benchmarkByName("tpc-w");

    const auto peak_at = [&](std::uint64_t k) {
        sopts.windows = k;
        return peakLiveBytesDuring(
            [&] { simulateSampled(config, profile, opts, sopts); });
    };
    const std::uint64_t k4 = peak_at(4);
    const std::uint64_t k16 = peak_at(16);
    std::printf("sampled tpc-w peak live heap: %.1f MB at K=4, %.1f MB at "
                "K=16\n",
                static_cast<double>(k4) / 1e6,
                static_cast<double>(k16) / 1e6);
    constexpr std::uint64_t kSlack = 256 * 1024; // per-window results
    EXPECT_LE(k16, k4 + kSlack);
}

TEST(HotpathAllocsTest, HierNodeHeapIsItsTagFrames)
{
    // A node's heap is its tag frames: the L1I, L1D and L2 lines and the
    // RCA entries, 32 bytes each, 34 304 of them at Table 3's geometry.
    // The slack covers everything else a node and its share of the
    // system hold (MSHR tables, pools, rings, statistics). A side array
    // per set would not fit in it: one u64 and one byte per set were
    // 147 KiB per node.
    SystemConfig config = makeDefaultConfig();
    config.topology.numCpus = 16;
    config.interconnect.topology = TopologyKind::Hier;
    config = config.withCgct(512);
    const std::uint64_t frames =
        config.l1i.numLines() + config.l1d.numLines() +
        config.l2.numLines() + config.cgct.rcaEntries();
    ASSERT_EQ(frames, 34304u);
    static_assert(sizeof(CacheLine) == 32 && sizeof(RegionEntry) == 32);

    SyntheticWorkload workload(benchmarkByName("tpc-w"),
                               config.topology.numCpus, kOpsPerCpu, 7);
    const std::uint64_t base = g_liveBytes.load(std::memory_order_relaxed);
    System sys(config, workload);
    const std::uint64_t per_node =
        (g_liveBytes.load(std::memory_order_relaxed) - base) /
        config.topology.numCpus;
    std::printf("16-node hier System: %.1f KiB of heap per node, %.1f KiB "
                "of it tag frames\n",
                static_cast<double>(per_node) / 1024,
                static_cast<double>(frames * 32) / 1024);
    EXPECT_LE(per_node, frames * 32 + 32 * 1024);
}

/** Heap allocations made while @p body runs. */
template <typename F>
std::uint64_t
allocsDuring(F &&body)
{
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    body();
    return g_allocs.load(std::memory_order_relaxed) - a0;
}

/**
 * A fixed population of self-rescheduling events at the simulator's
 * characteristic latencies and priority classes (bus slot, snoop, L2
 * fill, DRAM, CPU quantum). With @p far_mix, 1 in 32 lands beyond the
 * wheel horizon and goes through the overflow heap. Warm-up sizes every
 * bucket FIFO and the heap; the measured span may only reuse capacity.
 */
std::uint64_t
kernelLoopAllocs(bool far_mix)
{
    struct Pattern {
        Tick delay;
        EventPriority prio;
    };
    static constexpr Pattern kPatterns[] = {
        {2, EventPriority::Snoop},   {16, EventPriority::Snoop},
        {12, EventPriority::Data},   {80, EventPriority::Memory},
        {400, EventPriority::Cpu},   {1, EventPriority::Default},
    };
    constexpr unsigned kNumPatterns = 6;

    struct Ticker {
        EventQueue *eq;
        std::uint64_t *fired;
        unsigned idx;
        bool farMix;

        void
        operator()()
        {
            ++*fired;
            Ticker next = *this;
            next.idx = (idx + 7) % kNumPatterns;
            Tick delay = kPatterns[next.idx].delay;
            if (farMix && (*fired & 31u) == 0)
                delay += EventQueue::kWheelTicks + (*fired % 2048);
            eq->scheduleIn(delay, next, kPatterns[next.idx].prio);
        }
    };

    EventQueue eq;
    std::uint64_t fired = 0;
    for (unsigned i = 0; i < 64; ++i) {
        const Ticker t{&eq, &fired, i % kNumPatterns, far_mix};
        eq.scheduleIn(kPatterns[t.idx].delay, t, kPatterns[t.idx].prio);
    }
    eq.run(100000);
    std::uint64_t ran = 0;
    const std::uint64_t allocs = allocsDuring([&] { ran = eq.run(200000); });
    EXPECT_EQ(ran, 200000u);
    return allocs;
}

TEST(HotpathAllocsTest, EventKernelSteadyLoopIsAllocationFree)
{
    EXPECT_EQ(kernelLoopAllocs(/*far_mix=*/false), 0u);
}

TEST(HotpathAllocsTest, EventKernelFarmixLoopIsAllocationFree)
{
    EXPECT_EQ(kernelLoopAllocs(/*far_mix=*/true), 0u);
}

constexpr std::uint64_t kLoopOps = 200000;

/** xorshift64*: a deterministic, allocation-free address stream. */
struct Rng {
    std::uint64_t s;

    std::uint64_t
    next()
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545F4914F6CDD1Dull;
    }
};

TEST(HotpathAllocsTest, CacheHitLoopIsAllocationFree)
{
    // L2-like geometry, fully resident: every probe hits, alternating
    // repeated hits on one line with random lines.
    CacheArray array("cache", 1024, 8, 64);
    constexpr std::uint64_t kLines = 1024 * 8;
    std::optional<CacheLine> ev;
    for (std::uint64_t i = 0; i < kLines; ++i)
        array.allocate(i * 64, ev)->state = LineState::Shared;

    Rng rng{0x1234ABCD5678EFull};
    std::uint64_t hits = 0;
    EXPECT_EQ(allocsDuring([&] {
                  for (std::uint64_t i = 0; i < kLoopOps; ++i) {
                      const Addr line =
                          (i & 3) ? rng.next() % kLines : i % kLines;
                      hits += array.find(line * 64) != nullptr;
                  }
              }),
              0u);
    EXPECT_EQ(hits, kLoopOps);
}

TEST(HotpathAllocsTest, CacheMixLoopIsAllocationFree)
{
    // Lookups, allocations and invalidations over a working set 4x the
    // array: the LRU victim scan and the eviction report.
    CacheArray array("cache", 512, 8, 64);
    constexpr std::uint64_t kWorkingSet = 512 * 8 * 4;
    Rng rng{0xFEEDFACE1234ull};
    std::uint64_t evictions = 0;
    EXPECT_EQ(allocsDuring([&] {
                  for (std::uint64_t i = 0; i < kLoopOps; ++i) {
                      const Addr addr = (rng.next() % kWorkingSet) * 64;
                      if (CacheLine *line = array.find(addr)) {
                          array.touch(*line, i);
                      } else if ((i & 3) == 0) {
                          std::optional<CacheLine> ev;
                          CacheLine *fill = array.allocate(addr, ev);
                          fill->state = (i & 8) ? LineState::Modified
                                                : LineState::Shared;
                          fill->lastUse = i;
                          evictions += ev.has_value();
                      } else if ((i & 63) == 1) {
                          array.invalidate(addr - 64);
                      }
                  }
              }),
              0u);
    EXPECT_GT(evictions, 0u);
}

TEST(HotpathAllocsTest, RcaMixLoopIsAllocationFree)
{
    // Region lookups and allocations under favor-empty replacement, with
    // line counts wobbling so both victim classes occur.
    RegionCoherenceArray rca(256, 16, 512, /*favor_empty=*/true);
    constexpr std::uint64_t kRegions = 256 * 16 * 4;
    Rng rng{0xDEADBEEF42ull};
    std::uint64_t evictions = 0;
    EXPECT_EQ(allocsDuring([&] {
                  for (std::uint64_t i = 0; i < kLoopOps; ++i) {
                      const Addr addr = (rng.next() % kRegions) * 512;
                      if (RegionEntry *entry = rca.find(addr)) {
                          rca.touch(*entry, i);
                          if ((i & 7) == 0)
                              entry->lineCount =
                                  static_cast<std::uint32_t>(i & 3);
                      } else if ((i & 1) == 0) {
                          RegionEviction ev;
                          RegionEntry *fill = rca.allocate(addr, i, ev);
                          fill->state = (i & 4)
                                            ? RegionState::DirtyInvalid
                                            : RegionState::CleanInvalid;
                          evictions += ev.valid;
                      }
                  }
              }),
              0u);
    EXPECT_GT(evictions, 0u);
}

TEST(HotpathAllocsTest, MshrChurnLoopIsAllocationFree)
{
    // The request chain's bookkeeping, minus the protocol: MSHR allocate
    // with a per-slot miss record, merges queueing pooled waiters,
    // and release draining them (Node::issueSystemRequest's shape).
    using Fn = InlineFunction<void(Tick), 48>;
    constexpr unsigned kCapacity = 16;
    MshrFile mshr(kCapacity);
    std::vector<Fn> ctx(kCapacity);
    AddrTable<PoolFifo<Fn>::List> waiters;
    PoolFifo<Fn> pool;
    Addr inflight[kCapacity] = {};
    unsigned head = 0, count = 0;
    std::uint64_t completions = 0;

    Rng rng{0xC0FFEE5EEDull};
    const auto churn = [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) {
            const Addr line = (rng.next() % 4096) * 64;
            if (mshr.contains(line)) {
                pool.push(waiters.findOrInsert(line),
                          Fn{[&completions](Tick) { ++completions; }});
            } else if (count < kCapacity) {
                const std::uint32_t slot = mshr.allocate(line);
                ctx[slot] = Fn{[&completions](Tick) { ++completions; }};
                inflight[(head + count) % kCapacity] = line;
                ++count;
            } else {
                // The oldest fill completes: run its context, wake waiters.
                const Addr done_line = inflight[head];
                head = (head + 1) % kCapacity;
                --count;
                Fn done = std::move(ctx[mshr.slotOf(done_line)]);
                mshr.release(done_line);
                if (done)
                    done(static_cast<Tick>(i));
                PoolFifo<Fn>::List list;
                if (waiters.take(done_line, list)) {
                    Fn w;
                    while (pool.pop(list, w))
                        w(static_cast<Tick>(i));
                }
            }
        }
    };

    // Pre-grow the waiter pool and table past any plausible high-water
    // mark, so the gate does not depend on what warm-up happened to hit.
    {
        PoolFifo<Fn>::List scratch;
        for (int i = 0; i < 4096; ++i)
            pool.push(scratch, Fn{[](Tick) {}});
        Fn w;
        while (pool.pop(scratch, w)) {
        }
        for (Addr k = 0; k < 256; ++k)
            waiters.insert(k * 2 + 1); // odd keys: never a line address
        for (Addr k = 0; k < 256; ++k)
            waiters.erase(k * 2 + 1);
    }
    churn(kLoopOps / 10);

    EXPECT_EQ(allocsDuring([&] { churn(kLoopOps); }), 0u);
    EXPECT_GT(completions, 0u);
}

} // namespace
} // namespace cgct
