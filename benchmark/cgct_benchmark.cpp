/**
 * @file
 * cgct_benchmark — one run of one named benchmark workload against
 * libcgct, in process: a closed loop with one caller and one simulation at
 * a time. benchmark/run.py builds and drives it and checks its output;
 * benchmark/README.md describes the workloads and metrics.
 *
 *   cgct_benchmark --workload hier16-tpcw --seed 7 --seconds 20 --trace 0
 *
 * A run has two phases. Set-up derives the jobs from the seed, runs the
 * fixed-seed golden jobs and times repeated simulation set-ups. The
 * measured loop then runs blocks of jobs until the next block would end
 * past --seconds. Untraced jobs call the entry points users call
 * (simulateOnce, simulateSampled, simulateReplay). A traced run follows
 * each of those with an instrumented copy that calls the public steps one
 * by one under spans, then runs isolated layer probes. The output is one
 * JSON object on stdout: every job's CSV row and the metrics.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <new>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/argparse.hpp"
#include "common/config.hpp"
#include "common/log.hpp"
#include "common/random.hpp"
#include "sim/sampling.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "sim/system.hpp"
#include "snapshot/serializer.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"
#include "workload/trace_replay.hpp"

#include "layer_probes.hpp"
#include "spans.hpp"

namespace {

/** Heap allocations made by the whole process (sim.allocs_per_kop). */
std::atomic<std::uint64_t> g_allocs{0};

} // namespace

// Out of line, so that GCC does not pair the malloc/free inside with the
// new/delete expressions at call sites (-Wmismatched-new-delete).
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace cgct;
using bench::Clock;
using bench::ScopedSpan;
using bench::secondsBetween;
using bench::SpanLog;

constexpr std::uint64_t kDefaultSeed = 20050609;

// Job sizes. The full sizes keep each hier16/sampled/replay job near 1 s
// on a 2-core Xeon, so a 20 s run holds about 18 of them; the golden
// sizes keep the fixed-seed reference jobs well under a second.
constexpr std::uint64_t kSweepOps = 120000;       // cgct_sweep default
constexpr std::uint64_t kHierOps = 150000;
constexpr std::uint64_t kHierGoldenOps = 20000;
constexpr std::uint64_t kSampledOps = 1500000;
constexpr std::uint64_t kSampledWindows = 16;
constexpr std::uint64_t kSampledWindowOps = 2000;
constexpr std::uint64_t kSampledGoldenOps = 200000;
constexpr std::uint64_t kSampledGoldenWindows = 8;
constexpr std::uint64_t kSampledGoldenWindowOps = 1000;
constexpr std::uint64_t kSampledProbeOps = 100000;
constexpr std::uint64_t kReplayOps = 500000;
constexpr std::uint64_t kReplayGoldenOps = 40000;

/** Ops drawn by the isolated frontend probe, and accesses of the cache
 *  and RCA probes. */
constexpr std::uint64_t kProbeDraws = 450000;
constexpr std::uint64_t kProbeAccesses = 2000000;
constexpr std::uint64_t kProbeEvents = 2000000;

/**
 * bench::calibrationSeconds() on an undisturbed 2-vCPU Xeon guest (the
 * host the baseline was recorded on). Host-time end-to-end metrics are
 * scaled by this over the run's own calibration time, so they read as
 * seconds on that host at that speed.
 */
constexpr double kCalibrationRefS = 0.0072;

/** One simulation: what simulateOnce / simulateSampled / simulateReplay
 *  take, plus the label its CSV row carries. */
struct Job {
    std::string name;                         ///< Row label.
    const WorkloadProfile *profile = nullptr; ///< Null for a replay.
    std::string tracePath;                    ///< Replay input.
    SystemConfig config;
    RunOptions opts;
    bool sampled = false;
    SamplingOptions sampling;

    unsigned cpus() const { return config.topology.numCpus; }
    /** Memory ops the simulation consumes, all CPUs, warmup included. */
    std::uint64_t ops() const { return opts.opsPerCpu * cpus(); }
    /** Memory ops after warmup, all CPUs: the measured window. */
    std::uint64_t measuredOps() const
    {
        return (opts.opsPerCpu - opts.warmupOps) * cpus();
    }
};

SystemConfig
cgctConfig(unsigned cpus, TopologyKind topology)
{
    SystemConfig c = makeDefaultConfig();
    c.topology.numCpus = cpus;
    c.interconnect.topology = topology;
    return c.withCgct(512);
}

Job
generatedJob(const WorkloadProfile &profile, const SystemConfig &config,
             std::uint64_t ops, std::uint64_t seed)
{
    Job j;
    j.name = profile.name;
    j.profile = &profile;
    j.config = config;
    j.opts.opsPerCpu = ops;
    j.opts.warmupOps = ops / 5; // the cgct_sim / cgct_sweep default
    j.opts.seed = seed;
    return j;
}

Job
sampledJob(const SystemConfig &config, std::uint64_t ops,
           std::uint64_t windows, std::uint64_t window_ops,
           std::uint64_t seed)
{
    Job j = generatedJob(benchmarkByName("tpc-w"), config, ops, seed);
    j.sampled = true;
    j.sampling.windows = windows;
    j.sampling.windowOps = window_ops;
    j.sampling.warmMode = WarmMode::Functional;
    j.sampling.jobs = 1;
    return j;
}

/** Replay of a trace captured from generatedJob(tpc-h, config, ops, seed):
 *  same label, seed and warmup, so its row must equal the live run's. */
Job
replayJob(const std::string &path, const SystemConfig &config,
          std::uint64_t ops, std::uint64_t seed)
{
    Job j = generatedJob(benchmarkByName("tpc-h"), config, ops, seed);
    j.profile = nullptr;
    j.tracePath = path;
    return j;
}

/** The 108 cells of the default cgct_sweep matrix, in its row order. */
std::vector<Job>
defaultSweepCells()
{
    SweepSpec spec;
    for (const WorkloadProfile &p : standardBenchmarks())
        spec.profiles.push_back(&p);
    spec.regionSizes = {0, 256, 512, 1024};
    spec.seedsPerCell = 3;
    spec.baseSeed = kDefaultSeed;
    const SystemConfig base = makeDefaultConfig();
    std::vector<Job> cells;
    for (const SweepCell &c : spec.expand()) {
        Job j = generatedJob(*c.profile,
                             c.regionBytes ? base.withCgct(c.regionBytes)
                                           : base,
                             kSweepOps, c.seed);
        cells.push_back(std::move(j));
    }
    return cells;
}

template <class T>
void
shuffleWith(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.nextBelow(i)]);
}

/**
 * The default matrix as 12 blocks of 9 cells, one cell per profile, so
 * that any run of whole blocks has the same profile mix. Block b gives
 * profile p region (b + offset[p]) mod 4 and seed slot b / 4, which uses
 * every cell exactly once, and the 4 blocks of one seed slot together
 * hold all 36 profile x region cells. Blocks stay grouped by seed slot;
 * the seed picks the offsets, the slot order, the block order inside a
 * slot and the cell order inside a block.
 */
std::vector<std::vector<Job>>
sweepBlocks(std::uint64_t seed)
{
    const std::vector<Job> cells = defaultSweepCells();
    constexpr unsigned kProfiles = 9, kRegions = 4, kSeeds = 3;
    if (cells.size() != kProfiles * kRegions * kSeeds)
        fatal("benchmark: the default sweep has %zu cells, expected %u",
              cells.size(), kProfiles * kRegions * kSeeds);
    Rng rng(seed);
    std::vector<unsigned> offset(kProfiles);
    std::iota(offset.begin(), offset.end(), 0u);
    shuffleWith(offset, rng);
    std::vector<unsigned> slots(kSeeds), order;
    std::iota(slots.begin(), slots.end(), 0u);
    shuffleWith(slots, rng);
    for (unsigned slot : slots) {
        std::vector<unsigned> in_slot(kRegions);
        std::iota(in_slot.begin(), in_slot.end(), slot * kRegions);
        shuffleWith(in_slot, rng);
        order.insert(order.end(), in_slot.begin(), in_slot.end());
    }

    std::vector<std::vector<Job>> blocks;
    for (unsigned b : order) {
        std::vector<Job> block;
        for (unsigned p = 0; p < kProfiles; ++p) {
            const unsigned r = (b + offset[p]) % kRegions;
            const unsigned s = b / kRegions;
            block.push_back(cells[(p * kRegions + r) * kSeeds + s]);
        }
        shuffleWith(block, rng);
        blocks.push_back(std::move(block));
    }
    return blocks;
}

/** A named workload: the jobs its measured loop cycles through, its
 *  fixed-seed golden jobs, and (sampled only) a detailed stand-in for the
 *  per-layer numbers a sampled run cannot expose. */
struct Workload {
    std::vector<std::vector<Job>> blocks;
    /** Blocks every run completes; the modelled metrics cover them. */
    std::size_t firstBlocks = 1;
    std::vector<Job> golden;
    std::vector<Job> probe;
};

Workload
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &trace_file, const std::string &scratch)
{
    // Every single-simulation workload seeds its run with the first link
    // of the cgct_sim / cgct_sweep seed chain, so `--seed S` reproduces
    // `cgct_sim ... --seed S`.
    const std::uint64_t sim_seed = nextSweepSeed(seed);
    const std::uint64_t golden_seed = nextSweepSeed(kDefaultSeed);
    const WorkloadProfile &tpcw = benchmarkByName("tpc-w");
    const WorkloadProfile &tpch = benchmarkByName("tpc-h");
    Workload w;
    if (name == "sweep-default") {
        // No golden jobs: every sweep job is checked against its frozen
        // default-sweep row.
        w.blocks = sweepBlocks(seed);
        w.firstBlocks = 4; // one whole seed slot: all 36 profile x region
    } else if (name == "hier16-tpcw") {
        const SystemConfig cfg = cgctConfig(16, TopologyKind::Hier);
        w.blocks = {{generatedJob(tpcw, cfg, kHierOps, sim_seed)}};
        w.golden = {generatedJob(tpcw, cfg, kHierGoldenOps, golden_seed)};
    } else if (name == "sampled-tpcw") {
        const SystemConfig cfg = cgctConfig(4, TopologyKind::Bus);
        w.blocks = {{sampledJob(cfg, kSampledOps, kSampledWindows,
                                kSampledWindowOps, sim_seed)}};
        w.golden = {sampledJob(cfg, kSampledGoldenOps,
                               kSampledGoldenWindows,
                               kSampledGoldenWindowOps, golden_seed)};
        w.probe = {generatedJob(tpcw, cfg, kSampledProbeOps, sim_seed)};
    } else if (name == "replay-tpch") {
        const SystemConfig cfg = cgctConfig(4, TopologyKind::Bus);
        if (!trace_file.empty())
            w.blocks = {{replayJob(trace_file, cfg, kReplayOps, sim_seed)}};
        // Golden: a live capture, then its replay.
        Job live = generatedJob(tpch, cfg, kReplayGoldenOps, golden_seed);
        live.opts.capturePath = scratch + "/golden-replay.trace";
        w.golden = {live, replayJob(live.opts.capturePath, cfg,
                                    kReplayGoldenOps, golden_seed)};
    } else {
        fatal("benchmark: unknown workload '%s' (sweep-default, "
              "hier16-tpcw, sampled-tpcw, replay-tpch)",
              name.c_str());
    }
    return w;
}

/** The job's CSV row as cgct_sweep would print it (no newline). */
std::string
csvRow(const Job &j, const RunResult &r)
{
    const bool topo = j.cpus() != 4 ||
                      j.config.interconnect.topology != TopologyKind::Bus;
    std::ostringstream os;
    writeSweepCsvRow(os, r, j.sampled, topo);
    std::string row = os.str();
    if (!row.empty() && row.back() == '\n')
        row.pop_back();
    return row;
}

/** The user-facing entry point for the job. */
RunResult
runPlain(const Job &j)
{
    if (j.sampled)
        return simulateSampled(j.config, *j.profile, j.opts, j.sampling);
    if (j.profile)
        return simulateOnce(j.config, *j.profile, j.opts);
    RunResult r = simulateReplay(j.config, j.tracePath, j.opts);
    r.workload = j.name; // simulateReplay labels rows "trace:<path>"
    return r;
}

/** A job's op source and the warmup progress query simulateOnce /
 *  simulateReplay use with it. */
struct Source {
    std::unique_ptr<SyntheticWorkload> gen;
    std::unique_ptr<TraceReplay> replay;

    explicit Source(const Job &j)
    {
        if (j.profile) {
            gen = std::make_unique<SyntheticWorkload>(
                *j.profile, j.cpus(), j.opts.opsPerCpu, j.opts.seed);
            return;
        }
        replay = std::make_unique<TraceReplay>(j.tracePath);
        if (replay->numLanes() != j.cpus())
            fatal("benchmark: trace has %u lanes but the system has %u "
                  "CPUs",
                  replay->numLanes(), j.cpus());
    }

    OpSource &get()
    {
        return gen ? static_cast<OpSource &>(*gen) : *replay;
    }
    std::uint64_t minOps() const
    {
        return gen ? gen->minOpsDrawn() : replay->minOpsConsumed();
    }
    std::uint64_t streamOps() const
    {
        return gen ? gen->opsPerCpu() : replay->maxLaneMemOps();
    }
};

/** Whole-run core and L1 totals of a finished detailed simulation. */
struct CoreTotals {
    std::uint64_t instructions = 0;
    std::uint64_t clocks = 0;         ///< Summed per-core clocks.
    std::uint64_t stall[4] = {};      ///< ifetch, load, rob, store.
    std::uint64_t l1dHits = 0;        ///< Post-warmup.
    std::uint64_t l1dMisses = 0;      ///< Post-warmup.
    std::uint64_t prefetches = 0;     ///< Post-warmup.
    std::uint64_t measuredOps = 0;    ///< Post-warmup ops, all CPUs.

    void
    add(const CoreTotals &o)
    {
        instructions += o.instructions;
        clocks += o.clocks;
        for (int i = 0; i < 4; ++i)
            stall[i] += o.stall[i];
        l1dHits += o.l1dHits;
        l1dMisses += o.l1dMisses;
        prefetches += o.prefetches;
        measuredOps += o.measuredOps;
    }
};

/** Everything one instrumented job measured. */
struct Instrumented {
    RunResult result;
    bool detailed = false;      ///< False for an (opaque) sampled job.
    double jobS = 0.0;          ///< setup + run + collect + teardown.
    double setupS = 0.0;
    double runS = 0.0;
    double collectS = 0.0;
    double frontendS = 0.0;     ///< Estimated op-source time inside run.
    std::uint64_t frontendCalls = 0;
    std::uint64_t events = 0;
    std::uint64_t allocs = 0;   ///< During run.
    double saveS = 0.0;
    double restoreS = 0.0;
    std::uint64_t snapshotBytes = 0;
    CoreTotals core;
};

void
checkFinished(System &sys, std::uint64_t executed, const Job &j)
{
    if (executed >= j.opts.maxEvents)
        fatal("benchmark: event cap hit (%llu)",
              static_cast<unsigned long long>(j.opts.maxEvents));
    if (!sys.allCoresFinished())
        panic("benchmark: event queue drained before cores finished");
}

/** Save @p sys (drained) and restore the bytes into a fresh system. */
void
snapshotRoundTrip(System &sys, const Job &j, SpanLog &spans,
                  std::uint32_t sim, Instrumented &out)
{
    Serializer s;
    {
        ScopedSpan span(spans, "snapshot.save", sim);
        const Clock::time_point t0 = Clock::now();
        sys.serializeState(s);
        out.saveS = secondsBetween(t0, Clock::now());
    }
    out.snapshotBytes = s.size();

    Source source(j);
    System target(j.config, source.get());
    Deserializer d;
    const std::string err =
        d.openBytes(makeSnapshotFile(0, s), "benchmark snapshot");
    if (!err.empty())
        fatal("benchmark: %s", err.c_str());
    ScopedSpan span(spans, "snapshot.restore", sim);
    const Clock::time_point t0 = Clock::now();
    target.restoreState(d);
    out.restoreS = secondsBetween(t0, Clock::now());
}

/**
 * The job again, with each public step of simulateOnce / simulateReplay
 * timed under its own span: source + System construction, System::run
 * (with the op source sampled by TimedSource), collectRunResult and
 * teardown. A snapshot round trip of the drained system follows, outside
 * the job's time. A sampled job is timed as one opaque call.
 */
Instrumented
runInstrumented(const Job &j, SpanLog &spans, std::uint32_t sim)
{
    Instrumented out;
    ScopedSpan job_span(spans, j.sampled ? "sampling.job" : "sim.job", sim);
    if (j.sampled) {
        ScopedSpan span(spans, "sampling.run", sim);
        const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
        const Clock::time_point t0 = Clock::now();
        out.result =
            simulateSampled(j.config, *j.profile, j.opts, j.sampling);
        out.runS = out.jobS = secondsBetween(t0, Clock::now());
        out.allocs = g_allocs.load(std::memory_order_relaxed) - a0;
        return out;
    }

    out.detailed = true;
    Clock::time_point t0 = Clock::now();
    const int setup_span = spans.open("sim.setup", sim);
    auto source = std::make_unique<Source>(j);
    auto timed = std::make_unique<bench::TimedSource>(source->get());
    auto sys = std::make_unique<System>(j.config, *timed);
    Tick measure_start = 0;
    sys->start();
    if (j.opts.warmupOps > 0 && j.opts.warmupOps < source->streamOps()) {
        Source *src = source.get();
        scheduleWarmupCheck(
            *sys, [src] { return src->minOps(); }, j.opts.warmupOps,
            &measure_start);
    }
    spans.close(setup_span);
    out.setupS = secondsBetween(t0, Clock::now());

    t0 = Clock::now();
    const int run_span = spans.open("sim.run", sim);
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    out.events = sys->run(j.opts.maxEvents);
    out.allocs = g_allocs.load(std::memory_order_relaxed) - a0;
    spans.close(run_span);
    out.runS = secondsBetween(t0, Clock::now());
    checkFinished(*sys, out.events, j);
    out.frontendS = timed->estimatedSeconds();
    out.frontendCalls = timed->calls();
    spans.addAggregate("workload.next", run_span, out.frontendS,
                       out.frontendCalls);

    t0 = Clock::now();
    {
        ScopedSpan span(spans, "sim.collect", sim);
        out.result = collectRunResult(*sys, j.name, j.opts.seed,
                                      measure_start);
    }
    out.collectS = secondsBetween(t0, Clock::now());

    for (unsigned i = 0; i < j.cpus(); ++i) {
        const CoreModel &core = sys->core(i);
        out.core.instructions += core.instructions();
        out.core.clocks += core.clock();
        out.core.stall[0] += core.stats().ifetchStallCycles;
        out.core.stall[1] += core.stats().loadStallCycles;
        out.core.stall[2] += core.stats().robStallCycles;
        out.core.stall[3] += core.stats().storeStallCycles;
        const Node &node = sys->node(i);
        out.core.l1dHits += node.l1d().stats().hits;
        out.core.l1dMisses += node.l1d().stats().misses;
        out.core.prefetches += node.stats().prefetchesIssued;
    }
    out.core.measuredOps = j.measuredOps();

    snapshotRoundTrip(*sys, j, spans, sim, out);

    t0 = Clock::now();
    {
        ScopedSpan span(spans, "sim.teardown", sim);
        sys.reset();
        timed.reset();
        source.reset();
    }
    out.jobS = out.setupS + out.runS + out.collectS +
               secondsBetween(t0, Clock::now());
    return out;
}

/** Host seconds to get one simulation of @p j ready to run: op source,
 *  System (which copies and validates the config), start. Teardown is not
 *  timed. */
double
setupSeconds(const Job &j)
{
    const Clock::time_point t0 = Clock::now();
    Source source(j);
    System sys(j.config, source.get());
    sys.start();
    return secondsBetween(t0, Clock::now());
}

/** The @p p quantile of @p v, interpolating between order statistics. */
double
quantile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Isolated layer probes over the workload's own op stream and config. */
struct ProbeResults {
    double kernelNsPerEvent = 0.0;
    double frontendNsPerOp = 0.0;
    double l2NsPerAccess = 0.0;
    double rcaNsPerAccess = 0.0;
};

ProbeResults
runLayerProbes(const Workload &w, std::uint64_t seed, SpanLog &spans)
{
    ProbeResults p;
    {
        ScopedSpan span(spans, "probe.event_kernel");
        p.kernelNsPerEvent = bench::eventKernelNsPerEvent(seed, kProbeEvents);
    }

    // The frontend draws an equal share of ops from every job of the
    // first block: all nine profiles for the sweep, the one stream
    // otherwise (the trace decoder for the replay).
    std::vector<Addr> addrs;
    {
        ScopedSpan span(spans, "probe.frontend");
        const std::vector<Job> &block = w.blocks.front();
        const std::uint64_t share = kProbeDraws / block.size();
        double ns_sum = 0.0;
        std::vector<Addr> part;
        for (const Job &j : block) {
            double ns = 0.0;
            if (j.profile) {
                SyntheticWorkload gen(*j.profile, j.cpus(),
                                      (share + j.cpus() - 1) / j.cpus(),
                                      j.opts.seed);
                ns = bench::drawNsPerOp(gen, j.cpus(), share, part);
            } else {
                TraceReplay replay(j.tracePath);
                ns = bench::drawNsPerOp(replay, j.cpus(), share, part);
            }
            ns_sum += ns * static_cast<double>(part.size());
            addrs.insert(addrs.end(), part.begin(), part.end());
        }
        p.frontendNsPerOp = ns_sum / static_cast<double>(addrs.size());
    }

    // Every workload runs Table 3's L2 geometry; the RCA probe uses the
    // paper's 512-byte regions, the only size outside the sweep.
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    {
        ScopedSpan span(spans, "probe.l2");
        p.l2NsPerAccess =
            bench::l2NsPerAccess(config.l2, addrs, kProbeAccesses);
    }
    {
        ScopedSpan span(spans, "probe.rca");
        p.rcaNsPerAccess =
            bench::rcaNsPerAccess(config.cgct, addrs, kProbeAccesses);
    }
    return p;
}

using Metrics = std::vector<std::pair<std::string, double>>;

/** The modelled per-layer metrics of a set of finished simulations. */
void
modelledMetrics(const std::vector<const Job *> &jobs,
                const std::vector<RunResult> &results,
                const CoreTotals &core, Metrics &m)
{
    double measured_kops = 0.0, total_kops = 0.0;
    double l2 = 0.0, lat = 0.0, bcast100k = 0.0;
    std::uint64_t evicted = 0, empty = 0, selfinv = 0, requests = 0;
    std::uint64_t oracle_total = 0, oracle_unnec = 0, bcasts = 0;
    std::uint64_t directs = 0, interchip = 0, c2c = 0, mem = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        measured_kops += static_cast<double>(jobs[i]->measuredOps()) / 1e3;
        total_kops += static_cast<double>(jobs[i]->ops()) / 1e3;
        l2 += r.l2MissRatio;
        lat += r.avgMissLatency;
        bcast100k += r.avgBroadcastsPer100k;
        evicted += r.rcaEvictedEmpty + r.rcaEvictedOne + r.rcaEvictedTwo +
                   r.rcaEvictedMore;
        empty += r.rcaEvictedEmpty;
        selfinv += r.rcaSelfInvalidations;
        requests += r.requestsTotal;
        oracle_total += r.oracleTotal;
        oracle_unnec += r.oracleUnnecessary;
        bcasts += r.broadcasts;
        directs += r.directs;
        interchip += r.interChipBroadcasts;
        c2c += r.cacheToCache;
        mem += r.memorySupplied;
    }
    const double n = static_cast<double>(results.size());
    const double clocks = static_cast<double>(core.clocks);
    const double core_kops = static_cast<double>(core.measuredOps) / 1e3;
    auto d = [](std::uint64_t x) { return static_cast<double>(x); };
    m.emplace_back("cpu.ipc", ratio(d(core.instructions), clocks));
    m.emplace_back("cpu.stall_frac.ifetch", ratio(d(core.stall[0]), clocks));
    m.emplace_back("cpu.stall_frac.load", ratio(d(core.stall[1]), clocks));
    m.emplace_back("cpu.stall_frac.rob", ratio(d(core.stall[2]), clocks));
    m.emplace_back("cpu.stall_frac.store", ratio(d(core.stall[3]), clocks));
    m.emplace_back("cache.l1d_miss_ratio",
                   ratio(d(core.l1dMisses), d(core.l1dHits + core.l1dMisses)));
    m.emplace_back("cache.l2_miss_ratio", l2 / n);
    m.emplace_back("core.rca_evictions_per_kop", d(evicted) / total_kops);
    m.emplace_back("core.rca_evicted_empty_frac", ratio(d(empty), d(evicted)));
    m.emplace_back("core.self_invalidations_per_kop", d(selfinv) / total_kops);
    m.emplace_back("coherence.requests_per_kop", d(requests) / measured_kops);
    m.emplace_back("coherence.oracle_unnecessary_frac",
                   ratio(d(oracle_unnec), d(oracle_total)));
    m.emplace_back("interconnect.broadcasts_per_kop",
                   d(bcasts) / measured_kops);
    m.emplace_back("interconnect.directs_per_kop", d(directs) / measured_kops);
    m.emplace_back("interconnect.interchip_per_kop",
                   d(interchip) / measured_kops);
    m.emplace_back("interconnect.c2c_frac", ratio(d(c2c), d(c2c + mem)));
    m.emplace_back("interconnect.bcast_per_100k_cycles", bcast100k / n);
    m.emplace_back("mem.avg_miss_latency_cycles", lat / n);
    m.emplace_back("mem.memory_supplied_per_kop", d(mem) / measured_kops);
    m.emplace_back("prefetch.issued_per_kop",
                   ratio(d(core.prefetches), core_kops));
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        fatal("benchmark: non-finite metric value");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

struct JobRecord {
    std::size_t block;
    std::string row;
    double seconds;
    bool instrumented;
};

void
printSelfTimes(const SpanLog &spans)
{
    std::vector<SpanLog::SelfTime> rows = spans.selfTimes();
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) { return a.selfS > b.selfS; });
    double total_self = 0.0;
    for (const auto &r : rows)
        total_self += r.selfS;
    std::fprintf(stderr, "%-22s %8s %12s %12s %7s\n", "span", "count",
                 "total_ms", "self_ms", "self_%");
    for (const auto &r : rows)
        std::fprintf(stderr, "%-22s %8llu %12.2f %12.2f %6.1f%%\n",
                     r.name.c_str(),
                     static_cast<unsigned long long>(r.count),
                     r.totalS * 1e3, r.selfS * 1e3,
                     100.0 * ratio(r.selfS, total_self));
}

/** What the measured loop produced. */
struct Loop {
    std::vector<JobRecord> records;
    std::vector<RunResult> firstPlain;   ///< Plain results, first blocks.
    std::vector<const Job *> firstJobs;
    std::vector<Instrumented> inst;      ///< Traced runs only.
    std::vector<const Job *> instJobs;
    std::vector<std::size_t> instFirst;  ///< inst indices, first blocks.
    std::vector<double> setupSamples;
    std::vector<double> plainSeconds;
    std::vector<double> overhead;        ///< Instrumented / plain seconds.
    std::vector<double> blockRates;      ///< kops per job-second.
    std::vector<double> calibration;     ///< One per block.
};

/**
 * The measured loop: whole blocks until the next one would end past
 * @p seconds, but at least the workload's first blocks. Each job's set-up
 * is timed on its own just before the job, so set-up samples spread over
 * the run like the jobs do; the host calibration runs before each block.
 */
Loop
measure(const Workload &w, double seconds, bool traced, SpanLog &spans)
{
    Loop loop;
    std::vector<double> block_walls;
    const Clock::time_point loop0 = Clock::now();
    std::uint32_t sim = 0;
    for (std::size_t b = 0;; ++b) {
        const double elapsed = secondsBetween(loop0, Clock::now());
        if (b >= w.firstBlocks && elapsed + median(block_walls) > seconds)
            break;
        const bool first = b < w.firstBlocks;
        const Clock::time_point tb = Clock::now();
        loop.calibration.push_back(bench::calibrationSeconds());
        double block_s = 0.0;
        std::uint64_t block_ops = 0;
        for (const Job &j : w.blocks[b % w.blocks.size()]) {
            ++sim;
            loop.setupSamples.push_back(setupSeconds(j));
            RunResult r;
            double dt = 0.0;
            {
                ScopedSpan span(spans, "job.plain", sim);
                const Clock::time_point t0 = Clock::now();
                r = runPlain(j);
                dt = secondsBetween(t0, Clock::now());
            }
            loop.plainSeconds.push_back(dt);
            block_s += dt;
            block_ops += j.ops();
            loop.records.push_back(JobRecord{b, csvRow(j, r), dt, false});
            if (first) {
                loop.firstPlain.push_back(r);
                loop.firstJobs.push_back(&j);
            }
            if (!traced)
                continue;
            Instrumented s = runInstrumented(j, spans, sim);
            loop.overhead.push_back(s.jobS / dt);
            loop.records.push_back(
                JobRecord{b, csvRow(j, s.result), s.jobS, true});
            if (first)
                loop.instFirst.push_back(loop.inst.size());
            loop.inst.push_back(std::move(s));
            loop.instJobs.push_back(&j);
        }
        loop.blockRates.push_back(static_cast<double>(block_ops) / 1e3 /
                                  block_s);
        block_walls.push_back(secondsBetween(tb, Clock::now()));
    }
    return loop;
}

/**
 * Host timings are the fast quartile, not the median: on a shared host,
 * interference from other tenants comes in bursts of a few seconds and
 * only ever adds time, so the lower quartile of many short jobs tracks
 * the simulator's own speed while the median moves with the share of the
 * run the bursts happened to cover. Slower drift of the host's speed
 * between runs is divided out with the per-block calibration.
 */
Metrics
endToEndMetrics(const Loop &loop)
{
    const double speed =
        kCalibrationRefS / quantile(loop.calibration, 0.25);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    double cycles = 0.0, avoided = 0.0, requests = 0.0;
    for (const RunResult &r : loop.firstPlain) {
        cycles += static_cast<double>(r.cycles);
        if (r.regionBytes) {
            avoided += static_cast<double>(r.directs + r.locals);
            requests += static_cast<double>(r.requestsTotal);
        }
    }
    return {
        {"setup_s", median(loop.setupSamples) * speed},
        {"sim_s_p25", quantile(loop.plainSeconds, 0.25) * speed},
        {"sim_kops_per_s", quantile(loop.blockRates, 0.75) / speed},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0},
        {"sim_cycles", cycles},
        {"avoided_frac", ratio(avoided, requests)},
    };
}

/**
 * Per-layer metrics of a traced run. Detailed-only numbers come from the
 * instrumented jobs, or for the sampled workload from its probe job, a
 * detailed run of the same configuration (@p probe_rows gets its row).
 */
Metrics
perLayerMetrics(const Loop &loop, const Workload &w, std::uint64_t seed,
                SpanLog &spans, std::vector<std::string> &probe_rows)
{
    std::vector<Instrumented> det;
    std::vector<const Job *> det_jobs;
    CoreTotals det_core;
    for (std::size_t i : loop.instFirst)
        if (loop.inst[i].detailed)
            det_core.add(loop.inst[i].core);
    for (std::size_t i = 0; i < loop.inst.size(); ++i) {
        if (loop.inst[i].detailed) {
            det.push_back(loop.inst[i]);
            det_jobs.push_back(loop.instJobs[i]);
        }
    }
    std::uint32_t sim = static_cast<std::uint32_t>(loop.records.size());
    for (const Job &j : w.probe) {
        Instrumented s = runInstrumented(j, spans, ++sim);
        probe_rows.push_back(csvRow(j, s.result));
        det_core.add(s.core);
        det.push_back(std::move(s));
        det_jobs.push_back(&j);
    }
    const ProbeResults probes = runLayerProbes(w, seed, spans);

    std::vector<double> frontend_ns, ns_per_event, events_per_op;
    for (std::size_t i = 0; i < det.size(); ++i) {
        const Instrumented &s = det[i];
        frontend_ns.push_back(
            ratio(s.frontendS, static_cast<double>(s.frontendCalls)) * 1e9);
        ns_per_event.push_back(
            ratio(s.runS - s.frontendS, static_cast<double>(s.events)) * 1e9);
        events_per_op.push_back(
            ratio(static_cast<double>(s.events),
                  static_cast<double>(det_jobs[i]->ops())));
    }
    const double frontend_ns_per_op = median(frontend_ns);
    std::vector<double> self_frac, host_ns_per_op, allocs_per_kop, run_s;
    for (std::size_t i = 0; i < loop.inst.size(); ++i) {
        const Instrumented &s = loop.inst[i];
        const double ops = static_cast<double>(loop.instJobs[i]->ops());
        // A sampled job is opaque: its frontend share is estimated from
        // the per-op cost measured in the probe job.
        self_frac.push_back(
            s.detailed ? ratio(s.frontendS, s.jobS)
                       : ratio(frontend_ns_per_op * 1e-9 * ops, s.jobS));
        host_ns_per_op.push_back(s.jobS / ops * 1e9);
        allocs_per_kop.push_back(static_cast<double>(s.allocs) / (ops / 1e3));
        run_s.push_back(s.runS);
    }
    auto det_median = [&det](auto field, double scale) {
        std::vector<double> v;
        for (const Instrumented &s : det)
            v.push_back(static_cast<double>(s.*field) * scale);
        return median(std::move(v));
    };

    Metrics m = {
        {"sim.setup_ms", det_median(&Instrumented::setupS, 1e3)},
        {"sim.run_s", median(run_s)},
        {"sim.collect_ms", det_median(&Instrumented::collectS, 1e3)},
        {"sim.ns_per_event", median(ns_per_event)},
        {"sim.allocs_per_kop", median(allocs_per_kop)},
        {"sim.host_ns_per_op", median(host_ns_per_op)},
        {"event.events_per_op", median(events_per_op)},
        {"event.kernel_ns_per_event", probes.kernelNsPerEvent},
        {"workload.ns_per_op", frontend_ns_per_op},
        {"workload.self_frac", median(self_frac)},
        {"workload.isolated_ns_per_op", probes.frontendNsPerOp},
        {"cache.l2_ns_per_access", probes.l2NsPerAccess},
        {"core.rca_ns_per_access", probes.rcaNsPerAccess},
        {"snapshot.save_ms", det_median(&Instrumented::saveS, 1e3)},
        {"snapshot.restore_ms", det_median(&Instrumented::restoreS, 1e3)},
        {"snapshot.bytes", det_median(&Instrumented::snapshotBytes, 1.0)},
        {"trace.overhead_ratio", median(loop.overhead)},
    };
    std::vector<RunResult> first_results;
    for (std::size_t i : loop.instFirst)
        first_results.push_back(loop.inst[i].result);
    modelledMetrics(loop.firstJobs, first_results, det_core, m);
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
#ifdef __GLIBC__
    // Keep every allocation on the heap and never hand freed memory back:
    // glibc otherwise maps each large array (caches, RCAs, snapshots)
    // afresh and re-faults its pages, switching between the two modes as
    // its dynamic threshold moves, which made set-up times bimodal from
    // run to run.
    mallopt(M_MMAP_THRESHOLD, 256 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    std::uint64_t seconds = 20;
    std::uint64_t trace = 0;
    bool quick = false;
    std::string prepare;
    std::string trace_file;
    std::string scratch = ".";
    std::string trace_out;

    ArgParser parser("cgct_benchmark",
                     "One benchmark run of one workload (see "
                     "benchmark/README.md); prints JSON on stdout.");
    parser.addString("workload", &workload,
                     "sweep-default, hier16-tpcw, sampled-tpcw or "
                     "replay-tpch");
    parser.addU64("seed", &seed, "workload seed");
    parser.addU64("seconds", &seconds, "length of the measured loop");
    parser.addU64("trace", &trace,
                  "1 = traced run: instrumented job copies, spans, "
                  "layer probes");
    parser.addFlag("quick", &quick,
                   "run only the golden jobs, with the invariant checker "
                   "on");
    parser.addString("prepare", &prepare,
                     "replay-tpch input preparation: capture the live run "
                     "to this path and print its row");
    parser.addString("trace-file", &trace_file,
                     "replay-tpch: the capture made by --prepare");
    parser.addString("scratch", &scratch,
                     "directory for the golden capture");
    parser.addString("trace-out", &trace_out,
                     "traced run: write the spans here (Chrome format)");
    std::string error;
    if (!parser.parse(argc, argv, &error)) {
        std::fprintf(stderr, "cgct_benchmark: %s (try --help)\n",
                     error.c_str());
        return 1;
    }
    if (parser.helpRequested()) {
        parser.printHelp(std::cout);
        return 0;
    }

    if (!prepare.empty()) {
        if (workload != "replay-tpch")
            fatal("benchmark: --prepare applies to replay-tpch only");
        Job live = generatedJob(benchmarkByName("tpc-h"),
                                cgctConfig(4, TopologyKind::Bus),
                                kReplayOps, nextSweepSeed(seed));
        live.opts.capturePath = prepare;
        std::cout << "{\"live_row\":" << jsonString(csvRow(live,
                                                           runPlain(live)))
                  << "}\n";
        return 0;
    }
    if (workload == "replay-tpch" && trace_file.empty() && !quick)
        fatal("benchmark: replay-tpch needs --trace-file (run --prepare "
              "first)");

    const bool traced = trace != 0;
    SpanLog spans(traced);
    const int setup_span = spans.open("bench.setup", 0);
    Workload w = makeWorkload(workload, seed, trace_file, scratch);

    // Golden jobs: fixed seed, reduced size, rows checked by run.py
    // against benchmark/reference.json. --quick runs only these (the
    // sweep's first block), with the invariant checker on; it never
    // changes results.
    if (quick && w.golden.empty())
        w.golden = w.blocks.front();
    std::vector<std::string> golden_rows;
    for (Job &j : w.golden) {
        j.config.obs.checkInvariants = quick;
        golden_rows.push_back(csvRow(j, runPlain(j)));
    }
    for (const Job &j : w.golden)
        if (!j.opts.capturePath.empty())
            std::remove(j.opts.capturePath.c_str());

    // One untimed construction, so that the set-up samples below measure
    // construction as every simulation after a process's first pays it,
    // not first-touch page faults.
    if (!quick)
        setupSeconds(w.blocks.front().front());
    spans.close(setup_span);

    const Loop loop =
        quick ? Loop{}
              : measure(w, static_cast<double>(seconds), traced, spans);
    Metrics metrics;
    std::vector<std::string> probe_rows;
    if (!quick && !traced)
        metrics = endToEndMetrics(loop);
    if (!quick && traced) {
        metrics = perLayerMetrics(loop, w, seed, spans, probe_rows);
        printSelfTimes(spans);
        if (!trace_out.empty()) {
            std::ofstream os(trace_out);
            if (!os)
                fatal("benchmark: cannot write %s", trace_out.c_str());
            spans.writeChrome(os);
        }
    }

    std::ostringstream out;
    out << "{\"workload\":" << jsonString(workload) << ",\"seed\":" << seed
        << ",\"trace\":" << (traced ? 1 : 0)
        << ",\"calibration_s\":"
        << jsonNumber(quantile(loop.calibration, 0.25)) << ",\"jobs\":[";
    for (std::size_t i = 0; i < loop.records.size(); ++i) {
        const JobRecord &r = loop.records[i];
        out << (i ? "," : "") << "{\"block\":" << r.block
            << ",\"row\":" << jsonString(r.row)
            << ",\"seconds\":" << jsonNumber(r.seconds)
            << ",\"instrumented\":" << (r.instrumented ? "true" : "false")
            << "}";
    }
    out << "],\"golden\":[";
    for (std::size_t i = 0; i < golden_rows.size(); ++i)
        out << (i ? "," : "") << jsonString(golden_rows[i]);
    out << "],\"probe\":[";
    for (std::size_t i = 0; i < probe_rows.size(); ++i)
        out << (i ? "," : "") << jsonString(probe_rows[i]);
    out << "],\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        out << (i ? "," : "") << jsonString(metrics[i].first) << ":"
            << jsonNumber(metrics[i].second);
    out << "}}\n";
    std::cout << out.str();
    return 0;
}
