#include "sim/sampling.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <semaphore>
#include <vector>

#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "sim/system.hpp"
#include "snapshot/serializer.hpp"
#include "snapshot/snapshot.hpp"
#include "workload/generator.hpp"

namespace cgct {

bool
parseWarmMode(const std::string &name, WarmMode *out)
{
    if (name == "functional") {
        *out = WarmMode::Functional;
        return true;
    }
    if (name == "detailed") {
        *out = WarmMode::Detailed;
        return true;
    }
    return false;
}

const char *
warmModeName(WarmMode mode)
{
    return mode == WarmMode::Functional ? "functional" : "detailed";
}

namespace {

/** The window-start op counts: K points evenly spread over the
 *  post-warmup span, the first right at the end of warmup. */
std::vector<std::uint64_t>
windowStarts(std::uint64_t warmup, std::uint64_t span, std::uint64_t k)
{
    std::vector<std::uint64_t> starts;
    starts.reserve(static_cast<std::size_t>(k));
    for (std::uint64_t i = 0; i < k; ++i)
        starts.push_back(warmup + span * i / k);
    return starts;
}

/**
 * Serialize the quiescent warm system + workload into CGCTSNAP bytes,
 * header first, so the image is built once and never copied.
 * @p image_bytes carries the previous image's size from call to call;
 * the buffer reserves it plus 1/16, because one run's images grow slowly
 * (hier and dir presence maps fill up) and one byte over would double
 * the buffer.
 */
std::vector<std::uint8_t>
makeWarmSnapshot(System &sys, SyntheticWorkload &workload,
                 std::uint64_t fingerprint, std::size_t &image_bytes)
{
    Serializer s;
    s.reserve(image_bytes + image_bytes / 16);
    beginSnapshotFile(s, fingerprint);
    Archive ar(s);
    ar.section("workload", [&] { workload.transfer(ar); });
    sys.transfer(ar);
    image_bytes = s.size();
    return std::move(s).take();
}

/** Takes window @p i's CGCTSNAP image the moment the warm pass has
 *  built it; the warm pass resumes when this returns. */
using EmitWindow =
    std::function<void(std::uint64_t i, std::vector<std::uint8_t> &&image)>;

/**
 * Functional warming: one serial pass over the op streams. Each op is
 * applied architecturally (Node::warmAccess) at a shared monotonic warm
 * tick — one tick per op, so LRU order matches program order — and at
 * every window start the cores are advanced to the warm tick and the
 * quiescent system is snapshotted and emitted.
 */
void
warmFunctional(const SystemConfig &config, const WorkloadProfile &profile,
               const RunOptions &opts,
               const std::vector<std::uint64_t> &starts,
               std::uint64_t fingerprint, const EmitWindow &emit)
{
    const unsigned n_cpus = config.topology.numCpus;
    SyntheticWorkload workload(profile, n_cpus, opts.opsPerCpu, opts.seed);
    System sys(config, workload);
    sys.setFunctional(true);

    Tick warm_tick = 0;
    std::vector<std::uint64_t> instr_delta(n_cpus, 0);
    std::vector<std::uint64_t> memop_delta(n_cpus, 0);
    std::size_t image_bytes = 0;

    for (std::size_t i = 0; i < starts.size(); ++i) {
        workload.setPauseAt(starts[i]);
        // Round-robin draw, one op per CPU per pass: the interleaving a
        // lock-step detailed run approximates, and fully deterministic.
        bool drew = true;
        while (drew) {
            drew = false;
            for (unsigned cpu = 0; cpu < n_cpus; ++cpu) {
                CpuOp op;
                if (!workload.next(static_cast<CpuId>(cpu), op))
                    continue;
                drew = true;
                ++warm_tick;
                instr_delta[cpu] += op.gap + 1;
                ++memop_delta[cpu];
                sys.node(cpu).warmAccess(op.kind, op.addr, warm_tick);
            }
        }
        for (unsigned cpu = 0; cpu < n_cpus; ++cpu) {
            sys.core(cpu).warmAdvance(warm_tick, instr_delta[cpu],
                                      memop_delta[cpu]);
            instr_delta[cpu] = 0;
            memop_delta[cpu] = 0;
        }
        emit(i, makeWarmSnapshot(sys, workload, fingerprint, image_bytes));
    }
}

/**
 * Detailed warming: the drain loop's phases with the pause schedule at
 * the window starts, snapshotting to memory instead of disk. The
 * reference mode: no speedup, but the warm state is exact.
 */
void
warmDetailed(const SystemConfig &config, const WorkloadProfile &profile,
             const RunOptions &opts,
             const std::vector<std::uint64_t> &starts,
             std::uint64_t fingerprint, const EmitWindow &emit)
{
    const unsigned n_cpus = config.topology.numCpus;
    SyntheticWorkload workload(profile, n_cpus, opts.opsPerCpu, opts.seed);
    System sys(config, workload);

    std::size_t image_bytes = 0;
    for (std::size_t i = 0; i < starts.size(); ++i) {
        workload.setPauseAt(starts[i]);
        if (runPhase(sys, /*resume=*/i > 0, opts.maxEvents))
            panic("warmDetailed: generated workload blocked on sync");
        emit(i, makeWarmSnapshot(sys, workload, fingerprint, image_bytes));
    }
}

/** Restore one window's image, free it and release @p image_freed, then
 *  run windowOps per CPU in detail. */
RunResult
runWindow(const SystemConfig &config, const WorkloadProfile &profile,
          const RunOptions &opts, std::vector<std::uint8_t> &&image,
          std::uint64_t fingerprint, std::uint64_t window_index,
          std::uint64_t window_end, std::binary_semaphore &image_freed)
{
    // Released once the image is freed below, or on a throw before then,
    // so the warm pass goes on and the caller sees the exception.
    std::unique_ptr<std::binary_semaphore, void (*)(std::binary_semaphore *)>
        freed(&image_freed,
              [](std::binary_semaphore *sem) { sem->release(); });
    const unsigned n_cpus = config.topology.numCpus;
    SyntheticWorkload workload(profile, n_cpus, opts.opsPerCpu, opts.seed);
    System sys(config, workload);

    {
        Deserializer d;
        const std::string label =
            "window " + std::to_string(window_index) + " snapshot";
        const std::string err = d.openBytes(std::move(image), label);
        if (!err.empty())
            fatal("simulateSampled: %s", err.c_str());
        if (d.fingerprint() != fingerprint)
            panic("simulateSampled: warm snapshot fingerprint mismatch");

        Archive ar(d);
        ar.section("workload", [&] { workload.transfer(ar); });
        sys.transfer(ar);
    }
    freed.reset();

    // The window measures only its own ops: reset everything and record
    // per-core retire baselines (instruction counters are cumulative).
    std::vector<std::uint64_t> instr_base(n_cpus);
    for (unsigned i = 0; i < n_cpus; ++i)
        instr_base[i] = sys.core(i).instructions();
    const Tick measure_start = sys.maxCoreClock();
    sys.resetStats(measure_start);

    workload.setPauseAt(window_end);
    if (runPhase(sys, /*resume=*/true, opts.maxEvents))
        panic("runWindow: generated workload blocked on sync");

    RunResult r =
        collectRunResult(sys, profile.name, opts.seed, measure_start);
    // collectRunResult reports cumulative retire counts; the window's
    // share is the delta from the restore point.
    r.instructions = 0;
    for (unsigned i = 0; i < n_cpus; ++i)
        r.instructions += sys.core(i).instructions() - instr_base[i];
    return r;
}

std::uint64_t
scaleCount(std::uint64_t sum, double scale)
{
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(sum) * scale));
}

} // namespace

namespace {

/** One sampled run at a fixed window count @p k (options validated). */
RunResult
sampledAtK(const SystemConfig &config, const WorkloadProfile &profile,
           const RunOptions &opts, const SamplingOptions &sopts,
           std::uint64_t k)
{
    const std::uint64_t w = sopts.windowOps;
    const std::uint64_t span = opts.opsPerCpu - opts.warmupOps;
    if (w > span / k)
        fatal("simulateSampled: %llu windows of %llu ops do not fit in "
              "the %llu post-warmup ops (need windowOps <= span / "
              "windows = %llu)",
              static_cast<unsigned long long>(k),
              static_cast<unsigned long long>(w),
              static_cast<unsigned long long>(span),
              static_cast<unsigned long long>(span / k));

    // The fingerprint ties every window to this exact run identity; the
    // window geometry stands in for the checkpoint interval.
    const std::uint64_t fingerprint =
        snapshotFingerprint(config, profile.name, opts, k * 1000000 + w);

    const std::vector<std::uint64_t> starts =
        windowStarts(opts.warmupOps, span, k);

    // Warm, snapshot and measure as a stream: each image goes to its
    // window as soon as the warm pass emits it and is freed once
    // restored. One worker measures each window inline; more measure on
    // a pool while the warm pass goes on. Either way the warm pass
    // starts the next image only once this one is freed, so one image
    // is alive at a time and memory does not grow with K. Results land
    // by window index, so aggregation is identical at any job count.
    const unsigned workers = static_cast<unsigned>(std::min<std::uint64_t>(
        k, sopts.jobs ? sopts.jobs : ThreadPool::defaultThreads()));
    std::vector<RunResult> windows(static_cast<std::size_t>(k));
    std::binary_semaphore image_freed(0);
    std::vector<std::future<void>> measured;
    // Declared last, so that on a throw it drains the queued windows
    // before what they use is destroyed.
    std::optional<ThreadPool> pool;
    if (workers > 1)
        pool.emplace(workers);
    const EmitWindow emit = [&](std::uint64_t i,
                                std::vector<std::uint8_t> &&image) {
        auto window = [&, i, image = std::move(image)]() mutable {
            windows[i] = runWindow(config, profile, opts, std::move(image),
                                   fingerprint, i, starts[i] + w,
                                   image_freed);
        };
        if (pool)
            measured.push_back(pool->submit(std::move(window)));
        else
            window();
        image_freed.acquire();
    };
    if (sopts.warmMode == WarmMode::Functional)
        warmFunctional(config, profile, opts, starts, fingerprint, emit);
    else
        warmDetailed(config, profile, opts, starts, fingerprint, emit);
    for (std::future<void> &f : measured)
        f.get(); // rethrows a window's exception

    // Aggregate: counts scale up by span / (K * w); ratio and latency
    // metrics average over windows; the CI samples are per-window.
    const double scale = static_cast<double>(span) /
                         static_cast<double>(k * w);

    RunResult agg;
    agg.workload = windows.front().workload;
    agg.regionBytes = windows.front().regionBytes;
    agg.seed = windows.front().seed;
    agg.topology = windows.front().topology;
    agg.nodes = windows.front().nodes;

    std::vector<double> s_cycles, s_lat, s_miss, s_avoid, s_bcast;
    std::uint64_t cycles_sum = 0;
    double l2_sum = 0.0, lat_sum = 0.0, bcast_sum = 0.0;
    for (const RunResult &r : windows) {
        agg.requestsTotal += r.requestsTotal;
        agg.broadcasts += r.broadcasts;
        agg.directs += r.directs;
        agg.locals += r.locals;
        agg.writebacks += r.writebacks;
        for (std::size_t c = 0; c < RunResult::kNumCat; ++c) {
            agg.broadcastsByCat[c] += r.broadcastsByCat[c];
            agg.directsByCat[c] += r.directsByCat[c];
            agg.localsByCat[c] += r.localsByCat[c];
        }
        agg.oracleTotal += r.oracleTotal;
        agg.oracleUnnecessary += r.oracleUnnecessary;
        for (std::size_t c = 0; c < RunResult::kNumCat; ++c) {
            agg.oracleTotalByCat[c] += r.oracleTotalByCat[c];
            agg.oracleUnnecessaryByCat[c] += r.oracleUnnecessaryByCat[c];
        }
        agg.cacheToCache += r.cacheToCache;
        agg.memorySupplied += r.memorySupplied;
        agg.localResolves += r.localResolves;
        agg.interChipBroadcasts += r.interChipBroadcasts;
        agg.inclusionWritebacks += r.inclusionWritebacks;
        agg.instructions += r.instructions;
        cycles_sum += r.cycles;

        l2_sum += r.l2MissRatio;
        lat_sum += r.avgMissLatency;
        bcast_sum += r.avgBroadcastsPer100k;
        agg.peakBroadcastsPer100k = std::max(agg.peakBroadcastsPer100k,
                                             r.peakBroadcastsPer100k);

        s_cycles.push_back(static_cast<double>(r.cycles));
        s_lat.push_back(r.avgMissLatency);
        s_miss.push_back(r.l2MissRatio);
        s_avoid.push_back(r.avoidedFraction());
        s_bcast.push_back(r.avgBroadcastsPer100k);
    }

    const double n = static_cast<double>(windows.size());
    agg.cycles = scaleCount(cycles_sum, scale);
    agg.instructions = scaleCount(agg.instructions, scale);
    agg.requestsTotal = scaleCount(agg.requestsTotal, scale);
    agg.broadcasts = scaleCount(agg.broadcasts, scale);
    agg.directs = scaleCount(agg.directs, scale);
    agg.locals = scaleCount(agg.locals, scale);
    agg.writebacks = scaleCount(agg.writebacks, scale);
    for (std::size_t c = 0; c < RunResult::kNumCat; ++c) {
        agg.broadcastsByCat[c] = scaleCount(agg.broadcastsByCat[c], scale);
        agg.directsByCat[c] = scaleCount(agg.directsByCat[c], scale);
        agg.localsByCat[c] = scaleCount(agg.localsByCat[c], scale);
        agg.oracleTotalByCat[c] =
            scaleCount(agg.oracleTotalByCat[c], scale);
        agg.oracleUnnecessaryByCat[c] =
            scaleCount(agg.oracleUnnecessaryByCat[c], scale);
    }
    agg.oracleTotal = scaleCount(agg.oracleTotal, scale);
    agg.oracleUnnecessary = scaleCount(agg.oracleUnnecessary, scale);
    agg.cacheToCache = scaleCount(agg.cacheToCache, scale);
    agg.memorySupplied = scaleCount(agg.memorySupplied, scale);
    agg.localResolves = scaleCount(agg.localResolves, scale);
    agg.interChipBroadcasts = scaleCount(agg.interChipBroadcasts, scale);
    agg.inclusionWritebacks = scaleCount(agg.inclusionWritebacks, scale);

    agg.l2MissRatio = l2_sum / n;
    agg.avgMissLatency = lat_sum / n;
    agg.avgBroadcastsPer100k = bcast_sum / n;

    // RCA scalars, histograms and distributions come from the last
    // window: the RCA stats are cumulative over warm history, so the
    // final window has seen the most (see docs/SAMPLING.md). The
    // miss-latency histogram, by contrast, is window-measured and
    // merges across all windows.
    const RunResult &last = windows.back();
    agg.rcaEvictedEmpty = last.rcaEvictedEmpty;
    agg.rcaEvictedOne = last.rcaEvictedOne;
    agg.rcaEvictedTwo = last.rcaEvictedTwo;
    agg.rcaEvictedMore = last.rcaEvictedMore;
    agg.rcaSelfInvalidations = last.rcaSelfInvalidations;
    agg.avgLinesPerEvictedRegion = last.avgLinesPerEvictedRegion;
    for (const HistogramSnapshot &h : last.histograms) {
        if (h.name == "node.miss_latency")
            continue;
        agg.histograms.push_back(h);
    }
    agg.distributions = last.distributions;
    {
        HistogramSnapshot merged;
        bool have = false;
        for (const RunResult &r : windows) {
            for (const HistogramSnapshot &h : r.histograms) {
                if (h.name != "node.miss_latency")
                    continue;
                if (!have) {
                    merged = h;
                    have = true;
                } else {
                    merged.samples += h.samples;
                    merged.sum += h.sum;
                    for (std::size_t b = 0; b < merged.buckets.size(); ++b)
                        merged.buckets[b] += h.buckets[b];
                }
            }
        }
        if (have)
            agg.histograms.insert(agg.histograms.begin(),
                                  std::move(merged));
    }

    auto info = std::make_shared<SamplingInfo>();
    info->windows = k;
    info->windowOps = w;
    info->warmMode = warmModeName(sopts.warmMode);
    info->spanOps = span;
    info->sampledOps = k * w;
    info->scale = scale;
    info->cycles = summarize(s_cycles);
    info->avgMissLatency = summarize(s_lat);
    info->l2MissRatio = summarize(s_miss);
    info->avoidedFraction = summarize(s_avoid);
    info->avgBroadcastsPer100k = summarize(s_bcast);
    agg.sampling = std::move(info);
    return agg;
}

/**
 * Every headline metric's relative 95% CI half-width within @p target?
 * A zero mean with nonzero spread can never satisfy a relative target,
 * so it reports unmet (the adaptive loop then runs to its window cap).
 */
bool
ciTargetMet(const SamplingInfo &info, double target)
{
    const RunSummary *metrics[] = {
        &info.cycles, &info.avgMissLatency, &info.l2MissRatio,
        &info.avoidedFraction, &info.avgBroadcastsPer100k,
    };
    for (const RunSummary *m : metrics) {
        if (m->count < 2)
            return false;
        if (m->ci95Half == 0.0)
            continue;
        if (m->mean == 0.0 ||
            m->ci95Half / std::fabs(m->mean) > target)
            return false;
    }
    return true;
}

} // namespace

RunResult
simulateSampled(const SystemConfig &config, const WorkloadProfile &profile,
                const RunOptions &opts, const SamplingOptions &sopts)
{
    const std::uint64_t w = sopts.windowOps;
    if (sopts.windows == 0)
        return simulateOnce(config, profile, opts);
    if (w == 0)
        fatal("simulateSampled: --window-ops must be >= 1");
    if (config.dma.enabled)
        fatal("simulateSampled: sampling does not support DMA (the DMA "
              "engine is event-driven and cannot be functionally "
              "warmed) — run full-detail instead");
    if (!opts.capturePath.empty())
        fatal("simulateSampled: --capture cannot be combined with "
              "sampling (the warm phase skips the op tee); capture a "
              "full-detail run instead");
    if (opts.warmupOps >= opts.opsPerCpu)
        fatal("simulateSampled: warmup (%llu) must be smaller than ops "
              "per CPU (%llu)",
              static_cast<unsigned long long>(opts.warmupOps),
              static_cast<unsigned long long>(opts.opsPerCpu));

    if (sopts.ciTarget <= 0.0)
        return sampledAtK(config, profile, opts, sopts, sopts.windows);

    // Adaptive precision (docs/SAMPLING.md): double the window count
    // until every headline metric's relative 95% CI half-width reaches
    // the target, capped by --max-windows and by the window geometry
    // (k windows of w ops must fit in the post-warmup span). Each
    // attempt is a fresh deterministic run, so the returned result is
    // identical to a fixed --windows run at the final K.
    const std::uint64_t span = opts.opsPerCpu - opts.warmupOps;
    const std::uint64_t geom_cap = span / w;
    std::uint64_t cap = sopts.maxWindows ? sopts.maxWindows : 1;
    if (geom_cap > 0 && cap > geom_cap)
        cap = geom_cap;
    std::uint64_t k = sopts.windows < cap ? sopts.windows : cap;
    for (;;) {
        RunResult r = sampledAtK(config, profile, opts, sopts, k);
        if (k >= cap || ciTargetMet(*r.sampling, sopts.ciTarget))
            return r;
        k = k * 2 < cap ? k * 2 : cap;
    }
}

} // namespace cgct
