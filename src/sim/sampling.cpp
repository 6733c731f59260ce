#include "sim/sampling.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <semaphore>
#include <type_traits>
#include <vector>

#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "sim/result_fields.hpp"
#include "sim/system.hpp"
#include "snapshot/serializer.hpp"
#include "snapshot/snapshot.hpp"
#include "workload/generator.hpp"
#include "workload/op_feed.hpp"

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
 * Functional warming: one serial pass over the op streams, drawn ahead
 * on the feed's thread. Each op is applied architecturally
 * (Node::warmAccess) at a shared monotonic warm tick — one tick per op,
 * so LRU order matches program order — and at every window start the
 * cores are advanced to the warm tick and the quiescent system is
 * snapshotted and emitted.
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
    // Round-robin draw, one op per CPU per pass: the interleaving a
    // lock-step detailed run approximates, and fully deterministic.
    OpFeed feed(workload, n_cpus);

    Tick warm_tick = 0;
    std::vector<std::uint64_t> instr_delta(n_cpus, 0);
    std::vector<std::uint64_t> memop_delta(n_cpus, 0);
    std::size_t image_bytes = 0;

    for (std::size_t i = 0; i < starts.size(); ++i) {
        feed.draw(starts[i]);
        for (auto ops = feed.take(); !ops.empty(); ops = feed.take()) {
            for (const OpFeed::Op &o : ops) {
                const auto cpu = static_cast<unsigned>(o.cpu);
                ++warm_tick;
                instr_delta[cpu] += o.op.gap + 1;
                ++memop_delta[cpu];
                sys.node(cpu).warmAccess(o.op.kind, o.op.addr, warm_tick);
            }
        }
        for (unsigned cpu = 0; cpu < n_cpus; ++cpu) {
            sys.core(cpu).warmAdvance(warm_tick, instr_delta[cpu],
                                      memop_delta[cpu]);
            instr_delta[cpu] = 0;
            memop_delta[cpu] = 0;
        }
        // The feed is parked at the window start, and so is the workload.
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
        runPhase(sys, /*resume=*/i > 0, opts.maxEvents);
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
    runPhase(sys, /*resume=*/true, opts.maxEvents);

    RunResult r =
        collectRunResult(sys, profile.name, opts.seed, measure_start);
    // collectRunResult reports cumulative retire counts; the window's
    // share is the delta from the restore point.
    r.instructions = 0;
    for (unsigned i = 0; i < n_cpus; ++i)
        r.instructions += sys.core(i).instructions() - instr_base[i];
    return r;
}

/** The miss-latency histogram covers each window, so it sums across
 *  them; the rca.* ones are cumulative, so the last window's stand. */
std::vector<HistogramSnapshot>
mergeHistograms(const std::vector<RunResult> &windows)
{
    std::vector<HistogramSnapshot> out = windows.back().histograms;
    for (HistogramSnapshot &merged : out) {
        if (merged.name != "node.miss_latency")
            continue;
        for (std::size_t i = 0; i + 1 < windows.size(); ++i) {
            for (const HistogramSnapshot &h : windows[i].histograms) {
                if (h.name != merged.name)
                    continue;
                merged.samples += h.samples;
                merged.sum += h.sum;
                for (std::size_t b = 0; b < merged.buckets.size(); ++b)
                    merged.buckets[b] += h.buckets[b];
            }
        }
    }
    return out;
}

} // namespace

RunResult
simulateSampled(const SystemConfig &config, const WorkloadProfile &profile,
                const RunOptions &opts, const SamplingOptions &sopts)
{
    const std::uint64_t k = sopts.windows;
    const std::uint64_t w = sopts.windowOps;
    if (k == 0)
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

    // Aggregate each field by the rule of its window (docs/SAMPLING.md):
    // a label from the first window, a post-warmup count summed and
    // scaled by span / (K * w), a post-warmup ratio averaged, a peak
    // maxed, a whole-run field from the last window. The CI samples are
    // per-window.
    const double scale = static_cast<double>(span) /
                         static_cast<double>(k * w);
    const auto scaled_sum = [&](auto value_of) {
        std::uint64_t sum = 0;
        for (const RunResult &r : windows)
            sum += value_of(r);
        return static_cast<std::uint64_t>(
            std::llround(static_cast<double>(sum) * scale));
    };
    RunResult agg;
    visitFields(Overloaded{
        [&](const Field &f, auto RunResult::*m) {
            auto &out = agg.*m;
            using T = std::remove_reference_t<decltype(out)>;
            if (f.window == Window::Label) {
                out = windows.front().*m;
            } else if (f.window == Window::WholeRun) {
                out = windows.back().*m;
            } else if constexpr (std::is_same_v<T, std::uint64_t>) {
                out = scaled_sum([m](const RunResult &r) { return r.*m; });
            } else if constexpr (std::is_same_v<T, double>) {
                for (const RunResult &r : windows)
                    out = f.window == Window::Peak ? std::max(out, r.*m)
                                                   : out + r.*m;
                if (f.window != Window::Peak)
                    out /= static_cast<double>(windows.size());
            } else if constexpr (std::is_same_v<
                                     T, std::vector<HistogramSnapshot>>) {
                out = mergeHistograms(windows);
            }
        },
        [](const Field &, DerivedField) {},
        [&](std::initializer_list<CategoryField> arrays) {
            for (const CategoryField &a : arrays)
                for (std::size_t c = 0; c < kNumCategories; ++c)
                    (agg.*a.member)[c] = scaled_sum(
                        [&](const RunResult &r) { return (r.*a.member)[c]; });
        }});
    // The one exception: instructions is tagged whole-run, but runWindow
    // counts each window's own, so it sums and scales. Retagging it
    // moves the default-sweep digest (ROADMAP.md, the counter window).
    agg.instructions =
        scaled_sum([](const RunResult &r) { return r.instructions; });

    std::vector<double> s_cycles, s_lat, s_miss, s_avoid, s_bcast;
    for (const RunResult &r : windows) {
        s_cycles.push_back(static_cast<double>(r.cycles));
        s_lat.push_back(r.avgMissLatency);
        s_miss.push_back(r.l2MissRatio);
        s_avoid.push_back(r.avoidedFraction());
        s_bcast.push_back(r.avgBroadcastsPer100k);
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

} // namespace cgct
