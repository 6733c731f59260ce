#include "sim/sweep.hpp"

#include <atomic>
#include <cstdio>
#include <future>
#include <ostream>

#include "common/thread_pool.hpp"

namespace cgct {

std::vector<SweepCell>
SweepSpec::expand() const
{
    std::vector<SweepCell> cells;
    cells.reserve(profiles.size() * regionSizes.size() * seedsPerCell);
    for (const WorkloadProfile *profile : profiles) {
        for (std::uint64_t region : regionSizes) {
            // The seed chain restarts from the base seed in every cell
            // group, exactly like the serial sweep did.
            std::uint64_t seed = baseSeed;
            for (unsigned s = 0; s < seedsPerCell; ++s) {
                seed = nextSweepSeed(seed);
                SweepCell cell;
                cell.index = cells.size();
                cell.profile = profile;
                cell.regionBytes = region;
                cell.seed = seed;
                cells.push_back(cell);
            }
        }
    }
    return cells;
}

SweepRunner::SweepRunner(SweepSpec spec, unsigned jobs)
    : spec_(std::move(spec)),
      jobs_(jobs ? jobs : ThreadPool::defaultThreads())
{
    cells_ = spec_.expand();
}

std::vector<RunResult>
SweepRunner::run(const ResultFn &on_result, const ProgressFn &on_progress)
{
    return runResumable(ResumeHooks{}, on_result, on_progress).results;
}

SweepOutcome
SweepRunner::runResumable(const ResumeHooks &hooks,
                          const ResultFn &on_result,
                          const ProgressFn &on_progress)
{
    const std::size_t total = cells_.size();
    SweepOutcome out;
    out.total = total;

    // Snapshot the journal's pre-existing entries by value before any
    // worker starts: hooks.onCompleted typically appends to the very map
    // hooks.cached points at (under the journal's own lock), and the
    // emission loop below must not read a std::map other threads are
    // concurrently inserting into.
    std::map<std::uint64_t, RunResult> cached;
    if (hooks.cached)
        cached = *hooks.cached;

    std::size_t n_cached = 0;
    for (const auto &kv : cached)
        if (kv.first < total)
            ++n_cached;

    // Every cell keeps its slot so emission stays in cell order; cached
    // cells simply have no future. A skipped flag (set by the worker
    // before the future resolves, so the get() below synchronizes it)
    // marks cells abandoned after a stop request.
    std::vector<std::future<RunResult>> futures(total);
    std::vector<char> skipped(total, 0);
    std::atomic<std::size_t> completed{n_cached};
    ThreadPool pool(jobs_);
    for (const SweepCell &cell : cells_) {
        if (cached.count(cell.index))
            continue;
        futures[cell.index] = pool.submit([this, &cell, &completed,
                                           &hooks, &skipped, &on_progress,
                                           total] {
            if (hooks.stopRequested && hooks.stopRequested()) {
                skipped[cell.index] = 1;
                return RunResult{};
            }
            const SystemConfig config =
                cell.regionBytes
                    ? spec_.baseConfig.withCgct(cell.regionBytes)
                    : spec_.baseConfig;
            RunOptions opts = spec_.opts;
            opts.seed = cell.seed;
            RunResult r;
            if (spec_.sampled) {
                // Cells are the unit of parallelism; the windows inside
                // one cell run serially (no nested pools).
                SamplingOptions sopts = spec_.sampling;
                sopts.jobs = 1;
                r = simulateSampled(config, *cell.profile, opts, sopts);
            } else if (spec_.simulate) {
                r = spec_.simulate(cell, config, opts);
            } else {
                r = simulateOnce(config, *cell.profile, opts);
            }
            if (hooks.onCompleted)
                hooks.onCompleted(cell, r);
            const std::size_t done = completed.fetch_add(1) + 1;
            if (on_progress)
                on_progress(done, total, cell);
            return r;
        });
    }

    out.results.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
        RunResult r;
        if (cached.count(i)) {
            r = cached.at(i);
        } else {
            r = futures[i].get();
            if (skipped[i]) {
                out.interrupted = true;
                break;
            }
        }
        out.results.push_back(std::move(r));
        if (on_result)
            on_result(cells_[i], out.results.back());
    }

    // Join the stragglers (completed-out-of-order or skipped cells past
    // the break) before the pool unwinds.
    for (auto &f : futures)
        if (f.valid())
            f.wait();
    out.completedCells = completed.load();
    return out;
}

std::vector<RunResult>
simulateSeeds(const SystemConfig &config, const WorkloadProfile &profile,
              const RunOptions &opts, unsigned n_seeds, unsigned jobs)
{
    SweepSpec spec;
    spec.profiles = {&profile};
    spec.regionSizes = {0}; // Region 0 runs the configuration as given.
    spec.seedsPerCell = n_seeds;
    spec.baseSeed = opts.seed;
    spec.opts = opts;
    spec.baseConfig = config;
    return SweepRunner(std::move(spec), jobs).run();
}

void
writeSweepCsvHeader(std::ostream &os, bool sampled, bool topo)
{
    os << "workload,region_bytes,seed,cycles,instructions,"
          "requests,broadcasts,directs,locals,writebacks,"
          "avoided_fraction,oracle_unnecessary_fraction,"
          "avg_bcast_per_100k,peak_bcast_per_100k,l2_miss_ratio,"
          "avg_miss_latency";
    if (sampled)
        os << ",windows,window_ops,warm_mode,window_cycles_mean,"
              "window_cycles_ci95,avoided_fraction_ci95,"
              "l2_miss_ratio_ci95,avg_miss_latency_ci95,"
              "avg_bcast_per_100k_ci95";
    if (topo)
        os << ",topology,nodes,local_resolves,interchip_broadcasts";
    os << "\n";
}

void
writeSweepCsvRow(std::ostream &os, const RunResult &r, bool sampled,
                 bool topo)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%.6f,"
                  "%.6f,%.2f,%.2f,%.6f,%.2f",
                  r.workload.c_str(),
                  static_cast<unsigned long long>(r.regionBytes),
                  static_cast<unsigned long long>(r.seed),
                  static_cast<unsigned long long>(r.cycles),
                  static_cast<unsigned long long>(r.instructions),
                  static_cast<unsigned long long>(r.requestsTotal),
                  static_cast<unsigned long long>(r.broadcasts),
                  static_cast<unsigned long long>(r.directs),
                  static_cast<unsigned long long>(r.locals),
                  static_cast<unsigned long long>(r.writebacks),
                  r.avoidedFraction(), r.oracleUnnecessaryFraction(),
                  r.avgBroadcastsPer100k, r.peakBroadcastsPer100k,
                  r.l2MissRatio, r.avgMissLatency);
    os << buf;
    if (sampled) {
        // A full-detail result in a sampled sweep (shouldn't happen, but
        // a resumed journal could mix) pads with empty CI fields.
        if (r.sampling) {
            const SamplingInfo &s = *r.sampling;
            std::snprintf(buf, sizeof(buf),
                          ",%llu,%llu,%s,%.2f,%.2f,%.6f,%.6f,%.2f,%.2f",
                          static_cast<unsigned long long>(s.windows),
                          static_cast<unsigned long long>(s.windowOps),
                          s.warmMode.c_str(), s.cycles.mean,
                          s.cycles.ci95Half, s.avoidedFraction.ci95Half,
                          s.l2MissRatio.ci95Half,
                          s.avgMissLatency.ci95Half,
                          s.avgBroadcastsPer100k.ci95Half);
            os << buf;
        } else {
            os << ",,,,,,,,,";
        }
    }
    if (topo) {
        std::snprintf(buf, sizeof(buf), ",%s,%u,%llu,%llu",
                      r.topology.c_str(), r.nodes,
                      static_cast<unsigned long long>(r.localResolves),
                      static_cast<unsigned long long>(r.interChipBroadcasts));
        os << buf;
    }
    os << "\n";
}

} // namespace cgct
