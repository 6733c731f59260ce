#include "sim/sweep.hpp"

#include <atomic>
#include <cstdio>
#include <future>
#include <ostream>
#include <type_traits>

#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "sim/result_fields.hpp"

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
    const std::size_t total = cells_.size();
    std::vector<std::future<RunResult>> futures;
    futures.reserve(total);
    std::atomic<std::size_t> completed{0};
    ThreadPool pool(jobs_);
    for (const SweepCell &cell : cells_) {
        futures.push_back(pool.submit([this, &cell, &completed,
                                       &on_progress, total] {
            const SystemConfig config =
                cell.regionBytes
                    ? spec_.baseConfig.withCgct(cell.regionBytes)
                    : spec_.baseConfig;
            RunOptions opts = spec_.opts;
            opts.seed = cell.seed;
            RunResult r;
            if (spec_.sampling.windows) {
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
            const std::size_t done = completed.fetch_add(1) + 1;
            if (on_progress)
                on_progress(done, total, cell);
            return r;
        }));
    }

    // Waiting on each future in turn emits row k as soon as rows 0..k-1
    // are out and cell k is done, whatever order the cells finish in.
    std::vector<RunResult> results;
    results.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
        results.push_back(futures[i].get());
        if (on_result)
            on_result(cells_[i], results.back());
    }
    return results;
}

namespace {

/** One CSV cell: a double with the field's digits, the sampling columns
 *  from their own block; histograms and distributions have none. */
template <typename T>
void
cell(std::ostream &os, const Field &f, const T &v)
{
    char buf[256];
    if constexpr (std::is_same_v<T, double>) {
        std::snprintf(buf, sizeof(buf), "%.*f", f.csvDigits, v);
        os << buf;
    } else if constexpr (std::is_same_v<T,
                                        std::shared_ptr<const SamplingInfo>>) {
        if (!v)
            panic("sweep CSV: a sampled column on a full-detail result");
        const SamplingInfo &s = *v;
        std::snprintf(buf, sizeof(buf),
                      "%llu,%llu,%s,%.2f,%.2f,%.6f,%.6f,%.2f,%.2f",
                      static_cast<unsigned long long>(s.windows),
                      static_cast<unsigned long long>(s.windowOps),
                      s.warmMode.c_str(), s.cycles.mean, s.cycles.ci95Half,
                      s.avoidedFraction.ci95Half, s.l2MissRatio.ci95Half,
                      s.avgMissLatency.ci95Half,
                      s.avgBroadcastsPer100k.ci95Half);
        os << buf;
    } else if constexpr (std::is_arithmetic_v<T> ||
                         std::is_same_v<T, std::string>) {
        os << v;
    }
}

/** The CSV header (@p r null) or @p r's row: every field with a column,
 *  in list order, the sampling and interconnect ones only on request. */
void
writeCsv(std::ostream &os, const RunResult *r, bool sampled, bool topo)
{
    bool first = true;
    // Starts f's column; true when a row value goes in it.
    const auto column = [&](const Field &f) {
        if (!f.csv || (f.group == Group::Sampling && !sampled) ||
            (f.group == Group::Interconnect && !topo))
            return false;
        os << (first ? "" : ",") << (r ? "" : f.csv);
        first = false;
        return r != nullptr;
    };
    visitFields(Overloaded{
        [&](const Field &f, auto RunResult::*m) {
            if (column(f))
                cell(os, f, r->*m);
        },
        [&](const Field &f, DerivedField m) {
            if (column(f))
                cell(os, f, (r->*m)());
        },
        [](std::initializer_list<CategoryField>) {}});
    os << "\n";
}

} // namespace

void
writeSweepCsvHeader(std::ostream &os, bool sampled, bool topo)
{
    writeCsv(os, nullptr, sampled, topo);
}

void
writeSweepCsvRow(std::ostream &os, const RunResult &r, bool sampled,
                 bool topo)
{
    writeCsv(os, &r, sampled, topo);
}

} // namespace cgct
