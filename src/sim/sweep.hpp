/**
 * @file
 * Parallel experiment sweep: expands the benchmark x region-size x seed
 * matrix into independent jobs, runs them on a work-stealing thread pool,
 * and hands results back in matrix order so the emitted CSV/JSON is
 * byte-identical to a serial pass regardless of thread count or job
 * completion order.
 *
 * Determinism contract: every cell's seed is derived at expansion time
 * from the base seed alone (the nextSweepSeed chain of
 * sim/simulator.hpp), each job owns its entire simulation state
 * (workload generator, RNGs, System), and rows are emitted strictly in
 * cell-index order. Same spec + same base seed => same bytes at any
 * --jobs value.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "sim/sampling.hpp"
#include "sim/simulator.hpp"
#include "workload/profile.hpp"

namespace cgct {

/** One cell of the experiment matrix (one simulation job). */
struct SweepCell {
    std::size_t index = 0;            ///< Emission order.
    const WorkloadProfile *profile = nullptr;
    std::uint64_t regionBytes = 0;    ///< 0 = baseline (CGCT off).
    std::uint64_t seed = 0;           ///< Fully derived at expansion time.
};

/** Everything that defines a sweep. */
struct SweepSpec {
    std::vector<const WorkloadProfile *> profiles;
    std::vector<std::uint64_t> regionSizes;  ///< 0 = baseline.
    unsigned seedsPerCell = 3;
    std::uint64_t baseSeed = 20050609;
    RunOptions opts;                 ///< seed is overwritten per cell.
    SystemConfig baseConfig;

    /**
     * When true, every cell runs one sampled simulation
     * (simulateSampled) instead of a full-detail run: confidence comes
     * from the measurement windows rather than seed repetition, so the
     * caller normally pairs this with seedsPerCell = 1
     * (docs/SAMPLING.md). Windows run serially inside each cell — the
     * sweep already parallelizes across cells.
     */
    bool sampled = false;
    SamplingOptions sampling;

    /**
     * Runs one full-detail cell in place of simulateOnce, for in-process
     * callers that read the System after the run (cgct_paper's
     * RegionScout and energy tables). Called from worker threads. Not
     * part of sweepFingerprint: resumable sweeps leave it unset.
     */
    std::function<RunResult(const SweepCell &cell, const SystemConfig &config,
                            const RunOptions &opts)>
        simulate;

    /** Enumerate cells: profile-major, then region, then seed — the
     * exact order the serial sweep always emitted. */
    std::vector<SweepCell> expand() const;
};

/** What a (possibly interrupted) resumable sweep produced. */
struct SweepOutcome {
    /** Results for the contiguous completed prefix, in cell order. On
     *  an uninterrupted run this is every cell. */
    std::vector<RunResult> results;
    std::size_t total = 0;          ///< Cells in the matrix.
    std::size_t completedCells = 0; ///< Cells finished (any order).
    bool interrupted = false;       ///< Stop was requested mid-run.
};

/** Runs a SweepSpec's cells across a thread pool. */
class SweepRunner
{
  public:
    /** Called from worker threads after each job finishes. */
    using ProgressFn =
        std::function<void(std::size_t done, std::size_t total,
                           const SweepCell &cell)>;
    /** Called from the run() caller's thread, in cell-index order. */
    using ResultFn =
        std::function<void(const SweepCell &cell, const RunResult &r)>;

    /** @param jobs worker threads; 0 = hardware concurrency. */
    SweepRunner(SweepSpec spec, unsigned jobs);

    const std::vector<SweepCell> &cells() const { return cells_; }
    unsigned jobs() const { return jobs_; }

    /**
     * Run every cell. @p on_result streams results in cell order (emit
     * row k as soon as rows 0..k-1 have been emitted and k is done);
     * @p on_progress fires on completion order. Returns all results in
     * cell order.
     */
    std::vector<RunResult> run(const ResultFn &on_result = {},
                               const ProgressFn &on_progress = {});

    /** Hooks that make a sweep crash-safe and interruptible. */
    struct ResumeHooks {
        /** Cells already completed by an earlier run (resume journal),
         *  keyed by cell index; these are not re-run. May be null. */
        const std::map<std::uint64_t, RunResult> *cached = nullptr;
        /** Polled when a worker picks up a cell; true = skip it (and
         *  every later fresh cell). Signal-handler friendly. */
        std::function<bool()> stopRequested;
        /** Called from the worker thread the moment a fresh cell
         *  finishes — before any ordered emission — so the result can
         *  be journaled even if emission never reaches it. */
        ResultFn onCompleted;
    };

    /**
     * Like run(), but skips cached cells, stops dispatching when
     * stopRequested() turns true, and reports whether the matrix
     * finished. Emission (@p on_result and SweepOutcome::results) still
     * covers exactly the contiguous completed prefix in cell order, so
     * an interrupted CSV is a clean truncation — cells completed out of
     * order beyond the break are preserved via onCompleted only.
     */
    SweepOutcome runResumable(const ResumeHooks &hooks,
                              const ResultFn &on_result = {},
                              const ProgressFn &on_progress = {});

  private:
    SweepSpec spec_;
    std::vector<SweepCell> cells_;
    unsigned jobs_;
};

/**
 * Run @p n_seeds simulations of @p config differing only in seed (the
 * nextSweepSeed chain from opts.seed) as a one-cell sweep on @p jobs
 * threads (0 = hardware concurrency), so the results, in chain order,
 * are identical at any job count.
 */
std::vector<RunResult> simulateSeeds(const SystemConfig &config,
                                     const WorkloadProfile &profile,
                                     const RunOptions &opts,
                                     unsigned n_seeds, unsigned jobs = 1);

/**
 * CSV header matching writeSweepCsvRow's column order. The default is
 * the historical 16-column format, byte-identical to every earlier
 * release; @p sampled appends the per-window CI columns a sampled sweep
 * fills in (docs/SAMPLING.md), and @p topo appends the interconnect
 * topology columns a non-default `--nodes`/`--topology` sweep reports
 * (docs/TOPOLOGY.md).
 */
void writeSweepCsvHeader(std::ostream &os, bool sampled = false,
                         bool topo = false);

/** One CSV row (16 columns, plus the sampling/topology columns when
 *  asked). */
void writeSweepCsvRow(std::ostream &os, const RunResult &r,
                      bool sampled = false, bool topo = false);

} // namespace cgct
