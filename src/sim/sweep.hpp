/**
 * @file
 * Parallel experiment sweep: expands the benchmark x region-size x seed
 * matrix into independent jobs, runs them on a thread pool,
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
     * When sampling.windows != 0, every cell runs one sampled simulation
     * (simulateSampled) instead of a full-detail run: confidence comes
     * from the measurement windows rather than seed repetition, so the
     * caller normally pairs this with seedsPerCell = 1
     * (docs/SAMPLING.md). Windows run serially inside each cell — the
     * sweep already parallelizes across cells.
     */
    SamplingOptions sampling;

    /**
     * Runs one full-detail cell in place of simulateOnce, for in-process
     * callers that read the System after the run (cgct_paper's
     * RegionScout and energy tables). Called from worker threads. Not
     * part of sweepFingerprint, so a caller that keys sweeps by their
     * fingerprint keys the hook too (cgct_paper pairs it with the cell
     * kind).
     */
    std::function<RunResult(const SweepCell &cell, const SystemConfig &config,
                            const RunOptions &opts)>
        simulate;

    /** Enumerate cells: profile-major, then region, then seed — the
     * exact order the serial sweep always emitted. */
    std::vector<SweepCell> expand() const;
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

  private:
    SweepSpec spec_;
    std::vector<SweepCell> cells_;
    unsigned jobs_;
};

/**
 * CSV header matching writeSweepCsvRow's column order, which is the
 * field list's (sim/result_fields.hpp). The default is the historical
 * 16-column format; @p sampled appends the per-window CI columns a
 * sampled sweep fills in (docs/SAMPLING.md), and @p topo the
 * interconnect columns of a non-default `--nodes`/`--topology` sweep.
 */
void writeSweepCsvHeader(std::ostream &os, bool sampled = false,
                         bool topo = false);

/** One CSV row (16 columns, plus the sampling/topology columns when
 *  asked). */
void writeSweepCsvRow(std::ostream &os, const RunResult &r,
                      bool sampled = false, bool topo = false);

} // namespace cgct
