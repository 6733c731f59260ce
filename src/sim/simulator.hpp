/**
 * @file
 * Run harness: builds a System around an op source (the synthetic
 * workload generator or a recorded v2 trace), warms it up, measures, and
 * returns a RunResult with everything cgct_paper needs to reproduce the
 * paper's figures. Every run, plain or checkpointed, goes through one
 * drain loop (simulateCheckpointed in snapshot/snapshot.hpp) built from
 * the steps declared here. The seed chain implements the paper's
 * variability methodology (several perturbed runs, 95% confidence
 * intervals, after Alameldeen et al. [27]); sim/sweep.hpp runs the
 * perturbed runs.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/confidence.hpp"
#include "common/trace_sink.hpp"
#include "common/types.hpp"
#include "workload/profile.hpp"

namespace cgct {

/** A named histogram copied out of the finished system. */
struct HistogramSnapshot {
    std::string name;
    std::string desc;
    std::uint64_t bucketWidth = 0;
    std::uint64_t samples = 0;
    std::uint64_t sum = 0;
    /** Per-bucket counts; the last bucket is the overflow bucket. */
    std::vector<std::uint64_t> buckets;
};

/** A named distribution (moments) copied out of the finished system. */
struct DistributionSnapshot {
    std::string name;
    std::string desc;
    std::uint64_t samples = 0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double stddev = 0.0;
};

/** Knobs for one simulation. */
struct RunOptions {
    std::uint64_t opsPerCpu = 200000;
    std::uint64_t warmupOps = 40000;   ///< 0 disables warmup reset.
    std::uint64_t seed = 1;
    /** Hard event cap (runaway guard). */
    std::uint64_t maxEvents = 2000000000ULL;
    /**
     * When set, tee every op the simulation consumes into a v2 trace
     * file at this path (TraceCapture). Replaying the capture under
     * the same configuration reproduces the run's statistics
     * byte-for-byte (see docs/TRACE_FORMAT.md).
     */
    std::string capturePath;
};

/**
 * Per-window summaries of a sampled run (docs/SAMPLING.md). Attached to
 * RunResult when the run was produced by simulateSampled(); each
 * RunSummary is over the K per-window measurements, so ci95Half is the
 * 95% Student-t half-width an error bar should show.
 */
struct SamplingInfo {
    std::uint64_t windows = 0;      ///< Measurement windows (K).
    std::uint64_t windowOps = 0;    ///< Detailed ops per CPU per window.
    std::string warmMode;           ///< "functional" or "detailed".
    std::uint64_t spanOps = 0;      ///< Post-warmup ops represented.
    std::uint64_t sampledOps = 0;   ///< Ops measured in detail (K * w).
    double scale = 1.0;             ///< spanOps / sampledOps.

    // Per-window summaries (mean / stddev / 95% CI over the K windows).
    RunSummary cycles;              ///< Detailed cycles per window.
    RunSummary avgMissLatency;
    RunSummary l2MissRatio;
    RunSummary avoidedFraction;
    RunSummary avgBroadcastsPer100k;
};

/**
 * Everything measured in one run. visitFields (sim/result_fields.hpp)
 * lists each member once with its output names and counting window.
 */
struct RunResult {
    std::string workload;
    std::uint64_t regionBytes = 0;   ///< 0 = baseline (CGCT off).
    std::uint64_t seed = 0;          ///< Seed that produced this run.

    Tick cycles = 0;                 ///< Measured runtime.
    std::uint64_t instructions = 0;  ///< Retired, all CPUs, with warmup.

    std::uint64_t requestsTotal = 0;
    std::uint64_t broadcasts = 0;
    std::uint64_t directs = 0;
    std::uint64_t locals = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t broadcastsByCat[kNumCategories] = {};
    std::uint64_t directsByCat[kNumCategories] = {};
    std::uint64_t localsByCat[kNumCategories] = {};

    std::uint64_t oracleTotal = 0;
    std::uint64_t oracleUnnecessary = 0;
    std::uint64_t oracleTotalByCat[kNumCategories] = {};
    std::uint64_t oracleUnnecessaryByCat[kNumCategories] = {};

    double avgBroadcastsPer100k = 0.0;
    double peakBroadcastsPer100k = 0.0;

    std::string topology = "bus";
    unsigned nodes = 4;
    std::uint64_t localResolves = 0;
    std::uint64_t interChipBroadcasts = 0;

    double l2MissRatio = 0.0;
    double avgMissLatency = 0.0;
    std::uint64_t cacheToCache = 0;
    std::uint64_t memorySupplied = 0;

    std::uint64_t rcaEvictedEmpty = 0;
    std::uint64_t rcaEvictedOne = 0;
    std::uint64_t rcaEvictedTwo = 0;
    std::uint64_t rcaEvictedMore = 0;
    std::uint64_t rcaSelfInvalidations = 0;
    std::uint64_t inclusionWritebacks = 0;
    double avgLinesPerEvictedRegion = 0.0;

    std::vector<HistogramSnapshot> histograms;
    std::vector<DistributionSnapshot> distributions;

    /** Captured trace events (only when config.obs.trace was set).
     *  Shared so copying RunResult around the sweep stays cheap. */
    std::shared_ptr<const std::vector<TraceEvent>> trace;

    /** Per-window CIs when this result came from a sampled run
     *  (simulateSampled); null for full-detail runs. Shared for the
     *  same reason as the trace above. */
    std::shared_ptr<const SamplingInfo> sampling;

    /** Fraction of requests that avoided a broadcast (direct + local). */
    double
    avoidedFraction() const
    {
        return requestsTotal
                   ? static_cast<double>(directs + locals) /
                         static_cast<double>(requestsTotal)
                   : 0.0;
    }

    /** Oracle: fraction of broadcasts that were unnecessary. */
    double
    oracleUnnecessaryFraction() const
    {
        return oracleTotal
                   ? static_cast<double>(oracleUnnecessary) /
                         static_cast<double>(oracleTotal)
                   : 0.0;
    }
};

/** Run one simulation of a generated workload. */
RunResult simulateOnce(const SystemConfig &config,
                       const WorkloadProfile &profile,
                       const RunOptions &opts);

class System;

/**
 * Replay a recorded v2 trace to completion on @p config and return the
 * full RunResult, exactly as simulateOnce() would for a generated
 * workload. The trace streams through the mmap replayer.
 * opts.opsPerCpu is ignored (the trace defines the stream). A version-1
 * trace, or one holding a retired synchronization record, is rejected.
 * When @p stats_out is non-null the full component statistics are
 * dumped to it before the system is torn down (the CLI's --stats).
 */
RunResult simulateReplay(const SystemConfig &config,
                         const std::string &trace_path,
                         const RunOptions &opts,
                         std::ostream *stats_out = nullptr);

/**
 * Assemble a RunResult from a finished (fully drained) system: request
 * routing, oracle verdicts, traffic, RCA behavior, histograms, the
 * end-of-run invariant sweep, and the captured trace. @p workload_name
 * labels the result (a profile name, or "trace:<path>" for replays).
 */
RunResult collectRunResult(System &sys, const std::string &workload_name,
                           std::uint64_t seed, Tick measure_start);

/**
 * Arm the periodic warmup check: every 5000 ticks, test whether
 * @p min_ops (the fewest ops any CPU has consumed — minOpsDrawn() for
 * the generator, minOpsConsumed() for a trace replay) has reached
 * @p warmup_ops, and reset the measurement statistics (recording the
 * tick in @p measure_start) once it has. The event stops rescheduling
 * when every core is finished — at a checkpoint drain as well as at the
 * end of the run — so the drain loop re-arms it each phase and uses
 * @p done (may be null) to know whether the reset already happened.
 */
void scheduleWarmupCheck(System &sys,
                         std::function<std::uint64_t()> min_ops,
                         std::uint64_t warmup_ops, Tick *measure_start,
                         bool *done = nullptr);

/**
 * Run one phase to its drain point, the step every harness shares:
 * start() a fresh system, or resumePhase() one that drained or was
 * restored (@p resume), call @p after_start (events that must be
 * scheduled after the cores, such as the warmup check), and run the
 * event queue dry. fatal()s when @p max_events is hit; panic()s on a
 * drain that left a core unfinished.
 */
void runPhase(System &sys, bool resume, std::uint64_t max_events,
              const std::function<void()> &after_start = nullptr);

/**
 * The seed chain step: seed k of a sweep cell is link k+1 from the base
 * seed (SweepSpec::expand). cgct_sim runs the seed it is given, and its
 * default is the first link from cgct_sweep's default base, so any
 * sweep row reproduces as `cgct_sim ... --seed <row seed>`.
 */
inline std::uint64_t
nextSweepSeed(std::uint64_t s)
{
    return s * 2654435761ULL + 12345;
}

} // namespace cgct
