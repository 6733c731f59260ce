/**
 * @file
 * SMARTS-style statistical sampling (docs/SAMPLING.md): fast-forward the
 * workload under a warming mode that keeps the architectural state hot,
 * emit an in-memory CGCTSNAP checkpoint at the start of each of K evenly
 * spaced measurement windows, run every window in full detail from its
 * checkpoint (embarrassingly parallel — each window owns a private
 * System), and aggregate the per-window statistics into one RunResult
 * whose headline metrics carry 95% Student-t confidence intervals.
 *
 * Warm, snapshot and measure form a stream: each checkpoint image goes
 * to its window the moment the warm pass builds it, and the warm pass
 * starts the next image once that window has restored and freed it.
 * Peak memory is one warm System, one image and `jobs` window Systems,
 * whatever K is.
 *
 * Two warming modes:
 *
 *  - functional: caches, MOESI states, region trackers and prefetchers
 *    are updated on every access, but no timing events run — no bus
 *    arbitration, no MSHR occupancy, no latency. An order of magnitude
 *    faster than detailed simulation; the detailed window warms the
 *    timing state (it is tiny: bank cursors, tag-port busy ticks).
 *  - detailed: the full timing model fast-forwards between windows
 *    (no speedup; the reference mode for validating functional warming).
 *
 * Determinism: the warm phase is a single serial pass, every window
 * restores a byte-exact snapshot and runs under the deterministic
 * (tick, priority, seq) event contract, and aggregation walks windows
 * in index order — so a sampled run is byte-identical at any --jobs.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/config.hpp"
#include "common/confidence.hpp"
#include "sim/simulator.hpp"
#include "workload/profile.hpp"

namespace cgct {

/** How the state between measurement windows is kept warm. */
enum class WarmMode : std::uint8_t {
    Functional, ///< Architectural updates only, no timing (fast).
    Detailed,   ///< Full timing model between windows (validation).
};

/** Parse "functional"/"detailed"; false on anything else. */
bool parseWarmMode(const std::string &name, WarmMode *out);

/** Canonical CLI name of a warming mode. */
const char *warmModeName(WarmMode mode);

/** Knobs for one sampled simulation. */
struct SamplingOptions {
    /** Measurement windows (the paper-methodology K). 0 = sampling off.
     *  With a CI target this is the *starting* window count. */
    std::uint64_t windows = 8;
    /** Detailed ops per CPU measured in each window. */
    std::uint64_t windowOps = 1000;
    WarmMode warmMode = WarmMode::Functional;
    /** Window workers: how many windows may run at once (each holds a
     *  System); 1 measures each window inline right after its snapshot,
     *  0 = hardware concurrency. Results are identical at any value. */
    unsigned jobs = 0;
    /**
     * Adaptive precision (docs/SAMPLING.md): when > 0, double the
     * window count until the relative 95% CI half-width of every
     * headline metric (cycles, avg miss latency, L2 miss ratio,
     * avoided fraction, broadcasts/100k) is <= this value — e.g. 0.05
     * for +/-5% — capped by maxWindows and the window geometry.
     */
    double ciTarget = 0.0;
    /** Hard cap on the adaptive window count (the K cap). */
    std::uint64_t maxWindows = 64;
};

/**
 * Run one sampled simulation: warm, checkpoint at the K window starts,
 * measure each window in detail, aggregate. The result's counters are
 * scaled estimates of the full measured run (span / (K * windowOps));
 * r.sampling carries the per-window summaries and CIs. fatal()s on
 * invalid geometry (windows * windowOps must fit in opsPerCpu -
 * warmupOps) and on options sampling cannot honor (DMA, trace capture).
 */
RunResult simulateSampled(const SystemConfig &config,
                          const WorkloadProfile &profile,
                          const RunOptions &opts,
                          const SamplingOptions &sopts);

} // namespace cgct
