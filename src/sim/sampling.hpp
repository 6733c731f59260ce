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
 * Peak memory is one warm System, one image, `jobs` window Systems and
 * (functional warming) the op feed's ring, whatever K is.
 *
 * Two warming modes:
 *
 *  - functional: caches, MOESI states, region trackers and prefetchers
 *    are updated on every access, but no timing events run — no bus
 *    arbitration, no MSHR occupancy, no latency. The detailed window
 *    warms the timing state (it is tiny: bank cursors, tag-port busy
 *    ticks). Its ops are drawn ahead on one more thread
 *    (workload/op_feed.hpp) and applied here in draw order. How much
 *    faster the whole sampled run is than one full-detail run is
 *    measured once, in docs/SAMPLING.md ("Warming modes").
 *  - detailed: the full timing model fast-forwards between windows
 *    (no speedup; the reference mode for validating functional warming).
 *
 * Determinism: the warm phase applies its ops in one serial order (the
 * feed hands them over in round-robin draw order), every window
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
    /** Measurement windows (the paper-methodology K); the run measures
     *  exactly this many. 0, the default, is sampling off. */
    std::uint64_t windows = 0;
    /** Detailed ops per CPU measured in each window. */
    std::uint64_t windowOps = 1000;
    WarmMode warmMode = WarmMode::Functional;
    /** Window workers: how many windows may run at once (each holds a
     *  System); 1 measures each window inline right after its snapshot,
     *  0 = hardware concurrency. Results are identical at any value. */
    unsigned jobs = 0;
};

/**
 * Run one sampled simulation: warm, checkpoint at the K window starts,
 * measure each window in detail, aggregate. The result's counters are
 * scaled estimates of the full measured run (span / (K * windowOps));
 * r.sampling carries the per-window summaries and CIs. With K = 0 it is
 * simulateOnce. fatal()s on invalid geometry (windows * windowOps must
 * fit in opsPerCpu - warmupOps) and on options sampling cannot honor
 * (DMA, trace capture).
 */
RunResult simulateSampled(const SystemConfig &config,
                          const WorkloadProfile &profile,
                          const RunOptions &opts,
                          const SamplingOptions &sopts);

} // namespace cgct
