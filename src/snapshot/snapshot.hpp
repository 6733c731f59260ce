/**
 * @file
 * The run harness's drain loop, with checkpoint/restore
 * (docs/SNAPSHOT.md). simulateOnce() and simulateReplay() are this loop
 * with a single phase; sampling runs its phases through the same
 * runPhase() step.
 *
 * Event callbacks (InlineFunction closures) cannot be serialized, so a
 * checkpoint is only taken on a *quiescent* system: the op source pauses
 * op injection at a per-CPU op budget (setPauseAt), every core
 * drains to Finished, the event queue runs empty, and only then is the
 * architectural state — caches, RCAs, MSHR free lists, RNG streams,
 * workload cursors, statistics — written out. Restoring a snapshot and
 * running to the end produces byte-identical results to a run that wrote
 * the same checkpoint schedule and kept going, because the drain points
 * themselves are part of the experiment definition (they perturb event
 * timing relative to a never-paused run).
 *
 * The snapshot header carries a fingerprint of the full SystemConfig
 * plus the run identity (workload, ops, warmup, seed, interval), so a
 * snapshot taken under one configuration refuses to restore under
 * another. Observability knobs (tracing, invariant checking) are
 * deliberately excluded: they never affect simulated behavior, which is
 * what makes time-travel debugging possible — restore a snapshot from a
 * plain run with `--trace`/`--check-invariants` added and replay the
 * failing window under full instrumentation.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/config.hpp"
#include "sim/simulator.hpp"
#include "workload/profile.hpp"

namespace cgct {

class Serializer;

/** Checkpoint knobs for one simulation (all optional). */
struct CheckpointOptions {
    /** Drain and checkpoint every N ops per CPU (0 = never pause). */
    std::uint64_t everyOps = 0;
    /** Write each checkpoint to "<prefix>.<opsDone>". Empty = don't
     *  write (drains still happen, useful for schedule-equivalence
     *  tests). */
    std::string writePrefix;
    /** Restore from this snapshot instead of starting fresh. */
    std::string restorePath;
};

/**
 * Canonical serialization of every behavior-affecting SystemConfig
 * field, in declaration order. Observability knobs are excluded (see
 * file comment). Shared by the snapshot fingerprint and the sweep
 * fingerprint.
 */
void canonicalizeConfig(Serializer &s, const SystemConfig &config);

/**
 * The header fingerprint: xxhash64 over the canonical config plus the
 * run identity (profile name, opsPerCpu, warmupOps, seed, checkpoint
 * interval). opts.maxEvents is excluded — it is a runaway guard, not
 * part of the experiment.
 */
std::uint64_t snapshotFingerprint(const SystemConfig &config,
                                  const std::string &profileName,
                                  const RunOptions &opts,
                                  std::uint64_t everyOps);

/**
 * Run one simulation with periodic drain checkpoints and/or an initial
 * restore, over a generated workload (@p profile) or a recorded v2
 * trace (@p trace_path). The pause schedule is every ckpt.everyOps ops
 * per CPU, bounded by the stream length (opts.opsPerCpu, or the trace's
 * longest lane); with no interval and no restore path the run has one
 * phase and is simulateOnce() / simulateReplay() itself. A restored run
 * continues mid-stream and finishes byte-identical to the uninterrupted
 * run with the same schedule.
 *
 * The run identity hashed into the header is the profile name, or for a
 * replay "trace:<trace_id>", so a snapshot refuses to restore against a
 * different (or re-captured) trace. fatal()s on a fingerprint mismatch,
 * an unreadable or corrupt snapshot, or run parameters that differ from
 * the snapshot's (ops, warmup and, for a generated run, seed).
 * @p stats_out, when non-null, receives the full component statistics
 * (the CLI's --stats).
 */
RunResult simulateCheckpointed(const SystemConfig &config,
                               const WorkloadProfile &profile,
                               const RunOptions &opts,
                               const CheckpointOptions &ckpt,
                               std::ostream *stats_out = nullptr);
RunResult simulateCheckpointed(const SystemConfig &config,
                               const std::string &trace_path,
                               const RunOptions &opts,
                               const CheckpointOptions &ckpt,
                               std::ostream *stats_out = nullptr);

} // namespace cgct
