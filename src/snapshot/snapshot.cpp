#include "snapshot/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "common/log.hpp"
#include "sim/system.hpp"
#include "snapshot/serializer.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"
#include "workload/trace_replay.hpp"

namespace cgct {

void
canonicalizeConfig(Serializer &s, const SystemConfig &c)
{
    s.u32(c.topology.numCpus);
    s.u32(c.topology.cpusPerChip);
    s.u32(c.topology.chipsPerSwitch);
    s.u32(c.topology.switchesPerBoard);
    s.u64(c.topology.interleaveBytes);
    s.u64(c.topology.memoryBytes);

    s.u32(c.core.pipelineStages);
    s.u32(c.core.fetchQueue);
    s.u32(c.core.decodeWidth);
    s.u32(c.core.issueWidth);
    s.u32(c.core.commitWidth);
    s.u32(c.core.issueWindow);
    s.u32(c.core.robEntries);
    s.u32(c.core.lsqEntries);
    s.u32(c.core.memPorts);
    s.u32(c.core.maxOutstandingMisses);

    for (const CacheParams *cp : {&c.l1i, &c.l1d, &c.l2}) {
        s.u64(cp->sizeBytes);
        s.u32(cp->associativity);
        s.u32(cp->lineBytes);
        s.u64(cp->latency);
    }

    s.b(c.prefetch.enabled);
    s.u32(c.prefetch.streams);
    s.u32(c.prefetch.runahead);
    s.b(c.prefetch.exclusivePrefetch);

    s.u64(c.interconnect.snoopLatency);
    s.u64(c.interconnect.dramLatency);
    s.u64(c.interconnect.dramOverlappedExtra);
    s.u64(c.interconnect.xferOwnChip);
    s.u64(c.interconnect.xferSameSwitch);
    s.u64(c.interconnect.xferSameBoard);
    s.u64(c.interconnect.xferRemote);
    s.u64(c.interconnect.directOwnChip);
    s.u64(c.interconnect.directSameSwitch);
    s.u64(c.interconnect.directSameBoard);
    s.u64(c.interconnect.directRemote);
    s.u64(c.interconnect.busSlot);
    s.u64(c.interconnect.snoopTagOccupancy);
    s.u64(c.interconnect.memCtrlSlot);
    s.u64(c.interconnect.dataBytesPerSystemCycle);
    s.u32(static_cast<std::uint32_t>(c.interconnect.topology));
    s.u64(c.interconnect.localSnoopLatency);
    s.u64(c.interconnect.dirLookupLatency);

    s.b(c.cgct.enabled);
    s.u64(c.cgct.regionBytes);
    s.u32(c.cgct.rcaSets);
    s.u32(c.cgct.rcaWays);
    s.b(c.cgct.selfInvalidation);
    s.b(c.cgct.favorEmptyRegions);
    s.b(c.cgct.threeStateProtocol);
    s.b(c.cgct.regionPrefetchHints);
    s.b(c.cgct.sharedPerChip);

    s.b(c.dma.enabled);
    s.u64(c.dma.meanInterval);
    s.u64(c.dma.bufferBytes);
    s.f64(c.dma.readFraction);
    s.u64(c.dma.targetBase);
    s.u64(c.dma.targetBytes);

    // The slot of a retired top-level copy of the DMA buffer size, which
    // always equalled dma.bufferBytes: kept so that every fingerprint,
    // and so every stored snapshot, stays valid.
    s.u64(c.dma.bufferBytes);
    // c.obs deliberately omitted: tracing and invariant checking never
    // perturb simulated behavior, so a snapshot from a plain run may be
    // replayed under full instrumentation (docs/SNAPSHOT.md).
}

std::uint64_t
snapshotFingerprint(const SystemConfig &config,
                    const std::string &profileName, const RunOptions &opts,
                    std::uint64_t everyOps)
{
    Serializer s;
    canonicalizeConfig(s, config);
    s.str(profileName);
    s.u64(opts.opsPerCpu);
    s.u64(opts.warmupOps);
    s.u64(opts.seed);
    s.u64(everyOps);
    return xxhash64(s.buffer().data(), s.size());
}

namespace {

/** Everything the harness itself must remember across a restore. */
struct HarnessState {
    std::string profileName; ///< Run identity: profile, or trace:<id>.
    std::uint64_t opsPerCpu = 0; ///< Stream length, the last pause point.
    std::uint64_t warmupOps = 0;
    std::uint64_t seed = 0;
    std::uint64_t everyOps = 0;
    std::uint64_t opsDone = 0;
    Tick measureStart = 0;
    bool warmupDone = false;

    /** The header fingerprint of this run identity. */
    std::uint64_t
    fingerprint(const SystemConfig &config) const
    {
        RunOptions id;
        id.opsPerCpu = opsPerCpu;
        id.warmupOps = warmupOps;
        id.seed = seed;
        return snapshotFingerprint(config, profileName, id, everyOps);
    }

    /** Checkpoint layout: the "harness" section. */
    void
    transfer(Archive &ar)
    {
        ar.str(profileName);
        ar.u64(opsPerCpu);
        ar.u64(warmupOps);
        ar.u64(seed);
        ar.u64(everyOps);
        ar.u64(opsDone);
        ar.u64(measureStart);
        ar.b(warmupDone);
    }
};

// The two op sources the drain loop runs. Each states once what differs
// between them: run identity, warmup progress, stream length, snapshot
// section, and whether the seed is part of what a restore must match.

/** A generated run, teed into a v2 capture when opts.capturePath is set
 *  (the tee is transparent, so captured and plain runs are identical). */
class GeneratedRun
{
  public:
    static constexpr const char *kSection = "workload";
    static constexpr bool kSeeded = true;

    GeneratedRun(const SystemConfig &config, const WorkloadProfile &profile,
                 const RunOptions &opts)
        : workload_(profile, config.topology.numCpus, opts.opsPerCpu,
                    opts.seed)
    {
        if (!opts.capturePath.empty())
            capture_ = std::make_unique<TraceCapture>(
                workload_, opts.capturePath, config.topology.numCpus,
                opts.opsPerCpu);
    }

    OpSource &
    source()
    {
        return capture_ ? static_cast<OpSource &>(*capture_) : workload_;
    }
    std::string identity() const { return workload_.profile().name; }
    std::string label() const { return identity(); }
    std::uint64_t progress() const { return workload_.minOpsDrawn(); }
    std::uint64_t streamOps() const { return workload_.opsPerCpu(); }
    void setPauseAt(std::uint64_t ops) { workload_.setPauseAt(ops); }
    void transfer(Archive &ar) { workload_.transfer(ar); }

    void
    finish()
    {
        if (capture_)
            capture_->finish();
    }

  private:
    SyntheticWorkload workload_;
    std::unique_ptr<TraceCapture> capture_;
};

/** A v2 trace replay. Its identity is the trace_id, so a snapshot never
 *  restores against a re-captured file; its stream is the longest lane
 *  (shorter lanes simply end earlier); the seed plays no part. */
class ReplayRun
{
  public:
    static constexpr const char *kSection = "replay";
    static constexpr bool kSeeded = false;

    ReplayRun(const SystemConfig &config, const std::string &path)
        : replay_(path), path_(path)
    {
        if (replay_.numLanes() != config.topology.numCpus)
            fatal("trace has %u lanes but the system has %u CPUs",
                  replay_.numLanes(), config.topology.numCpus);
    }

    OpSource &source() { return replay_; }

    std::string
    identity() const
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "trace:%016llx",
                      static_cast<unsigned long long>(replay_.traceId()));
        return buf;
    }

    std::string label() const { return "trace:" + path_; }
    std::uint64_t progress() const { return replay_.minOpsConsumed(); }
    std::uint64_t streamOps() const { return replay_.maxLaneMemOps(); }
    void setPauseAt(std::uint64_t ops) { replay_.setPauseAt(ops); }
    void transfer(Archive &ar) { replay_.transfer(ar); }
    void finish() {}

  private:
    TraceReplay replay_;
    std::string path_;
};

template <class Run>
void
writeCheckpoint(System &sys, Run &run, HarnessState &h,
                std::uint64_t fingerprint, const std::string &prefix)
{
    Serializer s;
    beginSnapshotFile(s, fingerprint);
    Archive ar(s);
    ar.section("harness", [&] { h.transfer(ar); });
    ar.section(Run::kSection, [&] { run.transfer(ar); });
    sys.transfer(ar);

    const std::string path = prefix + "." + std::to_string(h.opsDone);
    const std::string err = writeFileAtomic(path, s.buffer());
    if (!err.empty())
        fatal("checkpoint: %s", err.c_str());
    if (InvariantChecker *checker = sys.invariantChecker())
        checker->noteCheckpoint(path, sys.eq().now());
}

/**
 * Restore @p sys and @p run from ckpt.restorePath after checking that
 * the snapshot belongs to this run (@p fresh, the state it would start
 * from). Returns the stored harness state.
 */
template <class Run>
HarnessState
restoreRun(const SystemConfig &config, System &sys, Run &run,
           const HarnessState &fresh, const CheckpointOptions &ckpt)
{
    const char *path = ckpt.restorePath.c_str();
    Deserializer d;
    const std::string err = d.open(ckpt.restorePath);
    if (!err.empty())
        fatal("restore: %s", err.c_str());

    Archive ar(d);
    HarnessState stored;
    ar.section("harness", [&] { stored.transfer(ar); });
    const std::uint64_t expected = stored.fingerprint(config);
    if (expected != d.fingerprint())
        fatal("restore: snapshot '%s' was taken under a different system "
              "configuration (header fingerprint %016llx, this "
              "configuration would be %016llx) — refusing to restore",
              path, static_cast<unsigned long long>(d.fingerprint()),
              static_cast<unsigned long long>(expected));
    if (stored.profileName != fresh.profileName)
        fatal("restore: snapshot '%s' is for workload '%s', not '%s' (a "
              "replay's workload is its trace_id)",
              path, stored.profileName.c_str(), fresh.profileName.c_str());
    if (stored.opsPerCpu != fresh.opsPerCpu ||
        stored.warmupOps != fresh.warmupOps ||
        (Run::kSeeded && stored.seed != fresh.seed))
        fatal("restore: run parameters differ from snapshot '%s' (ops "
              "%llu vs %llu, warmup %llu vs %llu, seed %llu vs %llu)",
              path, static_cast<unsigned long long>(fresh.opsPerCpu),
              static_cast<unsigned long long>(stored.opsPerCpu),
              static_cast<unsigned long long>(fresh.warmupOps),
              static_cast<unsigned long long>(stored.warmupOps),
              static_cast<unsigned long long>(fresh.seed),
              static_cast<unsigned long long>(stored.seed));
    if (ckpt.everyOps && ckpt.everyOps != stored.everyOps)
        fatal("restore: snapshot '%s' was taken with a checkpoint "
              "interval of %llu ops; pass the same --checkpoint-every "
              "(or none) when restoring",
              path, static_cast<unsigned long long>(stored.everyOps));

    ar.section(Run::kSection, [&] { run.transfer(ar); });
    sys.transfer(ar);
    return stored;
}

/** The one drain loop: run the pause schedule, checkpoint between
 *  phases when asked, restore first when asked, collect. */
template <class Run>
RunResult
drainLoop(const SystemConfig &config, Run &run, const RunOptions &opts,
          const CheckpointOptions &ckpt, std::ostream *stats_out)
{
    System sys(config, run.source());

    const std::uint64_t stream = run.streamOps();
    HarnessState h;
    h.profileName = run.identity();
    h.opsPerCpu = stream;
    h.warmupOps = opts.warmupOps;
    h.seed = opts.seed;
    h.everyOps =
        (ckpt.everyOps && ckpt.everyOps < stream) ? ckpt.everyOps : stream;
    h.warmupDone = !(opts.warmupOps > 0 && opts.warmupOps < stream);

    const bool restored = !ckpt.restorePath.empty();
    if (restored)
        h = restoreRun(config, sys, run, h, ckpt);
    const std::uint64_t fingerprint = h.fingerprint(config);

    Tick measure_start = h.measureStart;
    bool warmup_done = h.warmupDone;
    for (bool resume = restored;; resume = true) {
        const std::uint64_t next_pause =
            std::min(h.opsDone + h.everyOps, h.opsPerCpu);
        const bool last = next_pause >= h.opsPerCpu;
        // The last phase runs every lane to its end record, trailing
        // synchronization records included.
        run.setPauseAt(last ? UINT64_MAX : next_pause);
        // The warmup-check event dies at each drain (it stops
        // rescheduling once every core is Finished) and is re-armed
        // each phase, after the cores start.
        const unsigned blocked = runPhase(sys, resume, opts.maxEvents, [&] {
            if (!warmup_done)
                scheduleWarmupCheck(
                    sys, [&run] { return run.progress(); }, h.warmupOps,
                    &measure_start, &warmup_done);
        });
        if (blocked && last)
            fatal("run wedged: %u core(s) are blocked on trace "
                  "synchronization events at the end of the trace — a "
                  "lane ended holding a lock or owing a barrier arrival",
                  blocked);
        if (blocked)
            fatal("checkpoint drain wedged: %u core(s) are blocked on "
                  "trace synchronization events at the %llu-op pause "
                  "point — a paused lane holds a lock or owes a barrier "
                  "arrival that a blocked lane needs. Choose a "
                  "--checkpoint-every interval aligned with the trace's "
                  "synchronization structure (or checkpoint less often)",
                  blocked, static_cast<unsigned long long>(next_pause));
        if (last)
            break;

        h.opsDone = next_pause;
        h.measureStart = measure_start;
        h.warmupDone = warmup_done;
        if (!ckpt.writePrefix.empty())
            writeCheckpoint(sys, run, h, fingerprint, ckpt.writePrefix);
    }

    run.finish();
    RunResult r = collectRunResult(sys, run.label(), opts.seed,
                                   measure_start);
    if (stats_out)
        sys.dumpStats(*stats_out);
    return r;
}

} // namespace

RunResult
simulateCheckpointed(const SystemConfig &config,
                     const WorkloadProfile &profile, const RunOptions &opts,
                     const CheckpointOptions &ckpt, std::ostream *stats_out)
{
    GeneratedRun run(config, profile, opts);
    return drainLoop(config, run, opts, ckpt, stats_out);
}

RunResult
simulateCheckpointed(const SystemConfig &config,
                     const std::string &trace_path, const RunOptions &opts,
                     const CheckpointOptions &ckpt, std::ostream *stats_out)
{
    ReplayRun run(config, trace_path);
    return drainLoop(config, run, opts, ckpt, stats_out);
}

} // namespace cgct
