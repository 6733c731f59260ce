#include "snapshot/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/log.hpp"
#include "sim/system.hpp"
#include "snapshot/serializer.hpp"
#include "workload/generator.hpp"
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

    s.u64(c.dmaBufferBytes);
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
    std::string profileName;
    std::uint64_t opsPerCpu = 0;
    std::uint64_t warmupOps = 0;
    std::uint64_t seed = 0;
    std::uint64_t everyOps = 0;
    std::uint64_t opsDone = 0;
    Tick measureStart = 0;
    bool warmupDone = false;
};

void
writeCheckpoint(System &sys, const SyntheticWorkload &workload,
                const HarnessState &h, std::uint64_t fingerprint,
                const std::string &prefix)
{
    Serializer s;
    s.beginSection("harness");
    s.str(h.profileName);
    s.u64(h.opsPerCpu);
    s.u64(h.warmupOps);
    s.u64(h.seed);
    s.u64(h.everyOps);
    s.u64(h.opsDone);
    s.u64(h.measureStart);
    s.b(h.warmupDone);
    s.endSection();

    s.beginSection("workload");
    workload.serialize(s);
    s.endSection();

    sys.serializeState(s);

    const std::string path = prefix + "." + std::to_string(h.opsDone);
    const std::string err =
        writeFileAtomic(path, makeSnapshotFile(fingerprint, s));
    if (!err.empty())
        fatal("checkpoint: %s", err.c_str());
    if (InvariantChecker *checker = sys.invariantChecker())
        checker->noteCheckpoint(path, sys.eq().now());
}

HarnessState
readHarness(const Deserializer &d)
{
    SectionReader r = d.section("harness");
    HarnessState h;
    h.profileName = r.str();
    h.opsPerCpu = r.u64();
    h.warmupOps = r.u64();
    h.seed = r.u64();
    h.everyOps = r.u64();
    h.opsDone = r.u64();
    h.measureStart = r.u64();
    h.warmupDone = r.b();
    return h;
}

} // namespace

RunResult
simulateCheckpointed(const SystemConfig &config,
                     const WorkloadProfile &profile, const RunOptions &opts,
                     const CheckpointOptions &ckpt)
{
    SyntheticWorkload workload(profile, config.topology.numCpus,
                               opts.opsPerCpu, opts.seed);
    System sys(config, workload);

    HarnessState h;
    h.profileName = profile.name;
    h.opsPerCpu = opts.opsPerCpu;
    h.warmupOps = opts.warmupOps;
    h.seed = opts.seed;
    h.everyOps =
        (ckpt.everyOps && ckpt.everyOps < opts.opsPerCpu) ? ckpt.everyOps
                                                          : opts.opsPerCpu;
    h.warmupDone = !(opts.warmupOps > 0 && opts.warmupOps < opts.opsPerCpu);

    bool restored = false;
    if (!ckpt.restorePath.empty()) {
        Deserializer d;
        const std::string err = d.open(ckpt.restorePath);
        if (!err.empty())
            fatal("restore: %s", err.c_str());

        const HarnessState stored = readHarness(d);
        RunOptions stored_opts;
        stored_opts.opsPerCpu = stored.opsPerCpu;
        stored_opts.warmupOps = stored.warmupOps;
        stored_opts.seed = stored.seed;
        const std::uint64_t expected = snapshotFingerprint(
            config, stored.profileName, stored_opts, stored.everyOps);
        if (expected != d.fingerprint()) {
            fatal("restore: snapshot '%s' was taken under a different "
                  "system configuration (header fingerprint %016llx, "
                  "this configuration would be %016llx) — refusing to "
                  "restore",
                  ckpt.restorePath.c_str(),
                  static_cast<unsigned long long>(d.fingerprint()),
                  static_cast<unsigned long long>(expected));
        }
        if (stored.profileName != profile.name)
            fatal("restore: snapshot '%s' is for workload '%s', not '%s'",
                  ckpt.restorePath.c_str(), stored.profileName.c_str(),
                  profile.name.c_str());
        if (stored.opsPerCpu != opts.opsPerCpu ||
            stored.warmupOps != opts.warmupOps ||
            stored.seed != opts.seed) {
            fatal("restore: run parameters differ from snapshot '%s' "
                  "(ops %llu vs %llu, warmup %llu vs %llu, seed %llu vs "
                  "%llu)",
                  ckpt.restorePath.c_str(),
                  static_cast<unsigned long long>(opts.opsPerCpu),
                  static_cast<unsigned long long>(stored.opsPerCpu),
                  static_cast<unsigned long long>(opts.warmupOps),
                  static_cast<unsigned long long>(stored.warmupOps),
                  static_cast<unsigned long long>(opts.seed),
                  static_cast<unsigned long long>(stored.seed));
        }
        if (ckpt.everyOps && ckpt.everyOps != stored.everyOps)
            fatal("restore: snapshot '%s' was taken with a checkpoint "
                  "interval of %llu ops; pass the same --checkpoint-every "
                  "(or none) when restoring",
                  ckpt.restorePath.c_str(),
                  static_cast<unsigned long long>(stored.everyOps));

        {
            SectionReader w = d.section("workload");
            workload.deserialize(w);
        }
        sys.restoreState(d);
        h = stored;
        restored = true;
    }

    const std::uint64_t fingerprint = snapshotFingerprint(
        config, h.profileName, opts, h.everyOps);

    Tick measure_start = h.measureStart;
    bool warmup_done = h.warmupDone;
    bool first = true;

    while (true) {
        const std::uint64_t next_pause =
            std::min(h.opsDone + h.everyOps, h.opsPerCpu);
        workload.setPauseAt(next_pause);
        if (first && !restored)
            sys.start();
        else
            sys.resumePhase();
        first = false;
        // The warmup-check event dies at each drain (it stops
        // rescheduling once every core is Finished) and is re-armed
        // here, after resume, matching simulateOnce's start order.
        if (!warmup_done)
            scheduleWarmupCheck(
                sys, [&workload] { return workload.minOpsDrawn(); },
                h.warmupOps, &measure_start, &warmup_done);

        const std::uint64_t executed = sys.run(opts.maxEvents);
        if (executed >= opts.maxEvents)
            fatal("simulateCheckpointed: event cap hit (%llu) — runaway "
                  "simulation?",
                  static_cast<unsigned long long>(opts.maxEvents));
        if (!sys.allCoresFinished())
            panic("simulateCheckpointed: event queue drained before cores "
                  "reached the pause point");

        h.opsDone = next_pause;
        h.measureStart = measure_start;
        h.warmupDone = warmup_done;
        if (h.opsDone >= h.opsPerCpu)
            break;
        if (!ckpt.writePrefix.empty())
            writeCheckpoint(sys, workload, h, fingerprint,
                            ckpt.writePrefix);
    }

    return collectRunResult(sys, profile.name, opts.seed, measure_start);
}

namespace {

void
writeReplayCheckpoint(System &sys, const TraceReplay &replay,
                      const HarnessState &h, std::uint64_t fingerprint,
                      const std::string &prefix)
{
    Serializer s;
    s.beginSection("harness");
    s.str(h.profileName);
    s.u64(h.opsPerCpu);
    s.u64(h.warmupOps);
    s.u64(h.seed);
    s.u64(h.everyOps);
    s.u64(h.opsDone);
    s.u64(h.measureStart);
    s.b(h.warmupDone);
    s.endSection();

    s.beginSection("replay");
    replay.serialize(s);
    s.endSection();

    sys.serializeState(s);

    const std::string path = prefix + "." + std::to_string(h.opsDone);
    const std::string err =
        writeFileAtomic(path, makeSnapshotFile(fingerprint, s));
    if (!err.empty())
        fatal("checkpoint: %s", err.c_str());
    if (InvariantChecker *checker = sys.invariantChecker())
        checker->noteCheckpoint(path, sys.eq().now());
}

/** Hex trace_id: the replay's run identity in the fingerprint. */
std::string
replayIdentity(const TraceReplay &replay)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "trace:%016llx",
                  static_cast<unsigned long long>(replay.traceId()));
    return buf;
}

} // namespace

RunResult
simulateCheckpointedReplay(const SystemConfig &config,
                           const std::string &trace_path,
                           const RunOptions &opts,
                           const CheckpointOptions &ckpt)
{
    TraceReplay replay(trace_path);
    if (replay.numLanes() != config.topology.numCpus)
        fatal("trace has %u lanes but the system has %u CPUs",
              replay.numLanes(), config.topology.numCpus);
    System sys(config, replay);

    // The pause schedule is bounded by the longest lane; shorter lanes
    // simply end earlier, exactly as in an uncheckpointed replay.
    const std::uint64_t ops_bound = replay.maxLaneMemOps();

    HarnessState h;
    h.profileName = replayIdentity(replay);
    h.opsPerCpu = ops_bound;
    h.warmupOps = opts.warmupOps;
    h.seed = opts.seed;
    h.everyOps = (ckpt.everyOps && ckpt.everyOps < ops_bound)
                     ? ckpt.everyOps
                     : ops_bound;
    h.warmupDone = !(opts.warmupOps > 0 && opts.warmupOps < ops_bound);

    bool restored = false;
    if (!ckpt.restorePath.empty()) {
        Deserializer d;
        const std::string err = d.open(ckpt.restorePath);
        if (!err.empty())
            fatal("restore: %s", err.c_str());

        const HarnessState stored = readHarness(d);
        RunOptions stored_opts;
        stored_opts.opsPerCpu = stored.opsPerCpu;
        stored_opts.warmupOps = stored.warmupOps;
        stored_opts.seed = stored.seed;
        const std::uint64_t expected = snapshotFingerprint(
            config, stored.profileName, stored_opts, stored.everyOps);
        if (expected != d.fingerprint())
            fatal("restore: snapshot '%s' was taken under a different "
                  "system configuration (header fingerprint %016llx, "
                  "this configuration would be %016llx) — refusing to "
                  "restore",
                  ckpt.restorePath.c_str(),
                  static_cast<unsigned long long>(d.fingerprint()),
                  static_cast<unsigned long long>(expected));
        if (stored.profileName != h.profileName)
            fatal("restore: snapshot '%s' is for %s, not %s (the "
                  "trace_id identifies the exact capture)",
                  ckpt.restorePath.c_str(), stored.profileName.c_str(),
                  h.profileName.c_str());
        if (stored.warmupOps != opts.warmupOps)
            fatal("restore: snapshot '%s' used --warmup %llu; pass the "
                  "same value",
                  ckpt.restorePath.c_str(),
                  static_cast<unsigned long long>(stored.warmupOps));
        if (ckpt.everyOps && ckpt.everyOps != stored.everyOps)
            fatal("restore: snapshot '%s' was taken with a checkpoint "
                  "interval of %llu ops; pass the same "
                  "--checkpoint-every (or none) when restoring",
                  ckpt.restorePath.c_str(),
                  static_cast<unsigned long long>(stored.everyOps));

        {
            SectionReader w = d.section("replay");
            replay.deserialize(w);
        }
        sys.restoreState(d);
        h = stored;
        restored = true;
    }

    // The replay's run identity: opsPerCpu comes from the trace itself
    // (opts.opsPerCpu is meaningless for a replay).
    RunOptions id_opts;
    id_opts.opsPerCpu = h.opsPerCpu;
    id_opts.warmupOps = h.warmupOps;
    id_opts.seed = h.seed;
    const std::uint64_t fingerprint =
        snapshotFingerprint(config, h.profileName, id_opts, h.everyOps);

    Tick measure_start = h.measureStart;
    bool warmup_done = h.warmupDone;
    bool first = true;

    while (true) {
        const std::uint64_t next_pause =
            std::min(h.opsDone + h.everyOps, h.opsPerCpu);
        replay.setPauseAt(next_pause);
        if (first && !restored)
            sys.start();
        else
            sys.resumePhase();
        first = false;
        if (!warmup_done)
            scheduleWarmupCheck(
                sys, [&replay] { return replay.minOpsConsumed(); },
                h.warmupOps, &measure_start, &warmup_done);

        const std::uint64_t executed = sys.run(opts.maxEvents);
        if (executed >= opts.maxEvents)
            fatal("simulateCheckpointedReplay: event cap hit (%llu) — "
                  "runaway simulation?",
                  static_cast<unsigned long long>(opts.maxEvents));
        if (!sys.allCoresFinished()) {
            const unsigned wedged = sys.coresWaitingOnSync();
            if (wedged > 0)
                fatal("checkpoint drain wedged: %u core(s) are blocked "
                      "on trace synchronization events at the %llu-op "
                      "pause point — a paused lane holds a lock or owes "
                      "a barrier arrival that a blocked lane needs. "
                      "Choose a --checkpoint-every interval aligned "
                      "with the trace's synchronization structure (or "
                      "checkpoint less often)",
                      wedged,
                      static_cast<unsigned long long>(next_pause));
            panic("simulateCheckpointedReplay: event queue drained "
                  "before cores reached the pause point");
        }

        h.opsDone = next_pause;
        h.measureStart = measure_start;
        h.warmupDone = warmup_done;
        if (h.opsDone >= h.opsPerCpu)
            break;
        if (!ckpt.writePrefix.empty())
            writeReplayCheckpoint(sys, replay, h, fingerprint,
                                  ckpt.writePrefix);
    }

    return collectRunResult(sys, "trace:" + trace_path, opts.seed,
                            measure_start);
}

} // namespace cgct
