/**
 * @file
 * Restore-equivalence differential suite (docs/SNAPSHOT.md): a run that
 * writes drain checkpoints and keeps going must be reproduced *exactly*
 * — every RunResult field, histograms included — by restoring any of
 * its checkpoints and running to the end. The comparison is on the
 * journal byte encoding, so "equal" means byte-identical, not
 * approximately equal. The SnapshotPin cases pin the checkpoint files
 * themselves (tests/golden.hpp): one from a generated run, one from a v2
 * trace replay.
 *
 * Under sanitizers the benchmark x region x drain-point matrix is cut
 * down to one cell (the full matrix is asserted by the normal-build CI
 * leg). Label: snapshot.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "golden.hpp"
#include "sha256.hpp"
#include "sim/simulator.hpp"
#include "snapshot/journal.hpp"
#include "snapshot/serializer.hpp"
#include "snapshot/snapshot.hpp"
#include "workload/benchmarks.hpp"
#include "workload/trace.hpp"

using namespace cgct;

namespace {

std::vector<std::uint8_t>
encode(const RunResult &r)
{
    Serializer s;
    encodeRunResult(s, r);
    return s.buffer();
}

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::vector<std::uint8_t> data;
    if (f) {
        std::fseek(f, 0, SEEK_END);
        data.resize(static_cast<std::size_t>(std::ftell(f)));
        std::fseek(f, 0, SEEK_SET);
        EXPECT_EQ(std::fread(data.data(), 1, data.size(), f), data.size());
        std::fclose(f);
    }
    return data;
}

std::string
sha256Of(const std::string &path)
{
    const std::vector<std::uint8_t> bytes = slurp(path);
    return sha256Hex(bytes.data(), bytes.size());
}

SystemConfig
configFor(std::uint64_t region_bytes)
{
    const SystemConfig base = makeDefaultConfig();
    return region_bytes ? base.withCgct(region_bytes) : base;
}

/** Checkpoint-run-straight-through vs restore-from-each-drain-point. */
void
expectRestoreEquivalence(const std::string &benchmark,
                         std::uint64_t region_bytes, std::uint64_t seed,
                         std::uint64_t ops, std::uint64_t warmup,
                         std::uint64_t interval)
{
    SCOPED_TRACE(benchmark + " region=" + std::to_string(region_bytes) +
                 " seed=" + std::to_string(seed) +
                 " warmup=" + std::to_string(warmup));
    const SystemConfig config = configFor(region_bytes);
    const WorkloadProfile &profile = benchmarkByName(benchmark);
    RunOptions opts;
    opts.opsPerCpu = ops;
    opts.warmupOps = warmup;
    opts.seed = seed;

    const std::string prefix = std::string(::testing::TempDir()) +
                               "restore_eq_" + benchmark + "_" +
                               std::to_string(region_bytes) + "_" +
                               std::to_string(seed);
    CheckpointOptions writing;
    writing.everyOps = interval;
    writing.writePrefix = prefix;
    const std::vector<std::uint8_t> reference =
        encode(simulateCheckpointed(config, profile, opts, writing));

    std::vector<std::string> written;
    for (std::uint64_t at = interval; at < ops; at += interval)
        written.push_back(prefix + "." + std::to_string(at));
    ASSERT_FALSE(written.empty());

    for (const std::string &path : written) {
        SCOPED_TRACE("restoring " + path);
        CheckpointOptions restoring;
        restoring.restorePath = path;
        const std::vector<std::uint8_t> resumed =
            encode(simulateCheckpointed(config, profile, opts, restoring));
        ASSERT_EQ(resumed.size(), reference.size());
        EXPECT_EQ(std::memcmp(resumed.data(), reference.data(),
                              reference.size()),
                  0)
            << "restored run diverged from the uninterrupted run";
    }
    for (const std::string &path : written)
        std::remove(path.c_str());
}

TEST(SnapshotRestore, NoPauseMatchesSimulateOnce)
{
    const SystemConfig config = configFor(512);
    const WorkloadProfile &profile = benchmarkByName("tpc-w");
    RunOptions opts;
    opts.opsPerCpu = 8000;
    opts.warmupOps = 1600;
    opts.seed = 7;
    const std::vector<std::uint8_t> once =
        encode(simulateOnce(config, profile, opts));
    const std::vector<std::uint8_t> harness =
        encode(simulateCheckpointed(config, profile, opts, {}));
    ASSERT_EQ(once.size(), harness.size());
    EXPECT_EQ(std::memcmp(once.data(), harness.data(), once.size()), 0);
}

TEST(SnapshotRestore, NoPauseReplayMatchesSimulateReplay)
{
    const SystemConfig config = configFor(512);
    const std::string trace =
        std::string(::testing::TempDir()) + "nopause_replay.trace";
    RunOptions opts;
    opts.opsPerCpu = 8000;
    opts.warmupOps = 1600;
    opts.seed = 7;
    opts.capturePath = trace;
    simulateOnce(config, benchmarkByName("tpc-w"), opts);
    opts.capturePath.clear();

    const std::vector<std::uint8_t> replay =
        encode(simulateReplay(config, trace, opts));
    const std::vector<std::uint8_t> harness =
        encode(simulateCheckpointed(config, trace, opts, {}));
    ASSERT_EQ(replay.size(), harness.size());
    EXPECT_EQ(std::memcmp(replay.data(), harness.data(), replay.size()), 0);
    std::remove(trace.c_str());
}

TEST(SnapshotRestore, LastPhaseRunsTrailingSyncRecords)
{
    // Lane 0's barrier comes after its last memory op. The last phase
    // must not pause lane 0 before it, or lane 1 waits forever.
    const std::string trace =
        std::string(::testing::TempDir()) + "trailing_sync.trace";
    {
        TraceWriter writer(trace, 2, 2);
        CpuOp load;
        load.kind = CpuOpKind::Load;
        SyncRecord barrier;
        barrier.op = TraceRecOp::barrier;
        barrier.id = 1;
        load.addr = 0x1000;
        writer.append(0, load);
        load.addr = 0x2000;
        writer.append(0, load);
        writer.appendSync(0, barrier);
        load.addr = 0x3000;
        writer.append(1, load);
        writer.appendSync(1, barrier);
        load.addr = 0x4000;
        writer.append(1, load);
        writer.close();
    }
    SystemConfig config = configFor(512);
    config.topology.numCpus = 2;
    RunOptions opts;
    opts.warmupOps = 0;
    CheckpointOptions ckpt;
    ckpt.everyOps = 100; // Past the stream: one (last) phase.
    const std::vector<std::uint8_t> replay =
        encode(simulateReplay(config, trace, opts));
    const std::vector<std::uint8_t> harness =
        encode(simulateCheckpointed(config, trace, opts, ckpt));
    EXPECT_EQ(replay, harness);
    std::remove(trace.c_str());
}

TEST(SnapshotRestoreDeath, WedgedDrainNamesPausePoint)
{
    // Both lanes open with the same lock. The winner pauses after one op
    // still holding it, so the loser cannot reach the 1-op pause point.
    const std::string trace =
        std::string(::testing::TempDir()) + "wedged_drain.trace";
    {
        TraceWriter writer(trace, 2, 2);
        CpuOp load;
        load.kind = CpuOpKind::Load;
        SyncRecord lock;
        lock.id = 1;
        for (CpuId lane = 0; lane < 2; ++lane) {
            lock.op = TraceRecOp::lock_acquire;
            writer.appendSync(lane, lock);
            load.addr = 0x1000 + 0x1000 * lane;
            writer.append(lane, load);
            writer.append(lane, load);
            lock.op = TraceRecOp::lock_release;
            writer.appendSync(lane, lock);
        }
        writer.close();
    }
    SystemConfig config = configFor(512);
    config.topology.numCpus = 2;
    RunOptions opts;
    opts.warmupOps = 0;
    CheckpointOptions ckpt;
    ckpt.everyOps = 1;
    EXPECT_DEATH(simulateCheckpointed(config, trace, opts, ckpt),
                 "1 core\\(s\\) are blocked on trace synchronization "
                 "events at the 1-op pause point");
    std::remove(trace.c_str());
}

TEST(SnapshotRestore, WarmupCrossesAfterRestore)
{
    // Warmup (4000 ops) completes in the *second* phase, so restoring
    // the first checkpoint must re-arm the warmup check and reset the
    // statistics at exactly the same tick the straight run did.
    expectRestoreEquivalence("tpc-w", 512, 11, 9000, 4000, 3000);
}

TEST(SnapshotRestore, DifferentialMatrix)
{
    const std::vector<std::string> benchmarks =
        CGCT_SANITIZED ? std::vector<std::string>{"tpc-w"}
                       : std::vector<std::string>{"tpc-w", "barnes",
                                                  "ocean"};
    const std::vector<std::uint64_t> regions =
        CGCT_SANITIZED ? std::vector<std::uint64_t>{512}
                       : std::vector<std::uint64_t>{0, 512};
    const std::vector<std::uint64_t> seeds =
        CGCT_SANITIZED ? std::vector<std::uint64_t>{1}
                       : std::vector<std::uint64_t>{1, 2};
    const std::uint64_t ops = CGCT_SANITIZED ? 6000 : 9000;
    for (const std::string &b : benchmarks)
        for (std::uint64_t region : regions)
            for (std::uint64_t seed : seeds)
                expectRestoreEquivalence(b, region, seed, ops,
                                         /*warmup=*/ops / 5,
                                         /*interval=*/3000);
}

TEST(SnapshotRestore, CheckpointFilesAreReproducedByRestoredRuns)
{
    // A restored run that keeps checkpointing must write byte-identical
    // snapshot files for the later drain points — the whole chain is
    // deterministic, not just the final statistics.
    const SystemConfig config = configFor(512);
    const WorkloadProfile &profile = benchmarkByName("ocean");
    RunOptions opts;
    opts.opsPerCpu = 9000;
    opts.warmupOps = 0;
    opts.seed = 3;

    const std::string a = std::string(::testing::TempDir()) + "chain_a";
    const std::string b = std::string(::testing::TempDir()) + "chain_b";
    CheckpointOptions first;
    first.everyOps = 3000;
    first.writePrefix = a;
    simulateCheckpointed(config, profile, opts, first);

    CheckpointOptions second;
    second.everyOps = 3000;
    second.writePrefix = b;
    second.restorePath = a + ".3000";
    simulateCheckpointed(config, profile, opts, second);

    EXPECT_EQ(slurp(a + ".6000"), slurp(b + ".6000"));
    for (const char *suffix : {".3000", ".6000"}) {
        std::remove((a + suffix).c_str());
        std::remove((b + suffix).c_str());
    }
}

/** `cgct_sim tpc-w --ops 20000` on the default CGCT system. */
RunOptions
pinnedRun()
{
    RunOptions opts;
    opts.opsPerCpu = 20000;
    opts.warmupOps = 4000;
    opts.seed = nextSweepSeed(20050609);
    return opts;
}

TEST(SnapshotPin, GeneratedCheckpointBytes)
{
    const std::string prefix =
        std::string(::testing::TempDir()) + "pin_generated";
    CheckpointOptions ckpt;
    ckpt.everyOps = 10000;
    ckpt.writePrefix = prefix;
    simulateCheckpointed(configFor(512), benchmarkByName("tpc-w"),
                         pinnedRun(), ckpt);
    EXPECT_EQ(sha256Of(prefix + ".10000"),
              golden::kGeneratedCheckpointSha256);
    std::remove((prefix + ".10000").c_str());
}

TEST(SnapshotPin, ReplayCheckpointBytes)
{
    const std::string dir = ::testing::TempDir();
    const std::string trace = dir + "pin_replay.trace";
    const std::string prefix = dir + "pin_replay";
    RunOptions live = pinnedRun();
    live.capturePath = trace;
    simulateOnce(configFor(512), benchmarkByName("tpc-w"), live);

    RunOptions replay = pinnedRun();
    replay.seed = 20050609; // cgct_sim --replay does not chain the seed.
    CheckpointOptions ckpt;
    ckpt.everyOps = 10000;
    ckpt.writePrefix = prefix;
    simulateCheckpointed(configFor(512), trace, replay, ckpt);
    EXPECT_EQ(sha256Of(prefix + ".10000"),
              golden::kReplayCheckpointSha256);
    std::remove((prefix + ".10000").c_str());
    std::remove(trace.c_str());
}

/** SHA-256 of the 10000-op checkpoint of `cgct_sim tpc-w --nodes 16
 *  --topology <topology> --shared-rca --ops 20000 [--dma]`. */
std::string
sixteenNodeCheckpointSha(TopologyKind topology, bool dma,
                         const std::string &stem)
{
    SystemConfig config = makeDefaultConfig();
    config.topology.numCpus = 16;
    config.interconnect.topology = topology;
    config = config.withCgct(512);
    config.cgct.sharedPerChip = true;
    config.dma.enabled = dma;

    const std::string prefix = std::string(::testing::TempDir()) + stem;
    CheckpointOptions ckpt;
    ckpt.everyOps = 10000;
    ckpt.writePrefix = prefix;
    simulateCheckpointed(config, benchmarkByName("tpc-w"), pinnedRun(),
                         ckpt);
    const std::string sha = sha256Of(prefix + ".10000");
    std::remove((prefix + ".10000").c_str());
    return sha;
}

TEST(SnapshotPin, Hier16SharedRcaCheckpointBytes)
{
    EXPECT_EQ(sixteenNodeCheckpointSha(TopologyKind::Hier, false,
                                       "pin_hier16"),
              golden::kHier16SharedRcaCheckpointSha256);
}

TEST(SnapshotPin, Dir16DmaCheckpointBytes)
{
    EXPECT_EQ(sixteenNodeCheckpointSha(TopologyKind::Dir, true,
                                       "pin_dir16"),
              golden::kDir16DmaCheckpointSha256);
}

} // namespace
