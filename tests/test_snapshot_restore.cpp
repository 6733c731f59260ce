/**
 * @file
 * Directed restore cases (docs/SNAPSHOT.md) whose bodies differ from
 * contract row 5's matrix (docs/CONTRACTS.md, test_contracts): a warmup
 * that completes after the restored drain point, and trace lanes that
 * end at different op counts. The SnapshotPin cases pin the checkpoint
 * files themselves (tests/golden.hpp): generated, replayed, and 16-node
 * hier and dir. Label: snapshot.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "golden.hpp"
#include "sha256.hpp"
#include "sim/simulator.hpp"
#include "snapshot/result_codec.hpp"
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

/** A two-lane trace at @p path whose lanes end at different op counts:
 *  lane 0 takes three loads, lane 1 one. */
void
writeUnevenTrace(const std::string &path)
{
    TraceWriter writer(path, 2, 3);
    CpuOp load;
    load.kind = CpuOpKind::Load;
    for (Addr addr : {0x1000, 0x2000, 0x3000}) {
        load.addr = addr;
        writer.append(0, load);
    }
    load.addr = 0x4000;
    writer.append(1, load);
    writer.close();
}

TEST(SnapshotRestore, LastPhaseDrainsUnevenLanes)
{
    // One phase past the stream is the last phase: it runs lane 0 past
    // the op where lane 1 ended, to its own end record.
    const std::string trace =
        std::string(::testing::TempDir()) + "uneven_last.trace";
    writeUnevenTrace(trace);
    SystemConfig config = configFor(512);
    config.topology.numCpus = 2;
    RunOptions opts;
    opts.warmupOps = 0;
    CheckpointOptions ckpt;
    ckpt.everyOps = 100;
    const std::vector<std::uint8_t> replay =
        encode(simulateReplay(config, trace, opts));
    const std::vector<std::uint8_t> harness =
        encode(simulateCheckpointed(config, trace, opts, ckpt));
    EXPECT_EQ(replay, harness);
    std::remove(trace.c_str());
}

TEST(SnapshotRestore, OneOpPausesRestoreUnevenLanes)
{
    // A pause after every op: lane 1 ends in the first phase, so lane 0
    // alone reaches the 2-op pause point. Restoring either checkpoint
    // reproduces the run that wrote it.
    const std::string trace =
        std::string(::testing::TempDir()) + "uneven_pauses.trace";
    writeUnevenTrace(trace);
    SystemConfig config = configFor(512);
    config.topology.numCpus = 2;
    RunOptions opts;
    opts.warmupOps = 0;
    const std::string prefix =
        std::string(::testing::TempDir()) + "uneven_pauses.ckpt";
    CheckpointOptions writing;
    writing.everyOps = 1;
    writing.writePrefix = prefix;
    const std::vector<std::uint8_t> reference =
        encode(simulateCheckpointed(config, trace, opts, writing));
    for (const char *at : {"1", "2"}) {
        const std::string path = prefix + "." + at;
        SCOPED_TRACE("restoring " + path);
        CheckpointOptions restoring;
        restoring.restorePath = path;
        EXPECT_EQ(encode(simulateCheckpointed(config, trace, opts,
                                              restoring)),
                  reference);
        std::remove(path.c_str());
    }
    std::remove(trace.c_str());
}

TEST(SnapshotRestore, WarmupCrossesAfterRestore)
{
    // Warmup (4000 ops) completes in the *second* phase, so restoring
    // the first checkpoint must re-arm the warmup check and reset the
    // statistics at exactly the same tick the straight run did. The
    // restores name no interval: they take it from the file.
    RunOptions opts;
    opts.opsPerCpu = 9000;
    opts.warmupOps = 4000;
    opts.seed = 11;
    CheckpointOptions ckpt;
    ckpt.everyOps = 3000;
    ckpt.writePrefix = std::string(::testing::TempDir()) + "warmup_crosses";
    const auto run = [&opts](const CheckpointOptions &c) {
        return encode(simulateCheckpointed(configFor(512),
                                           benchmarkByName("tpc-w"), opts, c));
    };
    const std::vector<std::uint8_t> reference = run(ckpt);
    for (const char *at : {".3000", ".6000"}) {
        CheckpointOptions restoring;
        restoring.restorePath = ckpt.writePrefix + at;
        EXPECT_EQ(run(restoring), reference) << "restoring " << at;
        std::remove(restoring.restorePath.c_str());
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
    replay.seed = 20050609; // A replay records the --seed it is given.
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
