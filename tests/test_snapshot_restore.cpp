/**
 * @file
 * Directed cases of the sampler's image pair (saveImage/restoreImage,
 * docs/SNAPSHOT.md) whose bodies differ from contract row 5's matrix
 * (docs/CONTRACTS.md, test_contracts): a warmup that completes after
 * the restored drain point, a drain after every op, what saving
 * reserves and writes, and the images a restore refuses. A trace replay
 * has no image; its one phase runs lanes that end at different op
 * counts. The SnapshotPin cases pin the image of a system drained at
 * 10000 ops per CPU (tests/golden.hpp): on the default bus, and on
 * 16-node hier and dir. Label: snapshot.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "drain_schedule.hpp"
#include "golden.hpp"
#include "sha256.hpp"
#include "sim/simulator.hpp"
#include "sim/system.hpp"
#include "snapshot/result_codec.hpp"
#include "snapshot/serializer.hpp"
#include "snapshot/snapshot.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"
#include "workload/trace_replay.hpp"

using namespace cgct;

namespace {

std::string
encode(const RunResult &r)
{
    Serializer s;
    encodeRunResult(s, r);
    return {s.buffer().begin(), s.buffer().end()};
}

/** tpc-w on the default bus with 512 B regions, drained every
 *  @p interval ops per CPU. */
Schedule
tpcwSchedule(std::uint64_t ops, std::uint64_t warmup, std::uint64_t seed,
             std::uint64_t interval)
{
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    RunOptions opts;
    opts.opsPerCpu = ops;
    opts.warmupOps = warmup;
    opts.seed = seed;
    return {config, plainSystem(config), &benchmarkByName("tpc-w"), opts,
            interval};
}

TEST(SnapshotRestore, WarmupCrossesAfterRestore)
{
    // Warmup (4000 ops) completes in the *second* phase, so a run
    // restored from the first image must re-arm the warmup check and
    // reset the statistics at exactly the tick the continued run did.
    const Schedule sch = tpcwSchedule(9000, 4000, 11, 3000);
    const Drains straight = runSchedule(sch);
    ASSERT_EQ(straight.measureStarts.size(), 2u);
    EXPECT_EQ(straight.measureStarts[0], 0u)
        << "the warmup must still be running at the first drain";
    EXPECT_NE(straight.measureStarts[1], 0u)
        << "the warmup must end before the second drain";
    expectRestoresMatch(sch, straight);
}

TEST(SnapshotRestore, OneOpPausesRestore)
{
    // A drain after every op: each image holds a system one op further
    // in, and restoring any of them reproduces the run that saved it.
    const Schedule sch = tpcwSchedule(6, 0, 5, 1);
    const Drains straight = runSchedule(sch);
    EXPECT_EQ(straight.images.size(), 5u);
    expectRestoresMatch(sch, straight);
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
    // A replay is one phase, and so its last: it runs lane 0 past the op
    // where lane 1 ended, to its own end record. runPhase panics on a
    // drain that leaves a core unfinished.
    const std::string trace =
        std::string(::testing::TempDir()) + "uneven_last.trace";
    writeUnevenTrace(trace);
    SystemConfig config = makeDefaultConfig().withCgct(512);
    config.topology.numCpus = 2;
    RunOptions opts;
    opts.warmupOps = 0;
    TraceReplay replay(trace);
    System sys(config, replay);
    runPhase(sys, /*resume=*/false, opts.maxEvents);
    EXPECT_TRUE(replay.allEnded());
    EXPECT_TRUE(sys.allCoresFinished());
    EXPECT_EQ(encode(collectRunResult(sys, "trace:" + trace, opts.seed, 0)),
              encode(simulateReplay(config, trace, opts)));
    std::remove(trace.c_str());
}

/** A fresh 6000-op tpc-w system on the default bus, whose schedule
 *  drains at op 3000. */
struct TpcwRun {
    Schedule sch = tpcwSchedule(6000, 0, 3, 3000);
    SyntheticWorkload workload{*sch.profile, sch.config.topology.numCpus,
                               sch.opts.opsPerCpu, sch.opts.seed};
    System sys{sch.config, workload};
    std::size_t imageBytes = 0;

    /** Run to the first drain point and save its image. */
    std::vector<std::uint8_t>
    drainAndSave()
    {
        workload.setPauseAt(sch.interval);
        runPhase(sys, /*resume=*/false, sch.opts.maxEvents);
        return save();
    }

    std::vector<std::uint8_t>
    save()
    {
        return saveImage(sys, workload, sch.fingerprint(), imageBytes);
    }
};

TEST(SnapshotImage, ReservesThePreviousSizePlusASixteenth)
{
    // Saving reads the system without changing it, records the image's
    // size, and reserves that plus 1/16 for the next image.
    TpcwRun run;
    const std::vector<std::uint8_t> first = run.drainAndSave();
    EXPECT_EQ(run.imageBytes, first.size());
    const std::vector<std::uint8_t> second = run.save();
    EXPECT_EQ(second, first);
    EXPECT_GE(second.capacity(), first.size() + first.size() / 16);
}

TEST(SnapshotImage, HeaderCarriesTheRunFingerprint)
{
    TpcwRun run;
    Deserializer d;
    ASSERT_EQ(d.openBytes(run.drainAndSave(), "image"), "");
    EXPECT_EQ(d.version(), kSnapshotVersion);
    EXPECT_EQ(d.fingerprint(), run.sch.fingerprint());
}

TEST(SnapshotImageDeath, TruncatedImageNamesItsLabel)
{
    std::vector<std::uint8_t> image = TpcwRun().drainAndSave();
    image.pop_back();
    TpcwRun fresh;
    EXPECT_EXIT(restoreImage(fresh.sys, fresh.workload, std::move(image),
                             fresh.sch.fingerprint(), "image at op 3000"),
                ::testing::ExitedWithCode(1),
                "restore: image at op 3000: torn section");
}

TEST(SnapshotImageDeath, AnotherDrainPointIsRefused)
{
    // The fingerprint names the drain schedule: the image of the op-3000
    // drain does not restore as another schedule's image.
    std::vector<std::uint8_t> image = TpcwRun().drainAndSave();
    TpcwRun other;
    other.sch.interval = 2000;
    EXPECT_EXIT(restoreImage(other.sys, other.workload, std::move(image),
                             other.sch.fingerprint(), "op-3000 image"),
                ::testing::ExitedWithCode(1),
                "op-3000 image belongs to another run");
}

/** `cgct_sim tpc-w --ops 20000`. */
RunOptions
pinnedRun()
{
    RunOptions opts;
    opts.opsPerCpu = 20000;
    opts.warmupOps = 4000;
    opts.seed = nextSweepSeed(20050609);
    return opts;
}

/** The drain point every pin saves at. */
constexpr std::uint64_t kDrainOps = 10000;

/**
 * SHA-256 of the image of pinnedRun() on @p config, drained at
 * kDrainOps with the warmup check armed as a full run arms it. The
 * header fingerprint names the drain point.
 */
std::string
drainedImageSha(const SystemConfig &config)
{
    const RunOptions opts = pinnedRun();
    const WorkloadProfile &profile = benchmarkByName("tpc-w");
    SyntheticWorkload workload(profile, config.topology.numCpus,
                               opts.opsPerCpu, opts.seed);
    System sys(config, workload);
    workload.setPauseAt(kDrainOps);
    Tick measure_start = 0;
    runPhase(sys, /*resume=*/false, opts.maxEvents, [&] {
        scheduleWarmupCheck(
            sys, [&workload] { return workload.minOpsDrawn(); },
            opts.warmupOps, &measure_start);
    });
    std::size_t image_bytes = 0;
    const std::vector<std::uint8_t> image = saveImage(
        sys, workload,
        snapshotFingerprint(config, profile.name, opts, kDrainOps),
        image_bytes);
    const std::string sha = sha256Hex(image.data(), image.size());
    std::printf("%s %u-node image sha256: %s\n",
                topologyKindName(config.interconnect.topology),
                config.topology.numCpus, sha.c_str());
    return sha;
}

TEST(SnapshotPin, GeneratedCheckpointBytes)
{
    EXPECT_EQ(drainedImageSha(makeDefaultConfig().withCgct(512)),
              golden::kGeneratedCheckpointSha256);
}

/** `cgct_sim tpc-w --nodes 16 --topology <topology> --shared-rca
 *  --ops 20000 [--dma]`. */
SystemConfig
sixteenNodes(TopologyKind topology, bool dma)
{
    SystemConfig config = makeDefaultConfig();
    config.topology.numCpus = 16;
    config.interconnect.topology = topology;
    config = config.withCgct(512);
    config.cgct.sharedPerChip = true;
    config.dma.enabled = dma;
    return config;
}

TEST(SnapshotPin, Hier16SharedRcaCheckpointBytes)
{
    EXPECT_EQ(drainedImageSha(sixteenNodes(TopologyKind::Hier, false)),
              golden::kHier16SharedRcaCheckpointSha256);
}

TEST(SnapshotPin, Dir16DmaCheckpointBytes)
{
    EXPECT_EQ(drainedImageSha(sixteenNodes(TopologyKind::Dir, true)),
              golden::kDir16DmaCheckpointSha256);
}

} // namespace
