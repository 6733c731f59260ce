/**
 * @file
 * Tests for the streaming v2 trace replayer: barrier / lock / semaphore
 * scheduling semantics, deterministic wake ordering, deadlock
 * detection, progress serialization, the text-trace converter, and
 * capture→replay statistics equivalence on the full simulator.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "event/event_queue.hpp"
#include "sim/simulator.hpp"
#include "snapshot/serializer.hpp"
#include "workload/benchmarks.hpp"
#include "workload/trace.hpp"
#include "workload/trace_replay.hpp"
#include "workload/trace_text.hpp"

namespace cgct {
namespace {

std::string
tempPath(const char *tag)
{
    // PID-qualified so parallel ctest processes never share a file.
    return std::string(::testing::TempDir()) + "cgct_replay_" + tag +
           "." + std::to_string(::getpid()) + ".bin";
}

CpuOp
load(Addr addr)
{
    CpuOp op;
    op.kind = CpuOpKind::Load;
    op.addr = addr;
    return op;
}

SyncRecord
sync(TraceRecOp op, std::uint64_t id, std::uint32_t participants = 0)
{
    SyncRecord s;
    s.op = op;
    s.id = id;
    s.participants = participants;
    return s;
}

/** Test harness: a replay wired to a bare event queue, with per-lane
 *  wake logs standing in for the cores. */
struct Rig {
    explicit Rig(const std::string &path) : replay(path)
    {
        replay.attach(eq);
        wakes.resize(replay.numLanes());
        for (unsigned i = 0; i < replay.numLanes(); ++i)
            replay.bindWaiter(static_cast<CpuId>(i),
                              [this, i](Tick release) {
                                  wakes[i].push_back(release);
                              });
    }

    EventQueue eq;
    TraceReplay replay;
    std::vector<std::vector<Tick>> wakes;
};

TEST(TraceReplaySync, BarrierReleasesAtMaxArrivalClock)
{
    const std::string path = tempPath("barrier");
    {
        TraceWriter writer(path, 2, 2);
        writer.append(0, load(0x100));
        writer.appendSync(0, sync(TraceRecOp::barrier, 7));
        writer.append(0, load(0x140));
        writer.append(1, load(0x200));
        writer.appendSync(1, sync(TraceRecOp::barrier, 7));
        writer.append(1, load(0x240));
        writer.close();
    }
    Rig rig(path);
    CpuOp op;
    Tick now0 = 0, now1 = 0;
    ASSERT_EQ(rig.replay.fetch(0, now0, op), OpFetch::Op);

    // Lane 0 arrives at the barrier at tick 10: it blocks.
    now0 = 10;
    EXPECT_EQ(rig.replay.fetch(0, now0, op), OpFetch::Blocked);

    // Lane 1 arrives last at tick 30: it is released inline at the max
    // arrival clock and continues to its next op.
    ASSERT_EQ(rig.replay.fetch(1, now1, op), OpFetch::Op);
    now1 = 30;
    ASSERT_EQ(rig.replay.fetch(1, now1, op), OpFetch::Op);
    EXPECT_EQ(now1, 30u);
    EXPECT_EQ(op.addr, 0x240u);

    // Lane 0's wake is delivered through the event queue at tick 30.
    rig.eq.run();
    ASSERT_EQ(rig.wakes[0].size(), 1u);
    EXPECT_EQ(rig.wakes[0][0], 30u);
    now0 = 30;
    ASSERT_EQ(rig.replay.fetch(0, now0, op), OpFetch::Op);
    EXPECT_EQ(op.addr, 0x140u);
    std::remove(path.c_str());
}

TEST(TraceReplaySync, ContendedLockHandsOffFifoAtReleaserClock)
{
    const std::string path = tempPath("lock");
    {
        TraceWriter writer(path, 3, 2);
        for (CpuId l = 0; l < 3; ++l) {
            writer.appendSync(l, sync(TraceRecOp::lock_acquire, 5));
            writer.append(l, load(0x1000 + 0x40 * l));
            writer.appendSync(l, sync(TraceRecOp::lock_release, 5));
        }
        writer.close();
    }
    Rig rig(path);
    CpuOp op;
    Tick now0 = 0, now1 = 0, now2 = 0;

    // Lane 0 takes the lock uncontended and proceeds.
    ASSERT_EQ(rig.replay.fetch(0, now0, op), OpFetch::Op);
    // Lanes 2 then 1 contend (arrival order defines the FIFO).
    now2 = 5;
    EXPECT_EQ(rig.replay.fetch(2, now2, op), OpFetch::Blocked);
    now1 = 6;
    EXPECT_EQ(rig.replay.fetch(1, now1, op), OpFetch::Blocked);

    // Lane 0 releases at tick 40; the oldest waiter (lane 2) gets the
    // lock at the releaser's clock, then hands off to lane 1 at its own
    // release time.
    now0 = 40;
    EXPECT_EQ(rig.replay.fetch(0, now0, op), OpFetch::End);
    rig.eq.run();
    ASSERT_EQ(rig.wakes[2].size(), 1u);
    EXPECT_EQ(rig.wakes[2][0], 40u);
    EXPECT_TRUE(rig.wakes[1].empty());

    now2 = 40;
    ASSERT_EQ(rig.replay.fetch(2, now2, op), OpFetch::Op);
    EXPECT_EQ(op.addr, 0x1080u);
    now2 = 55;
    EXPECT_EQ(rig.replay.fetch(2, now2, op), OpFetch::End);
    rig.eq.run();
    ASSERT_EQ(rig.wakes[1].size(), 1u);
    EXPECT_EQ(rig.wakes[1][0], 55u);
    std::remove(path.c_str());
}

TEST(TraceReplaySync, SignalBanksUntilWaitConsumes)
{
    const std::string path = tempPath("semaphore");
    {
        TraceWriter writer(path, 2, 2);
        writer.appendSync(0, sync(TraceRecOp::signal, 3));
        writer.append(0, load(0x100));
        writer.appendSync(1, sync(TraceRecOp::wait, 3));
        writer.appendSync(1, sync(TraceRecOp::wait, 3));
        writer.append(1, load(0x200));
        writer.close();
    }
    Rig rig(path);
    CpuOp op;
    Tick now0 = 0, now1 = 0;

    // Signal before any waiter: banked. Lane 1's first wait consumes
    // the banked count without blocking; its second wait blocks.
    ASSERT_EQ(rig.replay.fetch(0, now0, op), OpFetch::Op);
    now1 = 4;
    EXPECT_EQ(rig.replay.fetch(1, now1, op), OpFetch::Blocked);
    std::remove(path.c_str());
}

TEST(TraceReplaySync, WaitBlocksUntilSignalArrives)
{
    const std::string path = tempPath("condwake");
    {
        TraceWriter writer(path, 2, 2);
        writer.appendSync(0, sync(TraceRecOp::wait, 9));
        writer.append(0, load(0x100));
        writer.append(1, load(0x200));
        writer.appendSync(1, sync(TraceRecOp::signal, 9));
        writer.append(1, load(0x240));
        writer.close();
    }
    Rig rig(path);
    CpuOp op;
    Tick now0 = 0, now1 = 0;

    EXPECT_EQ(rig.replay.fetch(0, now0, op), OpFetch::Blocked);
    ASSERT_EQ(rig.replay.fetch(1, now1, op), OpFetch::Op);
    now1 = 17;
    ASSERT_EQ(rig.replay.fetch(1, now1, op), OpFetch::Op); // signal+op
    EXPECT_EQ(op.addr, 0x240u);
    rig.eq.run();
    ASSERT_EQ(rig.wakes[0].size(), 1u);
    EXPECT_EQ(rig.wakes[0][0], 17u);
    now0 = 17;
    ASSERT_EQ(rig.replay.fetch(0, now0, op), OpFetch::Op);
    EXPECT_EQ(op.addr, 0x100u);
    std::remove(path.c_str());
}

TEST(TraceReplaySync, MinOpsConsumedTracksLiveLanes)
{
    const std::string path = tempPath("minops");
    {
        TraceWriter writer(path, 2, 2);
        writer.append(0, load(0x100));
        writer.append(0, load(0x140));
        writer.append(1, load(0x200));
        writer.close();
    }
    Rig rig(path);
    CpuOp op;
    Tick now = 0;
    EXPECT_EQ(rig.replay.minOpsConsumed(), 0u);
    ASSERT_EQ(rig.replay.fetch(0, now, op), OpFetch::Op);
    ASSERT_EQ(rig.replay.fetch(0, now, op), OpFetch::Op);
    EXPECT_EQ(rig.replay.minOpsConsumed(), 0u); // Lane 1 still at 0.
    ASSERT_EQ(rig.replay.fetch(1, now, op), OpFetch::Op);
    EXPECT_EQ(rig.replay.minOpsConsumed(), 1u);
    // Ended lanes drop out of the minimum; all ended -> UINT64_MAX.
    EXPECT_EQ(rig.replay.fetch(1, now, op), OpFetch::End);
    EXPECT_EQ(rig.replay.minOpsConsumed(), 2u);
    EXPECT_EQ(rig.replay.fetch(0, now, op), OpFetch::End);
    EXPECT_TRUE(rig.replay.allEnded());
    EXPECT_EQ(rig.replay.minOpsConsumed(), UINT64_MAX);
    std::remove(path.c_str());
}

TEST(TraceReplaySync, ProgressSerializesAndRestores)
{
    const std::string path = tempPath("progress");
    {
        TraceWriter writer(path, 2, 3);
        writer.appendSync(0, sync(TraceRecOp::lock_acquire, 11));
        writer.append(0, load(0x100));
        writer.append(0, load(0x140));
        writer.appendSync(0, sync(TraceRecOp::signal, 4));
        writer.append(1, load(0x200));
        writer.close();
    }
    Rig rig(path);
    CpuOp op;
    Tick now = 0;
    // Consume: lane 0 acquires a lock, does two loads, banks a signal.
    ASSERT_EQ(rig.replay.fetch(0, now, op), OpFetch::Op);
    ASSERT_EQ(rig.replay.fetch(0, now, op), OpFetch::Op);
    EXPECT_EQ(rig.replay.fetch(0, now, op), OpFetch::End);
    ASSERT_EQ(rig.replay.fetch(1, now, op), OpFetch::Op);

    Serializer s;
    Archive save(s);
    save.section("replay", [&] { rig.replay.transfer(save); });

    // Restore into a fresh replay of the same file; lane cursors, the
    // held lock, and the banked signal must all survive.
    const std::vector<std::uint8_t> file =
        makeSnapshotFile(0, s);
    const std::string snap = tempPath("progress_snap");
    ASSERT_EQ(writeFileAtomic(snap, file), "");
    Deserializer d;
    ASSERT_EQ(d.open(snap), "");
    Rig fresh(path);
    Archive load(d);
    load.section("replay", [&] { fresh.replay.transfer(load); });

    EXPECT_EQ(fresh.replay.minOpsConsumed(), 1u);
    Tick fnow = 0;
    EXPECT_EQ(fresh.replay.fetch(1, fnow, op), OpFetch::End);
    EXPECT_EQ(fresh.replay.fetch(0, fnow, op), OpFetch::End);
    std::remove(snap.c_str());
    std::remove(path.c_str());
}

TEST(TraceReplayDeath, AllLanesBlockedIsDeadlock)
{
    const std::string path = tempPath("deadlock");
    {
        TraceWriter writer(path, 2, 1);
        writer.appendSync(0, sync(TraceRecOp::wait, 1));
        writer.appendSync(1, sync(TraceRecOp::wait, 2));
        writer.close();
    }
    Rig rig(path);
    CpuOp op;
    Tick now = 0;
    EXPECT_EQ(rig.replay.fetch(0, now, op), OpFetch::Blocked);
    EXPECT_DEATH(rig.replay.fetch(1, now, op), "deadlock");
    std::remove(path.c_str());
}

TEST(TraceReplayDeath, ReleasingUnheldLockIsFatal)
{
    const std::string path = tempPath("badrelease");
    {
        TraceWriter writer(path, 2, 1);
        writer.appendSync(0, sync(TraceRecOp::lock_release, 3));
        writer.append(1, load(0x100));
        writer.close();
    }
    Rig rig(path);
    CpuOp op;
    Tick now = 0;
    EXPECT_DEATH(rig.replay.fetch(0, now, op),
                 "releases lock 3 it does not hold");
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Text-trace conversion (docs/TRACE_FORMAT.md#text-format).

TEST(TraceText, ConvertsSynchroTraceStyleLog)
{
    const std::string in = tempPath("text_in");
    const std::string out = tempPath("text_out");
    {
        std::ofstream os(in);
        os << "# a comment line\n";
        os << "\n";
        os << "1,1,10,2,1,1 $ 4096 4159 * 8192 8255\n";
        os << "2,1,pth_ty:1^2048\n";
        os << "1,2,5,0,1,0 $ 12288 12351\n";
        os << "2,2 # 1 1 8192 8255\n";
        os << "3,1,pth_ty:2^2048\n";
        os << "4,1,pth_ty:5^4096,5^4096\n";
        os << "3,2,pth_ty:5^4096\n";
    }
    const TraceTextStats stats = convertTextTrace(in, out);
    EXPECT_EQ(stats.lines, 7u);
    EXPECT_EQ(stats.compEvents, 2u);
    EXPECT_EQ(stats.commEvents, 1u);
    EXPECT_EQ(stats.syncEvents, 5u); // Counted per TYPE^ADDR pair.
    EXPECT_EQ(stats.lanes, 2u);
    EXPECT_EQ(stats.memOps, 4u);

    EXPECT_EQ(verifyTrace(out), "");
    const TraceInfo info = readTraceInfo(out);
    EXPECT_EQ(info.numLanes, 2u);
    // Thread 1 -> lane 0: Load+Store, acquire+release+2 barriers.
    EXPECT_EQ(info.lanes[0].memOps, 2u);
    EXPECT_EQ(info.lanes[0].syncOps, 4u);
    // Thread 2 -> lane 1: Load, dependent Load, one barrier.
    EXPECT_EQ(info.lanes[1].memOps, 2u);
    EXPECT_EQ(info.lanes[1].syncOps, 1u);

    // The comm-event read replays as a dependent load at the consumed
    // address.
    TraceReplay replay(out);
    CpuOp op;
    ASSERT_TRUE(replay.next(1, op));
    EXPECT_EQ(op.addr, 12288u);
    EXPECT_FALSE(op.dependent);
    ASSERT_TRUE(replay.next(1, op));
    EXPECT_EQ(op.addr, 8192u);
    EXPECT_TRUE(op.dependent);
    std::remove(in.c_str());
    std::remove(out.c_str());
}

TEST(TraceText, GapCarriesAcrossEventsWithoutRanges)
{
    const std::string in = tempPath("carry_in");
    const std::string out = tempPath("carry_out");
    {
        std::ofstream os(in);
        os << "1,1,100,0,0,0\n"; // No ranges: 100 iops carried.
        os << "2,1,10,0,1,0 $ 64 127\n";
    }
    convertTextTrace(in, out);
    TraceReplay replay(out);
    CpuOp op;
    ASSERT_TRUE(replay.next(0, op));
    EXPECT_EQ(op.gap, 110u); // Carried 100 + this event's 10.
    std::remove(in.c_str());
    std::remove(out.c_str());
}

TEST(TraceTextDeath, ParseErrorsNameTheLine)
{
    const std::string in = tempPath("bad_in");
    {
        std::ofstream os(in);
        os << "1,1,10,2,1,1 $ 4096 4159\n";
        os << "not an event\n";
    }
    EXPECT_DEATH(convertTextTrace(in, tempPath("bad_out")), ":2:");
    {
        // A signed thread id is a bad number, not 2^64 - 1.
        std::ofstream os(in);
        os << "1,-1,10,2,1,1 $ 4096 4159\n";
    }
    EXPECT_DEATH(convertTextTrace(in, tempPath("bad_out")),
                 ":1: bad number '-1'");
    std::remove(in.c_str());
}

// ---------------------------------------------------------------------------
// End-to-end: capture during a live run, replay to identical stats.

TEST(TraceReplayE2E, CaptureThenReplayReproducesRunStatistics)
{
    for (const char *bench : {"tpc-w", "barnes"}) {
        const std::string path =
            tempPath(("e2e_" + std::string(bench)).c_str());
        SystemConfig config = makeDefaultConfig();
        config = config.withCgct(512, 8192, 2);
        RunOptions opts;
        opts.opsPerCpu = 8000;
        opts.warmupOps = 1600;
        opts.seed = 77;
        opts.capturePath = path;
        const RunResult live =
            simulateOnce(config, benchmarkByName(bench), opts);

        RunOptions replay_opts = opts;
        replay_opts.capturePath.clear();
        const RunResult replayed =
            simulateReplay(config, path, replay_opts);

        EXPECT_EQ(replayed.cycles, live.cycles) << bench;
        EXPECT_EQ(replayed.instructions, live.instructions) << bench;
        EXPECT_EQ(replayed.requestsTotal, live.requestsTotal) << bench;
        EXPECT_EQ(replayed.broadcasts, live.broadcasts) << bench;
        EXPECT_EQ(replayed.directs, live.directs) << bench;
        EXPECT_EQ(replayed.locals, live.locals) << bench;
        EXPECT_EQ(replayed.writebacks, live.writebacks) << bench;
        EXPECT_EQ(replayed.oracleTotal, live.oracleTotal) << bench;
        EXPECT_EQ(replayed.oracleUnnecessary, live.oracleUnnecessary)
            << bench;
        EXPECT_EQ(replayed.cacheToCache, live.cacheToCache) << bench;
        EXPECT_EQ(replayed.memorySupplied, live.memorySupplied)
            << bench;
        EXPECT_DOUBLE_EQ(replayed.l2MissRatio, live.l2MissRatio)
            << bench;
        EXPECT_DOUBLE_EQ(replayed.avgMissLatency, live.avgMissLatency)
            << bench;
        std::remove(path.c_str());
    }
}

} // namespace
} // namespace cgct
