/**
 * @file
 * Tests for the streaming v2 trace replayer: each lane's ops in record
 * order, lanes that end apart, and live-lane progress.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <unistd.h>

#include "workload/trace.hpp"
#include "workload/trace_replay.hpp"

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

/** A two-lane trace: loads at 0x100 and 0x140 on lane 0, 0x200 on
 *  lane 1. */
std::string
writeTwoLaneTrace(const char *tag)
{
    const std::string path = tempPath(tag);
    TraceWriter writer(path, 2, 2);
    writer.append(0, load(0x100));
    writer.append(0, load(0x140));
    writer.append(1, load(0x200));
    writer.close();
    return path;
}

TEST(TraceReplay, MinOpsConsumedTracksLiveLanes)
{
    const std::string path = writeTwoLaneTrace("minops");
    TraceReplay replay(path);
    CpuOp op;
    EXPECT_EQ(replay.minOpsConsumed(), 0u);
    ASSERT_TRUE(replay.next(0, op));
    ASSERT_TRUE(replay.next(0, op));
    EXPECT_EQ(replay.minOpsConsumed(), 0u); // Lane 1 still at 0.
    ASSERT_TRUE(replay.next(1, op));
    EXPECT_EQ(replay.minOpsConsumed(), 1u);
    // Ended lanes drop out of the minimum; all ended -> UINT64_MAX.
    EXPECT_FALSE(replay.next(1, op));
    EXPECT_EQ(replay.minOpsConsumed(), 2u);
    EXPECT_FALSE(replay.next(0, op));
    EXPECT_TRUE(replay.allEnded());
    EXPECT_EQ(replay.minOpsConsumed(), UINT64_MAX);
    std::remove(path.c_str());
}

TEST(TraceReplay, LaneOpsComeOutInRecordOrder)
{
    const std::string path = writeTwoLaneTrace("order");
    TraceReplay replay(path);
    EXPECT_EQ(replay.numLanes(), 2u);
    EXPECT_EQ(replay.maxLaneMemOps(), 2u);
    CpuOp op;
    ASSERT_TRUE(replay.next(1, op));
    EXPECT_EQ(op.addr, 0x200u);
    ASSERT_TRUE(replay.next(0, op));
    EXPECT_EQ(op.kind, CpuOpKind::Load);
    EXPECT_EQ(op.addr, 0x100u);
    ASSERT_TRUE(replay.next(0, op));
    EXPECT_EQ(op.addr, 0x140u);
    EXPECT_FALSE(replay.next(0, op));
    std::remove(path.c_str());
}

TEST(TraceReplay, EndedLaneStaysEnded)
{
    // A core may ask an ended lane again; it stays ended, and it counts
    // once toward allEnded().
    const std::string path = writeTwoLaneTrace("ended");
    TraceReplay replay(path);
    CpuOp op;
    ASSERT_TRUE(replay.next(1, op));
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(replay.next(1, op));
    EXPECT_FALSE(replay.allEnded());
    ASSERT_TRUE(replay.next(0, op));
    EXPECT_EQ(op.addr, 0x100u);
    ASSERT_TRUE(replay.next(0, op));
    EXPECT_FALSE(replay.next(0, op));
    EXPECT_TRUE(replay.allEnded());
    std::remove(path.c_str());
}

TEST(TraceReplayDeath, OpForALaneBeyondTheTraceIsFatal)
{
    const std::string path = writeTwoLaneTrace("beyond");
    TraceReplay replay(path);
    CpuOp op;
    EXPECT_EXIT(replay.next(2, op), ::testing::ExitedWithCode(1),
                "op for cpu 2 but the trace has 2 lanes");
    std::remove(path.c_str());
}

} // namespace
} // namespace cgct
