/**
 * @file
 * Tests for the streaming v2 trace replayer: live-lane progress, and
 * progress serialization and its retired zero slots.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <unistd.h>
#include <vector>

#include "snapshot/serializer.hpp"
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

/** A snapshot file image holding @p replay's progress as its "replay"
 *  section. */
std::vector<std::uint8_t>
saveProgress(TraceReplay &replay)
{
    Serializer s;
    Archive save(s);
    save.section("replay", [&] { replay.transfer(save); });
    return makeSnapshotFile(0, s);
}

/** Load @p file's "replay" section into @p replay. */
void
loadProgress(std::vector<std::uint8_t> file, TraceReplay &replay)
{
    Deserializer d;
    ASSERT_EQ(d.openBytes(std::move(file), "progress"), "");
    Archive load(d);
    load.section("replay", [&] { replay.transfer(load); });
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

TEST(TraceReplay, ProgressSerializesAndRestores)
{
    const std::string path = writeTwoLaneTrace("progress");
    TraceReplay replay(path);
    CpuOp op;
    // Lane 0 takes one of its two loads; lane 1 takes its load and ends.
    ASSERT_TRUE(replay.next(0, op));
    ASSERT_TRUE(replay.next(1, op));
    EXPECT_FALSE(replay.next(1, op));

    // Restore into a fresh replay of the same file: the lane cursors,
    // the ended lane and minOpsConsumed all survive.
    TraceReplay fresh(path);
    loadProgress(saveProgress(replay), fresh);
    EXPECT_EQ(fresh.minOpsConsumed(), 1u);
    EXPECT_FALSE(fresh.next(1, op));
    ASSERT_TRUE(fresh.next(0, op));
    EXPECT_EQ(op.addr, 0x140u);
    EXPECT_FALSE(fresh.next(0, op));
    EXPECT_TRUE(fresh.allEnded());
    std::remove(path.c_str());
}

/** Store 1 in the byte @p back bytes before the xxhash64 that ends
 *  @p file's "replay" section, then reseal the section so a load gets
 *  past the checksum to the slot. */
void
storeOneBeforeHash(std::vector<std::uint8_t> &file, std::size_t back)
{
    const std::size_t hash_at = file.size() - 8;
    file[hash_at - back] = 1;
    const std::size_t payload_bytes = loadLe<std::uint64_t>(
        file.data() + 20 + 4 + 6); // Header, name length, "replay".
    const std::size_t payload_at = hash_at - payload_bytes;
    storeLe<std::uint64_t>(file.data() + hash_at,
                           xxhash64(file.data() + payload_at,
                                    payload_bytes));
}

// The section ends with lane 1's retired sync-record count (u64) and
// its ended flag (u8), then the retired held-lock and banked-signal
// counts (u32 each). Each slot must load as zero.

TEST(TraceReplayDeath, HeldLockSlotMustBeZero)
{
    const std::string path = writeTwoLaneTrace("held_lock");
    TraceReplay replay(path);
    std::vector<std::uint8_t> file = saveProgress(replay);
    storeOneBeforeHash(file, 8);
    TraceReplay fresh(path);
    EXPECT_EXIT(loadProgress(file, fresh), ::testing::ExitedWithCode(1),
                "held locks mismatch \\(1 stored, 0 here\\)");
    std::remove(path.c_str());
}

TEST(TraceReplayDeath, BankedSignalSlotMustBeZero)
{
    const std::string path = writeTwoLaneTrace("banked_signal");
    TraceReplay replay(path);
    std::vector<std::uint8_t> file = saveProgress(replay);
    storeOneBeforeHash(file, 4);
    TraceReplay fresh(path);
    EXPECT_EXIT(loadProgress(file, fresh), ::testing::ExitedWithCode(1),
                "banked signals mismatch \\(1 stored, 0 here\\)");
    std::remove(path.c_str());
}

TEST(TraceReplayDeath, LaneSyncRecordsSlotMustBeZero)
{
    const std::string path = writeTwoLaneTrace("lane_sync");
    TraceReplay replay(path);
    std::vector<std::uint8_t> file = saveProgress(replay);
    storeOneBeforeHash(file, 8 + 1 + 8);
    TraceReplay fresh(path);
    EXPECT_EXIT(loadProgress(file, fresh), ::testing::ExitedWithCode(1),
                "lane sync records mismatch \\(1 stored, 0 here\\)");
    std::remove(path.c_str());
}

} // namespace
} // namespace cgct
