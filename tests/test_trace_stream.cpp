/**
 * @file
 * Streaming-decode memory bound. The trace readers map the file
 * read-only, walk byte cursors, and release the pages behind each lane's
 * cursor every kTraceResidentWindow (MappedFile::release). So replaying
 * or verifying a multi-hundred-MB v2 trace grows the whole resident set
 * by at most lanes x (window + 64 KiB kernel fault-around), plus slack
 * for the decoder's own code and heap pages. The bound is on VmRSS,
 * which counts file-backed (RssFile) and tmpfs (RssShmem) pages as well
 * as the heap, so it holds wherever TempDir lives. A reader that kept
 * every touched page mapped would exceed it by the trace size (~200 MB).
 *
 * The writer side is covered too: lane buffers spill to unlinked spool
 * files at 4 MiB, so capturing the same trace is bounded as well. The
 * MappedFile cases check what release() promises: it drops only whole
 * pages inside its range, and a dropped page reads back the same bytes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/mapped_file.hpp"
#include "workload/trace.hpp"
#include "workload/trace_replay.hpp"

namespace cgct {
namespace {

/** Whole resident set (VmRSS) in KiB. Reads into a stack buffer: a
 *  sampler that allocated would grow the heap it measures (under ASan
 *  every freed buffer waits in quarantine). */
std::uint64_t
vmRssKib()
{
    char buf[4096];
    const int fd = ::open("/proc/self/status", O_RDONLY);
    if (fd < 0)
        return 0;
    const ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
    ::close(fd);
    if (n <= 0)
        return 0;
    buf[n] = '\0';
    const char *at = std::strstr(buf, "VmRSS:");
    return at ? std::strtoull(at + 6, nullptr, 10) : 0;
}

std::string
tempPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "cgct_stream_" + tag +
           "." + std::to_string(::getpid()) + ".bin";
}

TEST(TraceStream, MultiHundredMbTraceReplaysInBoundedMemory)
{
    const std::string path = tempPath("huge");
    constexpr unsigned kLanes = 2;
    constexpr std::uint64_t kOpsPerLane = 8'000'000;
    // 2 lanes x 8M records x 14 bytes = ~224 MB on disk.
    constexpr std::uint64_t kSlackKib = 2048;
    constexpr std::uint64_t kBoundKib =
        kLanes * (kTraceResidentWindow / 1024 + 64) + kSlackKib;

    const std::uint64_t write_base = vmRssKib();
    {
        TraceWriter writer(path, kLanes, kOpsPerLane);
        CpuOp op;
        for (std::uint64_t i = 0; i < kOpsPerLane; ++i) {
            op.kind = (i & 1) ? CpuOpKind::Store : CpuOpKind::Load;
            op.addr = (i * 64) & 0x3FFFFFFF;
            op.gap = static_cast<std::uint32_t>(i & 0x3F);
            for (unsigned lane = 0; lane < kLanes; ++lane)
                writer.append(static_cast<CpuId>(lane), op);
        }
        const std::uint64_t write_peak = vmRssKib();
        writer.close();
        // Spooling keeps the writer at ~4 MiB per lane plus slack.
        const std::uint64_t write_delta =
            write_peak > write_base ? write_peak - write_base : 0;
        EXPECT_LT(write_delta, 64u * 1024)
            << "writer held the whole capture in memory";
    }

    const TraceInfo info = readTraceInfo(path);
    ASSERT_GT(info.fileBytes, 200u * 1024 * 1024)
        << "test trace is not multi-hundred-MB";

    // Replay, sampling the resident set every 1M records.
    const std::uint64_t replay_base = vmRssKib();
    std::uint64_t replay_peak = replay_base;
    std::uint64_t seen = 0;
    {
        TraceReplay replay(path);
        CpuOp op;
        for (unsigned lane = 0; lane < kLanes; ++lane) {
            while (replay.next(static_cast<CpuId>(lane), op)) {
                if (++seen % 1'000'000 == 0)
                    replay_peak = std::max(replay_peak, vmRssKib());
            }
        }
        EXPECT_TRUE(replay.allEnded());
    }
    EXPECT_EQ(seen, kLanes * kOpsPerLane);
    EXPECT_LT(replay_peak - replay_base, kBoundKib)
        << "replay kept the trace resident instead of streaming it";

    // Verify, sampled from a second thread: the walk is one call. The
    // base is taken once the sampler runs, so it includes the thread's
    // own stack.
    std::atomic<bool> running{false}, done{false};
    std::uint64_t verify_peak = 0;
    std::thread sampler([&] {
        running = true;
        while (!done.load()) {
            verify_peak = std::max(verify_peak, vmRssKib());
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });
    while (!running.load())
        std::this_thread::yield();
    const std::uint64_t verify_base = vmRssKib();
    EXPECT_EQ(verifyTrace(path), "");
    done = true;
    sampler.join();
    EXPECT_LT(verify_peak > verify_base ? verify_peak - verify_base : 0,
              kBoundKib)
        << "verify kept the trace resident instead of streaming it";
    std::remove(path.c_str());
}

/** The page size release() rounds to. */
std::uint64_t
pageBytes()
{
    return static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

/** Write @p bytes of a position-dependent pattern to @p path. */
std::vector<std::uint8_t>
writePattern(const std::string &path, std::uint64_t bytes)
{
    std::vector<std::uint8_t> data(bytes);
    for (std::uint64_t i = 0; i < bytes; ++i)
        data[i] = static_cast<std::uint8_t>((i * 131 + (i >> 12)) & 0xFF);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr) << path;
    if (f) {
        // An empty vector's data() may be null, which fwrite rejects.
        if (bytes) {
            EXPECT_EQ(std::fwrite(data.data(), 1, bytes, f), bytes);
        }
        std::fclose(f);
    }
    return data;
}

TEST(MappedFile, ReleasedPagesReadBackTheSameBytes)
{
    const std::string path = tempPath("released");
    const std::vector<std::uint8_t> want =
        writePattern(path, 4 * pageBytes() + 100);
    MappedFile map;
    ASSERT_EQ(map.open(path), "");
    ASSERT_EQ(map.size(), want.size());
    // Touch every page, drop them all, then read them again.
    EXPECT_TRUE(std::equal(want.begin(), want.end(), map.data()));
    map.release(0, map.size());
    EXPECT_TRUE(std::equal(want.begin(), want.end(), map.data()));
    std::remove(path.c_str());
}

TEST(MappedFile, ReleaseRoundsInward)
{
    // The returned offset is where the next release starts: the range's
    // end rounded down to a page, never below its start, and never past
    // the file.
    const std::uint64_t page = pageBytes();
    const std::string path = tempPath("inward");
    writePattern(path, 4 * page + 100);
    MappedFile map;
    ASSERT_EQ(map.open(path), "");
    EXPECT_EQ(map.release(1, 3 * page + 1), 3 * page);
    EXPECT_EQ(map.release(10, 20), 10u) << "no whole page inside";
    EXPECT_EQ(map.release(page + 5, 2 * page + 5), 2 * page)
        << "a range inside two pages drops neither";
    EXPECT_EQ(map.release(0, 9 * page), 4 * page);
    std::remove(path.c_str());
}

TEST(MappedFile, MissingFileIsAnError)
{
    const std::string path = tempPath("missing");
    MappedFile map;
    EXPECT_EQ(map.open(path),
              "cannot open '" + path + "': " + std::strerror(ENOENT));
    EXPECT_EQ(map.data(), nullptr);
    EXPECT_EQ(map.size(), 0u);
}

TEST(MappedFile, EmptyFileIsAnError)
{
    const std::string path = tempPath("empty");
    writePattern(path, 0);
    MappedFile map;
    EXPECT_EQ(map.open(path), "'" + path + "' is empty");
    EXPECT_EQ(map.data(), nullptr);
    EXPECT_EQ(map.size(), 0u);
    std::remove(path.c_str());
}

/** Lane @p lane's op @p i of the decode-check trace. */
CpuOp
patternOp(std::uint64_t i, unsigned lane)
{
    CpuOp op;
    op.kind = static_cast<CpuOpKind>((i + lane) % 3);
    op.dependent = (i % 7) == 0;
    op.addr = (i * 0x9E3779B97F4A7C15ULL + lane) >> 20;
    op.gap = static_cast<std::uint32_t>(i % 41);
    return op;
}

TEST(TraceStream, ReleasedWindowsNeverChangeADecodedOp)
{
    // 400k records x 14 bytes = 5.6 MB per lane: five windows, so each
    // lane releases pages next to the other lane's payload. The lanes
    // advance in turns, as the cores fetch them, and every op decodes
    // as it was written.
    const std::string path = tempPath("windows");
    constexpr unsigned kLanes = 2;
    constexpr std::uint64_t kOps = 400'000;
    {
        TraceWriter writer(path, kLanes, kOps);
        for (std::uint64_t i = 0; i < kOps; ++i)
            for (unsigned lane = 0; lane < kLanes; ++lane)
                writer.append(static_cast<CpuId>(lane), patternOp(i, lane));
        writer.close();
    }
    TraceReplay replay(path);
    CpuOp op;
    for (std::uint64_t i = 0; i < kOps; ++i)
        for (unsigned lane = 0; lane < kLanes; ++lane) {
            ASSERT_TRUE(replay.next(static_cast<CpuId>(lane), op));
            const CpuOp want = patternOp(i, lane);
            ASSERT_EQ(op.kind, want.kind) << "lane " << lane << " op " << i;
            ASSERT_EQ(op.dependent, want.dependent);
            ASSERT_EQ(op.addr, want.addr);
            ASSERT_EQ(op.gap, want.gap);
        }
    for (unsigned lane = 0; lane < kLanes; ++lane)
        EXPECT_FALSE(replay.next(static_cast<CpuId>(lane), op));
    EXPECT_TRUE(replay.allEnded());
    std::remove(path.c_str());
}

} // namespace
} // namespace cgct
