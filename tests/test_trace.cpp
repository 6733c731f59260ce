/**
 * @file
 * Tests for the trace frontend: v2 round-trip fidelity, header and lane
 * directory validation (docs/TRACE_FORMAT.md), capture from the
 * synthetic generator, atomic publication, the frozen bytes of a small
 * trace file, the malformed-file rejection matrix, and the rejection of
 * legacy v1 files and of retired synchronization records.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

#include "common/random.hpp"
#include "golden.hpp"
#include "snapshot/serializer.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"
#include "workload/trace_replay.hpp"

namespace cgct {
namespace {

std::string
tempPath(const char *tag)
{
    // PID-qualified: ctest runs each test as its own process, possibly
    // in parallel, so a fixed name would race between test binaries.
    return std::string(::testing::TempDir()) + "cgct_trace_" + tag +
           "." + std::to_string(::getpid()) + ".bin";
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(std::ftell(f)));
    std::rewind(f);
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
    return bytes;
}

void
put32At(std::vector<std::uint8_t> &b, std::size_t off, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        b[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void
put64At(std::vector<std::uint8_t> &b, std::size_t off, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        b[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** Recompute directory_hash and trace_id after a directory mutation, so
 *  the parser reaches the per-lane extent checks. */
void
resealHeader(std::vector<std::uint8_t> &b)
{
    const std::uint32_t n = static_cast<std::uint32_t>(
        b[12] | (b[13] << 8) | (b[14] << 16) |
        (static_cast<std::uint32_t>(b[15]) << 24));
    const std::size_t dir_bytes = n * kTraceV2LaneDirBytes;
    put64At(b, 32,
            xxhash64(b.data() + kTraceV2HeaderBytes, dir_bytes));
    Xxh64Stream id;
    id.update(b.data(), 40);
    id.update(b.data() + kTraceV2HeaderBytes, dir_bytes);
    put64At(b, 40, id.digest());
}

std::uint64_t
get64At(const std::vector<std::uint8_t> &b, std::size_t off)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(b[off + i]) << (8 * i);
    return v;
}

/** Recompute every in-range lane hash, then the directory checksum and
 *  trace id, so a mutant gets past the checksums to the checks behind
 *  them. Leaves a mutant whose directory does not fit alone. */
void
resealAll(std::vector<std::uint8_t> &b)
{
    if (b.size() < kTraceV2HeaderBytes)
        return;
    const std::uint32_t n =
        static_cast<std::uint32_t>(get64At(b, 12)); // Low half: lanes.
    const std::uint64_t dir_end =
        kTraceV2HeaderBytes + std::uint64_t{n} * kTraceV2LaneDirBytes;
    if (n > kTraceMaxLanes || dir_end > b.size())
        return;
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::size_t e = kTraceV2HeaderBytes + i * kTraceV2LaneDirBytes;
        const std::uint64_t off = get64At(b, e);
        const std::uint64_t len = get64At(b, e + 8);
        if (off <= b.size() && len <= b.size() - off)
            put64At(b, e + 32, xxhash64(b.data() + off, len));
    }
    resealHeader(b);
}

std::string
parseBytes(const std::vector<std::uint8_t> &b)
{
    TraceInfo info;
    return parseTraceV2Header(b.data(), b.size(), info);
}

/** A small, valid two-lane v2 trace to mutate. */
std::vector<std::uint8_t>
makeValidV2()
{
    const std::string path = tempPath("seed");
    {
        TraceWriter writer(path, 2, 2);
        CpuOp op;
        op.kind = CpuOpKind::Load;
        op.addr = 0x1000;
        writer.append(0, op);
        op.kind = CpuOpKind::Store;
        op.addr = 0x2000;
        writer.append(1, op);
        writer.close();
    }
    std::vector<std::uint8_t> bytes = readFile(path);
    std::remove(path.c_str());
    return bytes;
}

TEST(Trace, RoundTripPreservesOps)
{
    const std::string path = tempPath("roundtrip");
    {
        TraceWriter writer(path, 2, 3);
        CpuOp op;
        op.kind = CpuOpKind::Load;
        op.addr = 0x1234;
        op.gap = 7;
        op.dependent = true;
        writer.append(0, op);
        op.kind = CpuOpKind::Store;
        op.addr = 0xFFFF0040;
        op.gap = 0;
        op.dependent = false;
        writer.append(1, op);
        op.kind = CpuOpKind::Dcbz;
        op.addr = 0x40000000;
        writer.append(0, op);
        op.kind = CpuOpKind::Dcbf;
        op.addr = 0x222;
        op.dependent = true;
        writer.append(0, op);
        writer.close();
    }

    const TraceInfo info = readTraceInfo(path);
    EXPECT_EQ(info.version, kTraceVersion2);
    EXPECT_EQ(info.numLanes, 2u);
    EXPECT_EQ(info.opsDeclared, 3u);
    ASSERT_EQ(info.lanes.size(), 2u);
    EXPECT_EQ(info.lanes[0].memOps, 3u);
    EXPECT_EQ(info.lanes[1].memOps, 1u);

    TraceReplay replay(path);
    EXPECT_EQ(replay.numLanes(), 2u);
    EXPECT_EQ(replay.maxLaneMemOps(), 3u);
    CpuOp op;
    ASSERT_TRUE(replay.next(0, op));
    EXPECT_EQ(op.kind, CpuOpKind::Load);
    EXPECT_EQ(op.addr, 0x1234u);
    EXPECT_EQ(op.gap, 7u);
    EXPECT_TRUE(op.dependent);
    ASSERT_TRUE(replay.next(0, op));
    EXPECT_EQ(op.kind, CpuOpKind::Dcbz);
    EXPECT_FALSE(op.dependent);
    ASSERT_TRUE(replay.next(0, op));
    EXPECT_EQ(op.kind, CpuOpKind::Dcbf);
    EXPECT_EQ(op.addr, 0x222u);
    EXPECT_TRUE(op.dependent);
    EXPECT_FALSE(replay.next(0, op)); // Lane 0 stream exhausted.
    ASSERT_TRUE(replay.next(1, op));
    EXPECT_EQ(op.kind, CpuOpKind::Store);
    EXPECT_EQ(op.addr, 0xFFFF0040u);
    EXPECT_FALSE(op.dependent);
    std::remove(path.c_str());
}

/**
 * Drain a capture tee over @p source round-robin, @p ops per lane, and
 * publish its trace at @p path. Each lane must then be exhausted.
 */
void
captureRoundRobin(OpSource &source, const std::string &path, CpuId cpus,
                  std::uint64_t ops)
{
    TraceCapture capture(source, path, cpus, ops);
    CpuOp op;
    for (std::uint64_t i = 0; i < ops; ++i)
        for (CpuId cpu = 0; cpu < cpus; ++cpu)
            ASSERT_TRUE(capture.next(cpu, op));
    for (CpuId cpu = 0; cpu < cpus; ++cpu)
        EXPECT_FALSE(capture.next(cpu, op));
    capture.finish();
}

TEST(Trace, CaptureFromGenerator)
{
    const std::string path = tempPath("capture");
    {
        SyntheticWorkload workload(benchmarkByName("ocean"), 4, 500, 11);
        captureRoundRobin(workload, path, 4, 500);
    }

    const TraceInfo info = readTraceInfo(path);
    EXPECT_EQ(info.version, kTraceVersion2);
    EXPECT_EQ(info.numLanes, 4u);
    EXPECT_EQ(info.opsDeclared, 500u);
    for (const auto &lane : info.lanes)
        EXPECT_EQ(lane.memOps, 500u);
    EXPECT_EQ(verifyTrace(path), "");
    std::remove(path.c_str());
}

TEST(Trace, ReplayMatchesGeneratorStreams)
{
    // A capture of a generator equals the generator replayed with the
    // same seed and the same (round-robin) consumption order.
    const std::string path = tempPath("replay");
    {
        SyntheticWorkload workload(benchmarkByName("barnes"), 2, 300, 99);
        captureRoundRobin(workload, path, 2, 300);
    }
    SyntheticWorkload fresh(benchmarkByName("barnes"), 2, 300, 99);
    TraceReplay replay(path);
    CpuOp a, b;
    for (int i = 0; i < 300; ++i) {
        for (CpuId cpu = 0; cpu < 2; ++cpu) {
            ASSERT_TRUE(fresh.next(cpu, a));
            ASSERT_TRUE(replay.next(cpu, b));
            ASSERT_EQ(a.addr, b.addr);
            ASSERT_EQ(a.kind, b.kind);
            ASSERT_EQ(a.gap, b.gap);
            ASSERT_EQ(a.dependent, b.dependent);
        }
    }
    std::remove(path.c_str());
}

TEST(Trace, CaptureRecordsOnlyConsumedOps)
{
    // The tee records what was handed out, not what the generator could
    // emit: lanes drained unevenly and stopped early keep exactly the
    // consumed prefix, in order, while the header keeps the declared
    // length.
    const std::string path = tempPath("consumed");
    std::vector<CpuOp> handed[2];
    {
        SyntheticWorkload workload(benchmarkByName("tpc-w"), 2, 100, 5);
        TraceCapture capture(workload, path, 2, 100);
        CpuOp op;
        for (int i = 0; i < 7; ++i) {
            const CpuId cpu = i % 3 == 2 ? 1 : 0;
            ASSERT_TRUE(capture.next(cpu, op));
            handed[cpu].push_back(op);
        }
        capture.finish();
    }
    ASSERT_EQ(handed[0].size(), 5u);
    ASSERT_EQ(handed[1].size(), 2u);

    const TraceInfo info = readTraceInfo(path);
    EXPECT_EQ(info.opsDeclared, 100u);
    ASSERT_EQ(info.lanes.size(), 2u);
    EXPECT_EQ(info.lanes[0].memOps, 5u);
    EXPECT_EQ(info.lanes[1].memOps, 2u);
    EXPECT_EQ(verifyTrace(path), "");

    TraceReplay replay(path);
    for (CpuId cpu = 0; cpu < 2; ++cpu) {
        CpuOp b;
        for (const CpuOp &a : handed[cpu]) {
            ASSERT_TRUE(replay.next(cpu, b));
            EXPECT_EQ(a.addr, b.addr);
            EXPECT_EQ(a.kind, b.kind);
            EXPECT_EQ(a.gap, b.gap);
            EXPECT_EQ(a.dependent, b.dependent);
        }
        EXPECT_FALSE(replay.next(cpu, b));
    }
    std::remove(path.c_str());
}

TEST(Trace, WriterSpoolsLargeLanesToDisk)
{
    // Push one lane past the in-memory spool threshold (4 MiB) so the
    // temp-file overflow path runs, then verify hashes end to end.
    const std::string path = tempPath("spool");
    const std::uint64_t n = 320000; // ~4.3 MiB of 14-byte records.
    {
        TraceWriter writer(path, 1, n);
        CpuOp op;
        op.kind = CpuOpKind::Store;
        for (std::uint64_t i = 0; i < n; ++i) {
            op.addr = i * 64;
            op.gap = static_cast<std::uint32_t>(i & 0xFF);
            writer.append(0, op);
        }
        writer.close();
    }
    EXPECT_EQ(verifyTrace(path), "");
    const TraceInfo info = readTraceInfo(path);
    EXPECT_EQ(info.lanes[0].memOps, n);
    EXPECT_EQ(info.lanes[0].payloadBytes,
              n * kTraceV2MemRecordBytes + 1); // + end record
    std::remove(path.c_str());
}

TEST(Trace, CloseIsAtomicAndLeavesNoTempFile)
{
    const std::string path = tempPath("atomic");
    {
        TraceWriter writer(path, 1, 1);
        CpuOp op;
        op.kind = CpuOpKind::Load;
        op.addr = 0x10;
        writer.append(0, op);
        writer.close();
        writer.close(); // Idempotent.
    }
    EXPECT_TRUE(fileExists(path));
    EXPECT_FALSE(fileExists(path + ".tmp"));
    std::remove(path.c_str());
}

TEST(Trace, DestructorPublishesUnclosedWriter)
{
    // A writer has no way to drop its capture: leaving scope without
    // close() publishes a complete, verifiable trace.
    const std::string path = tempPath("dtor");
    {
        TraceWriter writer(path, 2, 1);
        CpuOp op;
        op.kind = CpuOpKind::Store;
        op.addr = 0x80;
        writer.append(1, op);
    }
    EXPECT_FALSE(fileExists(path + ".tmp"));
    EXPECT_EQ(verifyTrace(path), "");
    const TraceInfo info = readTraceInfo(path);
    ASSERT_EQ(info.lanes.size(), 2u);
    EXPECT_EQ(info.lanes[0].memOps, 0u);
    EXPECT_EQ(info.lanes[1].memOps, 1u);
    std::remove(path.c_str());
}

TEST(Trace, WriterZeroesRetiredSyncOpsField)
{
    // Every lane directory entry carries sync_ops at byte 24 as 0, the
    // only value the parser accepts, whatever the lane holds.
    const std::string path = tempPath("sync_ops_zero");
    {
        TraceWriter writer(path, 3, 4);
        CpuOp op;
        op.kind = CpuOpKind::Store;
        for (CpuId lane = 0; lane < 3; ++lane) {
            for (CpuId i = 0; i <= lane; ++i) {
                op.addr = 0x1000 * (lane + 1) + 64 * i;
                writer.append(lane, op);
            }
        }
        writer.close();
    }
    const std::vector<std::uint8_t> b = readFile(path);
    ASSERT_GE(b.size(), kTraceV2HeaderBytes + 3 * kTraceV2LaneDirBytes);
    for (std::size_t lane = 0; lane < 3; ++lane) {
        EXPECT_EQ(get64At(b, kTraceV2HeaderBytes +
                                 lane * kTraceV2LaneDirBytes + 24),
                  0u)
            << "lane " << lane;
    }
    EXPECT_EQ(verifyTrace(path), "");
    const TraceInfo info = readTraceInfo(path);
    for (std::size_t lane = 0; lane < 3; ++lane)
        EXPECT_EQ(info.lanes[lane].memOps, lane + 1);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Malformed-file rejection matrix (parseTraceV2Header error strings).

TEST(TraceMalformed, TruncatedHeader)
{
    std::vector<std::uint8_t> b = makeValidV2();
    b.resize(kTraceV2HeaderBytes - 1);
    EXPECT_EQ(parseBytes(b), "truncated header");
}

TEST(TraceMalformed, BadMagic)
{
    std::vector<std::uint8_t> b = makeValidV2();
    b[0] = 'X';
    EXPECT_EQ(parseBytes(b), "not a CGCT trace");
}

TEST(TraceMalformed, BadVersion)
{
    std::vector<std::uint8_t> b = makeValidV2();
    put32At(b, 4, 7);
    EXPECT_EQ(parseBytes(b), "unsupported version 7");
}

TEST(TraceMalformed, NonzeroReservedFlags)
{
    std::vector<std::uint8_t> b = makeValidV2();
    put32At(b, 8, 1);
    EXPECT_EQ(parseBytes(b), "nonzero reserved flags");
}

TEST(TraceMalformed, LaneCountOutOfRange)
{
    std::vector<std::uint8_t> b = makeValidV2();
    put32At(b, 12, 0);
    EXPECT_EQ(parseBytes(b), "implausible lane count 0");
    put32At(b, 12, kTraceMaxLanes + 1);
    EXPECT_EQ(parseBytes(b),
              "implausible lane count " +
                  std::to_string(kTraceMaxLanes + 1));
}

TEST(TraceMalformed, BadDirectoryOffset)
{
    std::vector<std::uint8_t> b = makeValidV2();
    put64At(b, 24, 64);
    EXPECT_EQ(parseBytes(b), "bad directory offset");
}

TEST(TraceMalformed, TruncatedLaneDirectory)
{
    std::vector<std::uint8_t> b = makeValidV2();
    b.resize(kTraceV2HeaderBytes + kTraceV2LaneDirBytes - 1);
    EXPECT_EQ(parseBytes(b), "truncated lane directory");
}

TEST(TraceMalformed, DirectoryChecksumMismatch)
{
    std::vector<std::uint8_t> b = makeValidV2();
    b[kTraceV2HeaderBytes] ^= 0xFF; // Corrupt the directory itself.
    EXPECT_EQ(parseBytes(b), "lane directory checksum mismatch");
}

TEST(TraceMalformed, TraceIdMismatch)
{
    std::vector<std::uint8_t> b = makeValidV2();
    put64At(b, 16, 999); // ops_declared is outside the dir hash but
                         // inside the trace id.
    EXPECT_EQ(parseBytes(b), "trace id mismatch");
}

TEST(TraceMalformed, WrappedPayloadLength)
{
    std::vector<std::uint8_t> b = makeValidV2();
    // A length chosen so offset + length wraps past 2^64: catches
    // naive `offset + bytes <= file_size` overflow checks.
    put64At(b, kTraceV2HeaderBytes + 8, ~0ULL - 16);
    resealHeader(b);
    EXPECT_EQ(parseBytes(b),
              "lane 0 payload out of range (wrapped or truncated)");
}

TEST(TraceMalformed, TruncatedPayload)
{
    std::vector<std::uint8_t> b = makeValidV2();
    b.resize(b.size() - 1);
    EXPECT_EQ(parseBytes(b),
              "lane 1 payload out of range (wrapped or truncated)");
}

TEST(TraceMalformed, ZeroLengthPayload)
{
    std::vector<std::uint8_t> b = makeValidV2();
    put64At(b, kTraceV2HeaderBytes + 8, 0);
    resealHeader(b);
    EXPECT_EQ(parseBytes(b), "lane 0 has no payload");
}

TEST(TraceMalformed, PayloadOffsetOutOfOrder)
{
    std::vector<std::uint8_t> b = makeValidV2();
    const std::size_t lane1 =
        kTraceV2HeaderBytes + kTraceV2LaneDirBytes;
    put64At(b, lane1 + 0, kTraceV2HeaderBytes); // Overlaps the dir.
    resealHeader(b);
    EXPECT_EQ(parseBytes(b), "lane 1 payload offset out of order");
}

TEST(TraceMalformed, TrailingBytes)
{
    std::vector<std::uint8_t> b = makeValidV2();
    b.push_back(0);
    EXPECT_EQ(parseBytes(b),
              "trailing bytes after the last lane payload");
}

TEST(TraceMalformed, DecodeRejectsUnknownOpcode)
{
    const std::uint8_t bad[14] = {0x7F};
    DecodedRecord rec;
    EXPECT_FALSE(decodeTraceRecord(bad, sizeof(bad), rec));
    EXPECT_EQ(traceRecordError(bad, sizeof(bad)),
              "unknown record opcode 0x7f");
}

TEST(TraceMalformed, DecodeRejectsTruncatedRecord)
{
    const std::uint8_t load[14] = {0x02};
    DecodedRecord rec;
    EXPECT_FALSE(decodeTraceRecord(load, 5, rec));
    EXPECT_EQ(traceRecordError(load, 5), "truncated memory record");
    EXPECT_FALSE(decodeTraceRecord(load, 0, rec));
    EXPECT_EQ(traceRecordError(load, 0),
              "record runs past the lane payload");
}

TEST(TraceMalformed, DecodeRejectsRetiredSyncOpcodesByName)
{
    // 0x10-0x14 were barrier, lock_acquire, lock_release, signal, wait.
    DecodedRecord rec;
    for (std::uint8_t opcode = 0x10; opcode <= 0x14; ++opcode) {
        const std::uint8_t bytes[14] = {opcode};
        EXPECT_FALSE(decodeTraceRecord(bytes, sizeof(bytes), rec));
        char want[40];
        std::snprintf(want, sizeof(want),
                      "retired synchronization record 0x%02x", opcode);
        EXPECT_EQ(traceRecordError(bytes, sizeof(bytes)), want);
    }
    const std::uint8_t next[14] = {0x15};
    EXPECT_EQ(traceRecordError(next, sizeof(next)),
              "unknown record opcode 0x15");
}

/** Write @p b to a temporary trace file and return its path. */
std::string
writeTrace(const char *tag, const std::vector<std::uint8_t> &b)
{
    const std::string path = tempPath(tag);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    std::fwrite(b.data(), 1, b.size(), f);
    std::fclose(f);
    return path;
}

TEST(TraceMalformed, RetiredOpcodeRefusedEverywhere)
{
    // Lane 0's load becomes a lock_acquire opcode; the resealed lane
    // hash and header get the file past every checksum to the record.
    std::vector<std::uint8_t> b = makeValidV2();
    const std::size_t payload =
        kTraceV2HeaderBytes + 2 * kTraceV2LaneDirBytes;
    b[payload] = 0x11;
    resealAll(b);
    ASSERT_EQ(parseBytes(b), "");
    const std::string path = writeTrace("retired_record", b);
    // What cgct_trace verify, cgct_trace info and cgct_sim --replay
    // call, in that order.
    const char *msg = "lane 0: retired synchronization record 0x11";
    EXPECT_EQ(verifyTrace(path), msg);
    EXPECT_EXIT(scanTrace(path), ::testing::ExitedWithCode(1), msg);
    EXPECT_EXIT(
        {
            TraceReplay replay(path);
            CpuOp op;
            replay.next(0, op);
        },
        ::testing::ExitedWithCode(1),
        "lane 0 at payload offset 0: retired synchronization record 0x11");
    std::remove(path.c_str());
}

TEST(TraceMalformed, NonzeroSyncOpsRefusedAtOpen)
{
    std::vector<std::uint8_t> b = makeValidV2();
    const std::size_t lane1 =
        kTraceV2HeaderBytes + kTraceV2LaneDirBytes;
    put64At(b, lane1 + 24, 3); // sync_ops
    resealHeader(b);
    const char *msg =
        "lane 1 sync_ops 3 is not 0: synchronization records are retired";
    EXPECT_EQ(parseBytes(b), msg);
    // verify, info and --replay all stop at the header.
    const std::string path = writeTrace("sync_ops", b);
    EXPECT_EQ(verifyTrace(path), msg);
    EXPECT_EXIT(readTraceInfo(path), ::testing::ExitedWithCode(1), msg);
    EXPECT_EXIT(TraceReplay replay(path), ::testing::ExitedWithCode(1),
                msg);
    std::remove(path.c_str());
}

TEST(TraceMalformed, VerifyCatchesPayloadCorruption)
{
    const std::string path = tempPath("corrupt");
    {
        TraceWriter writer(path, 1, 4);
        CpuOp op;
        op.kind = CpuOpKind::Load;
        for (int i = 0; i < 4; ++i) {
            op.addr = 0x1000 + i * 64;
            writer.append(0, op);
        }
        writer.close();
    }
    std::vector<std::uint8_t> b = readFile(path);
    // Flip an address byte deep in the payload: the header still
    // parses, only the lane hash re-check can catch it.
    b[b.size() - 4] ^= 0x01;
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(b.data(), 1, b.size(), f);
    std::fclose(f);
    EXPECT_EQ(verifyTrace(path), "lane 0 payload checksum mismatch");
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Seeded mutation loop: bit flips, truncations and lane-directory edits of
// a small valid trace. parseTraceV2Header and verifyTrace must return a
// message for each mutant, never crash, and a mutant verifyTrace accepts
// must replay to the directory's op counts.

constexpr std::uint32_t kMutationLanes = 3;

/** A valid trace of kMutationLanes lanes with every memory record kind. */
std::vector<std::uint8_t>
makeMutationSeed()
{
    const std::string path = tempPath("mutation_seed");
    {
        TraceWriter writer(path, kMutationLanes, 8);
        CpuOp op;
        for (unsigned lane = 0; lane < kMutationLanes; ++lane) {
            for (unsigned i = 0; i < 8; ++i) {
                op.kind = static_cast<CpuOpKind>((lane + i) % 6);
                op.dependent = (i & 1) != 0;
                op.gap = i * 3;
                op.addr = 0x10000 * (lane + 1) + i * 64;
                writer.append(lane, op);
            }
        }
        writer.close();
    }
    std::vector<std::uint8_t> bytes = readFile(path);
    std::remove(path.c_str());
    return bytes;
}

/** Apply one seeded mutation to @p b. */
void
mutate(std::vector<std::uint8_t> &b, Rng &rng)
{
    const std::size_t entry = kTraceV2HeaderBytes +
                              rng.nextBelow(kMutationLanes) *
                                  kTraceV2LaneDirBytes;
    const std::size_t payload =
        kTraceV2HeaderBytes + kMutationLanes * kTraceV2LaneDirBytes;
    const std::uint64_t edits[] = {0, 1, b.size() - 1, b.size(),
                                   b.size() + 1, UINT64_MAX,
                                   UINT64_MAX - 8, rng.next()};
    const std::uint64_t edit = edits[rng.nextBelow(std::size(edits))];
    switch (rng.nextBelow(6)) {
      case 0: // Bit flips anywhere.
        for (std::uint64_t k = 1 + rng.nextBelow(3); k > 0; --k)
            b[rng.nextBelow(b.size())] ^=
                static_cast<std::uint8_t>(1u << rng.nextBelow(8));
        break;
      case 1: // Truncation, possibly to nothing.
        b.resize(rng.nextBelow(b.size()));
        break;
      case 2: { // Lane count.
        const std::uint32_t counts[] = {0, 1, 2, 4, kTraceMaxLanes,
                                        kTraceMaxLanes + 1, UINT32_MAX};
        put32At(b, 12, counts[rng.nextBelow(std::size(counts))]);
        break;
      }
      case 3: // A lane's payload offset, absolute or nudged.
        put64At(b, entry, rng.chance(0.5)
                              ? edit
                              : get64At(b, entry) + rng.nextRange(-9, 9));
        break;
      case 4: // A lane's payload length, absolute or nudged.
        put64At(b, entry + 8,
                rng.chance(0.5) ? edit
                                : get64At(b, entry + 8) +
                                      rng.nextRange(-9, 9));
        break;
      default: // A payload byte: opcodes, flags, gaps, addresses.
        b[payload + rng.nextBelow(b.size() - payload)] =
            static_cast<std::uint8_t>(rng.next());
        break;
    }
}

TEST(TracePin, FileBytes)
{
    // Frozen: the whole file (header, lane directory, every memory record
    // kind, end records) as TraceWriter lays it out. Prints the digest.
    const std::vector<std::uint8_t> bytes = makeMutationSeed();
    const std::uint64_t digest = xxhash64(bytes.data(), bytes.size());
    std::printf("trace file xxhash64 0x%016llx (%zu bytes)\n",
                static_cast<unsigned long long>(digest), bytes.size());
    EXPECT_EQ(digest, golden::kTraceFileXxh64);
}

TEST(TraceMutation, SeededV2MutantsReturnErrorsNotCrashes)
{
    const std::vector<std::uint8_t> seed = makeMutationSeed();
    ASSERT_EQ(parseBytes(seed), "");
    const std::string path = tempPath("mutant");
    Rng rng(0x7eace2);
    unsigned parsed = 0, walked = 0, accepted = 0;
    for (int m = 0; m < 2000; ++m) {
        std::vector<std::uint8_t> b = seed;
        mutate(b, rng);
        if (rng.chance(0.5))
            resealAll(b);
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(b.data(), 1, b.size(), f);
        std::fclose(f);

        TraceInfo info;
        const std::string parse_err =
            parseTraceV2Header(b.data(), b.size(), info);
        const std::string verify_err = verifyTrace(path);
        if (!parse_err.empty()) {
            if (!b.empty()) {
                EXPECT_EQ(verify_err, parse_err) << "mutant " << m;
            }
            continue;
        }
        ++parsed;
        if (!verify_err.empty()) {
            ++walked;
            continue;
        }
        ++accepted;
        TraceReplay replay(path);
        for (std::uint32_t lane = 0; lane < info.numLanes; ++lane) {
            CpuOp op;
            std::uint64_t ops = 0;
            while (replay.next(static_cast<CpuId>(lane), op))
                ++ops;
            EXPECT_EQ(ops, info.lanes[lane].memOps) << "mutant " << m;
        }
    }
    std::remove(path.c_str());
    // The loop reaches every layer: header rejections, walker
    // rejections, and mutants that still verify.
    std::printf("parsed %u, walked %u, accepted %u of 2000\n", parsed,
                walked, accepted);
    EXPECT_GT(parsed, 400u);
    EXPECT_GT(walked, 200u);
    EXPECT_GT(accepted, 100u);
}

// ---------------------------------------------------------------------------
// fatal() paths.

TEST(TraceDeath, RejectsGarbageFile)
{
    const std::string path = tempPath("garbage");
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        std::fputs("not a trace at all", f);
        std::fclose(f);
    }
    EXPECT_DEATH(TraceReplay replay(path), "not a CGCT trace");
    std::remove(path.c_str());
}

TEST(TraceDeath, RejectsMissingFile)
{
    EXPECT_DEATH(TraceReplay replay("/nonexistent/cgct.trace"),
                 "cannot open");
}

TEST(TraceDeath, LegacyV1RejectedEverywhere)
{
    // A hand-written version-1 file: the 24-byte header (magic, version
    // 1, one CPU, one op per CPU) and one 15-byte load record.
    const std::string path = tempPath("v1");
    std::vector<std::uint8_t> v1(24 + 15, 0);
    std::memcpy(v1.data(), kTraceMagic, 4);
    put32At(v1, 4, 1);
    put32At(v1, 8, 1);
    put64At(v1, 16, 1);
    v1[24 + 1] = static_cast<std::uint8_t>(CpuOpKind::Load);
    put64At(v1, 24 + 7, 0x1000);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(v1.data(), 1, v1.size(), f);
    std::fclose(f);

    const char *msg = "legacy v1 trace is no longer supported";
    EXPECT_DEATH(TraceReplay replay(path), msg);
    EXPECT_DEATH(readTraceInfo(path), msg);
    EXPECT_DEATH(scanTrace(path), msg);
    EXPECT_EQ(verifyTrace(path), msg);
    std::remove(path.c_str());
}

TEST(TraceDeath, WriterRejectsLaneOutOfRange)
{
    const std::string path = tempPath("lane_range");
    TraceWriter writer(path, 2, 1);
    CpuOp op;
    op.kind = CpuOpKind::Load;
    EXPECT_DEATH(writer.append(5, op), "lane 5 of 2");
    writer.close();
    std::remove(path.c_str());
}

} // namespace
} // namespace cgct
