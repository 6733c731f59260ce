/**
 * @file
 * Trace record/replay frontend. The paper's evaluation replays
 * checkpointed commercial workloads; this module provides the repo's
 * equivalent: capture a multi-processor operation stream to a compact
 * binary file and replay it later, bit-identically, across
 * configurations.
 *
 * The on-disk format is v2 (constants in workload/trace_format.hpp,
 * byte-level contract in docs/TRACE_FORMAT.md): per-lane contiguous
 * payloads behind a checksummed lane directory, explicit
 * synchronization records (barrier / lock / signal / wait), written
 * atomically (temp file + fsync + rename) and decoded by mmap-backed
 * streaming (workload/trace_replay.hpp), so a replay makes no per-op
 * allocation and never materializes the op stream. A file of the
 * retired version 1 is rejected wherever a trace is opened.
 *
 * Memory is bounded by the lane count, not the trace size. Every reader
 * (the replayer, scanTrace, verifyTrace) releases the pages behind its
 * cursor once it is kTraceResidentWindow past the last release, so it
 * holds at most that window plus the kernel's fault-around (64 KiB) of
 * each lane's payload. Replaying the 28 MB benchmark trace peaks at
 * about 20 MB RSS instead of 39.5 MB; verifying a 224 MB trace grows the
 * resident set by about 2 MiB (docs/PERF.md, "Bounded trace input").
 *
 * This header holds the writer, the capture tee, and the inspection
 * helpers; the streaming replayer lives in workload/trace_replay.hpp and
 * the text-format converter in workload/trace_text.hpp.
 */

#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "cpu/core_model.hpp"
#include "snapshot/serializer.hpp"
#include "workload/trace_format.hpp"

namespace cgct {

/** Payload bytes a trace reader keeps mapped behind its cursor, per
 *  lane, before it releases them (MappedFile::release). */
inline constexpr std::uint64_t kTraceResidentWindow = 1u << 20;

/**
 * Writes a v2 trace file. Records append per lane; each lane spools to
 * an unlinked temporary file once its in-memory buffer exceeds a
 * threshold, so captures larger than memory work. close() finalizes:
 * header + lane directory + concatenated lane payloads are written to
 * "<path>.tmp", fsynced, renamed over <path>, and the directory entry
 * is fsynced — a crash mid-capture never leaves a torn trace under the
 * final name. All I/O errors are fatal() with errno context.
 */
class TraceWriter
{
  public:
    /**
     * Start a capture to @p path.
     * @param num_lanes    per-thread event lanes in the trace
     * @param ops_declared intended memory ops per lane (header
     *                     metadata; adjustable until close())
     */
    TraceWriter(const std::string &path, unsigned num_lanes,
                std::uint64_t ops_declared);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one memory operation to @p lane. */
    void append(CpuId lane, const CpuOp &op);

    /** Append one synchronization record to @p lane. */
    void appendSync(CpuId lane, const SyncRecord &rec);

    /** Override the header's ops_declared field (capture metadata). */
    void setOpsDeclared(std::uint64_t ops) { opsDeclared_ = ops; }

    /** Finalize and atomically publish the file. Idempotent. */
    void close();

    /** Drop the capture without publishing anything. */
    void discard();

    /** Memory + sync records appended so far, all lanes. */
    std::uint64_t recordsWritten() const { return records_; }

  private:
    struct Lane {
        std::vector<std::uint8_t> buf; ///< Tail not yet spooled.
        std::FILE *spool = nullptr;    ///< Overflow, unlinked temp file.
        Xxh64Stream hash;              ///< Over the full lane payload.
        std::uint64_t bytes = 0;
        std::uint64_t memOps = 0;
        std::uint64_t syncOps = 0;
    };

    void emit(Lane &lane, const std::uint8_t *bytes, std::size_t n);

    std::string path_;
    std::uint64_t opsDeclared_ = 0;
    std::uint64_t records_ = 0;
    std::vector<Lane> lanes_;
    bool open_ = true;
};

/**
 * Capture tee: wraps a live OpSource, forwards every call, and records
 * each op handed out into a v2 trace file. Because the ops are recorded
 * in the exact order the simulation consumed them, generator-global
 * state (shared-object ownership migration) evolves identically — so a
 * capture taken during a run replays to byte-identical statistics,
 * which an offline round-robin drain (captureTrace) cannot guarantee.
 */
class TraceCapture : public OpSource
{
  public:
    TraceCapture(OpSource &inner, const std::string &path,
                 unsigned num_lanes, std::uint64_t ops_declared)
        : inner_(inner), writer_(path, num_lanes, ops_declared)
    {
    }

    bool
    next(CpuId cpu, CpuOp &op) override
    {
        if (!inner_.next(cpu, op))
            return false;
        writer_.append(cpu, op);
        return true;
    }

    OpFetch
    fetch(CpuId cpu, Tick &now, CpuOp &op) override
    {
        const OpFetch f = inner_.fetch(cpu, now, op);
        if (f == OpFetch::Op)
            writer_.append(cpu, op);
        return f;
    }

    void attach(EventQueue &eq) override { inner_.attach(eq); }

    void
    bindWaiter(CpuId cpu, std::function<void(Tick)> wake) override
    {
        inner_.bindWaiter(cpu, std::move(wake));
    }

    /** Finalize and publish the trace file. */
    void finish() { writer_.close(); }

    std::uint64_t recordsWritten() const
    {
        return writer_.recordsWritten();
    }

  private:
    OpSource &inner_;
    TraceWriter writer_;
};

/** Header/directory summary of a trace file. */
struct TraceInfo {
    std::uint32_t version = 0;
    std::uint32_t numLanes = 0;
    std::uint64_t opsDeclared = 0;
    std::uint64_t traceId = 0;
    std::uint64_t fileBytes = 0;

    struct Lane {
        std::uint64_t payloadOffset = 0;
        std::uint64_t payloadBytes = 0;
        std::uint64_t memOps = 0;
        std::uint64_t syncOps = 0;
        std::uint64_t payloadHash = 0;
    };
    std::vector<Lane> lanes;
};

/** Parse the header and the validated lane directory; fatal() on any
 *  format error. */
TraceInfo readTraceInfo(const std::string &path);

/**
 * Parse and validate a v2 header + lane directory from the start of a
 * file image. Returns an error message ("" on success); on success
 * fills @p out with the directory. @p file_bytes is the full file size
 * (payload extents are bounds-checked against it). A version-1 file is
 * rejected as a legacy trace.
 */
std::string parseTraceV2Header(const std::uint8_t *data,
                               std::uint64_t file_bytes, TraceInfo &out);

/**
 * Record-by-record scan of a trace, for inspection and payload
 * verification.
 */
struct TraceScan {
    std::uint64_t memOps = 0;
    std::uint64_t syncOps = 0;
    std::uint64_t kindCount[6] = {}; ///< Indexed by CpuOpKind.
    std::uint64_t syncCount[5] = {}; ///< barrier, acq, rel, signal, wait.
    std::uint64_t gapSum = 0;
    Addr minAddr = ~0ULL;
    Addr maxAddr = 0;
};
TraceScan scanTrace(const std::string &path);

/**
 * Walk every record of a trace once, hashing each lane's payload as it
 * goes, and check the hashes and record counts against the directory.
 * Returns an error message, or "" when the file checks out.
 */
std::string verifyTrace(const std::string &path);

/** One decoded v2 record (mem or sync or end). */
struct DecodedRecord {
    TraceRecOp op = TraceRecOp::end;
    CpuOp mem;        ///< Valid for memory opcodes.
    SyncRecord sync;  ///< Valid for synchronization opcodes.
    std::size_t bytes = 0; ///< Encoded length.
};

/**
 * Decode the record at @p p (with @p avail bytes left in the lane
 * payload). Returns false for an unknown opcode or a record truncated
 * by the payload boundary; traceRecordError() then says which. Builds
 * no string, so the decode loops pay for a message only on failure.
 */
bool decodeTraceRecord(const std::uint8_t *p, std::size_t avail,
                       DecodedRecord &out);

/** Why decodeTraceRecord() rejected the record at @p p. */
std::string traceRecordError(const std::uint8_t *p, std::size_t avail);

/**
 * Offline capture: drain @p ops_per_cpu ops per processor round-robin
 * into a v2 trace at @p path. Returns records written. Note the
 * interleave caveat on TraceCapture: for byte-identical replay of a
 * live run, capture with the tee (cgct_sim --capture) instead.
 */
std::uint64_t captureTrace(OpSource &source, unsigned num_cpus,
                           std::uint64_t ops_per_cpu,
                           const std::string &path);

} // namespace cgct
