/**
 * @file
 * Streaming trace replayer. Maps the trace read-only (mmap) and
 * decodes each lane's records at a byte cursor: no per-op allocation
 * and no materialized op stream. Each lane releases the pages behind its
 * cursor every kTraceResidentWindow (1 MiB) of progress, so a replay
 * keeps at most lanes x (1 MiB + 64 KiB fault-around) of the trace
 * resident, whatever its size: the 28 MB benchmark trace replays at the
 * generator's 20 MB peak RSS, not 39.5 MB (docs/PERF.md, "Bounded trace
 * input"). A released page faults back with the same bytes, so the
 * window never changes a decoded op.
 *
 * Each lane is a list of memory records ended by an end record, and
 * next() hands them out in order: the core model and the warm path fetch
 * through the same call.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/mapped_file.hpp"
#include "common/types.hpp"
#include "cpu/core_model.hpp"
#include "workload/trace.hpp"

namespace cgct {

/** OpSource that streams a v2 trace file. */
class TraceReplay : public OpSource
{
  public:
    /** mmap and validate @p path; fatal() on any format error, and on
     *  a legacy version-1 trace. */
    explicit TraceReplay(const std::string &path);

    /** The lane's next memory op; false once it reached its end
     *  record. */
    bool next(CpuId cpu, CpuOp &op) override;

    unsigned numLanes() const { return info_.numLanes; }
    std::uint64_t opsDeclared() const { return info_.opsDeclared; }
    std::uint64_t traceId() const { return info_.traceId; }

    /** The longest lane's memory-op count, from the directory (not
     *  affected by replay progress). */
    std::uint64_t maxLaneMemOps() const;

    /**
     * Warmup support: the minimum memory-op count any live lane has
     * consumed; UINT64_MAX once every lane ended (mirrors
     * SyntheticWorkload::minOpsDrawn()).
     */
    std::uint64_t minOpsConsumed() const;

    /** True once every lane reached its end record. */
    bool allEnded() const { return endedLanes_ == lanes_.size(); }

  private:
    struct Lane {
        const std::uint8_t *base = nullptr;
        std::uint64_t offset = 0; ///< Payload's offset in the file.
        std::uint64_t bytes = 0;
        std::uint64_t cursor = 0; ///< Byte offset into the payload.
        std::uint64_t mark = 0;   ///< Released up to here (payload).
        std::uint64_t memConsumed = 0;
        bool ended = false; ///< Reached the end record.
    };

    std::string path_;
    MappedFile map_;
    TraceInfo info_;
    std::vector<Lane> lanes_;
    std::uint32_t endedLanes_ = 0;
};

} // namespace cgct
