/**
 * @file
 * On-disk constants for the CGCT trace format. The byte-level contract
 * lives in docs/TRACE_FORMAT.md; this header is the single place the
 * code states the same numbers, and tools/check_docs.sh cross-checks the
 * two (the spec's record table lists exactly the X-macro's opcodes).
 *
 * Version 2: per-lane contiguous payloads of memory records behind a
 * lane directory, mmap-friendly streaming decode. Everything is
 * little-endian. Version 1 (a flat interleaved stream) is retired and
 * rejected on open, and so are v2's synchronization records.
 */

#pragma once

#include <cstdint>

namespace cgct {

/** Magic bytes shared by every trace version. */
inline constexpr char kTraceMagic[4] = {'C', 'G', 'C', 'T'};

/** Current lane-directory format (docs/TRACE_FORMAT.md). */
inline constexpr std::uint32_t kTraceVersion2 = 2;

/**
 * v2 file header, 48 bytes at offset 0:
 *
 *   off  size  field
 *   0    4     magic "CGCT"
 *   4    4     version (= 2)
 *   8    4     flags (reserved, must be 0)
 *   12   4     num_lanes
 *   16   8     ops_declared (capture metadata: intended mem ops/lane)
 *   24   8     directory_offset (= 48)
 *   32   8     directory_hash (xxhash64 over the directory bytes)
 *   40   8     trace_id (xxhash64 over header bytes 0..39 ++ directory)
 */
inline constexpr std::size_t kTraceV2HeaderBytes = 48;

/**
 * One v2 lane-directory entry, 40 bytes, num_lanes of them at
 * directory_offset:
 *
 *   off  size  field
 *   0    8     payload_offset (absolute, ascending, non-overlapping)
 *   8    8     payload_bytes
 *   16   8     mem_ops   (memory records in the lane)
 *   24   8     sync_ops  (retired; must be 0)
 *   32   8     payload_hash (xxhash64; verified by `cgct_trace verify`)
 */
inline constexpr std::size_t kTraceV2LaneDirBytes = 40;

/** Hard sanity cap on lanes. */
inline constexpr std::uint32_t kTraceMaxLanes = 1024;

/**
 * v2 record opcodes (first byte of every record) and payload layouts.
 * Memory records:   opcode u8, flags u8 (bit0 = dependent load),
 *                   gap u32, addr u64                       -> 14 bytes
 * end:              opcode only                             -> 1 byte
 *
 * The X-macro is the canonical list; check_docs.sh extracts it and
 * fails CI unless docs/TRACE_FORMAT.md's record table lists exactly
 * these opcodes.
 */
#define CGCT_TRACE_V2_RECORD_TYPES \
    X(end, 0x00)                   \
    X(ifetch, 0x01)                \
    X(load, 0x02)                  \
    X(store, 0x03)                 \
    X(dcbz, 0x04)                  \
    X(dcbf, 0x05)                  \
    X(dcbi, 0x06)

enum class TraceRecOp : std::uint8_t {
#define X(name, value) name = value,
    CGCT_TRACE_V2_RECORD_TYPES
#undef X
};

/** First memory opcode; mem opcodes are CpuOpKind + 1 in order. */
inline constexpr std::uint8_t kTraceRecFirstMem = 0x01;
/** Last memory opcode. */
inline constexpr std::uint8_t kTraceRecLastMem = 0x06;

inline constexpr std::size_t kTraceV2MemRecordBytes = 14;

/** Opcodes 0x10-0x14 were the barrier, lock_acquire, lock_release,
 *  signal and wait records. They are reserved: a decoder rejects them by
 *  name. */
inline constexpr std::uint8_t kTraceRecFirstRetired = 0x10;
inline constexpr std::uint8_t kTraceRecLastRetired = 0x14;

} // namespace cgct
