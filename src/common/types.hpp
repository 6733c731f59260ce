/**
 * @file
 * Fundamental types shared by every subsystem: addresses, time, processor
 * identifiers, memory-request classification, and topology distance classes.
 *
 * All timing in the simulator is expressed in CPU cycles of the 1.5 GHz
 * processor clock from Table 3 of the paper. One 150 MHz system
 * (interconnect) cycle equals 10 CPU cycles.
 */

#pragma once

#include <cstdint>
#include <string_view>

namespace cgct {

/** Physical memory address (byte granularity). */
using Addr = std::uint64_t;

/** Simulated time in CPU cycles (1.5 GHz). */
using Tick = std::uint64_t;

/** Processor (core) identifier; dense 0..numCpus-1. */
using CpuId = int;

/** Memory-controller identifier; dense 0..numMemCtrls-1. */
using MemCtrlId = int;

/** Sentinel for "no processor". */
inline constexpr CpuId kInvalidCpu = -1;

/** Sentinel for "unknown / invalid memory controller". */
inline constexpr MemCtrlId kInvalidMemCtrl = -1;

/** Number of CPU cycles per 150 MHz system (interconnect) cycle. */
inline constexpr Tick kCpuCyclesPerSystemCycle = 10;

/** Convert system (interconnect) cycles to CPU cycles. */
constexpr Tick
systemCycles(Tick n)
{
    return n * kCpuCyclesPerSystemCycle;
}

/**
 * The kinds of memory requests the hierarchy issues to the system, matching
 * the request categories discussed in Sections 1.2 and 5.1 of the paper.
 */
enum class RequestType : std::uint8_t {
    /** Data load that misses; may receive a shared or exclusive copy. */
    Read,
    /** Read-for-ownership: store miss; line will be modified. */
    ReadExclusive,
    /** Upgrade a shared copy to modifiable without a data transfer. */
    Upgrade,
    /** Instruction fetch; data is expected clean-shared. */
    Ifetch,
    /** Write modified data back to memory (castout). */
    Writeback,
    /** Power4-style stream prefetch (shared copy). */
    Prefetch,
    /** MIPS R10000-style exclusive prefetch (modifiable copy). */
    PrefetchExclusive,
    /** Data Cache Block Zero: allocate+zero a line (AIX page zeroing). */
    Dcbz,
    /** Data Cache Block Flush: write back and invalidate everywhere. */
    Dcbf,
    /** Data Cache Block Invalidate. */
    Dcbi,
};

/** Short human-readable name of a request type (for stats / traces). */
std::string_view requestTypeName(RequestType type);

/** True for requests that will place a modifiable copy in the cache. */
constexpr bool
wantsExclusive(RequestType type)
{
    return type == RequestType::ReadExclusive ||
           type == RequestType::Upgrade ||
           type == RequestType::PrefetchExclusive ||
           type == RequestType::Dcbz;
}

/** True for the Data Cache Block management operations. */
constexpr bool
isDcbOp(RequestType type)
{
    return type == RequestType::Dcbz || type == RequestType::Dcbf ||
           type == RequestType::Dcbi;
}

/** True for requests that install a line in the requester's cache. */
constexpr bool
allocatesLine(RequestType type)
{
    return type == RequestType::Read || type == RequestType::ReadExclusive ||
           type == RequestType::Ifetch || type == RequestType::Prefetch ||
           type == RequestType::PrefetchExclusive ||
           type == RequestType::Dcbz;
}

/**
 * Figure 2 / Figure 7 request category: the paper breaks unnecessary
 * broadcasts down into ordinary data reads/writes (including prefetches),
 * write-backs, instruction fetches, and DCB operations.
 */
enum class RequestCategory : std::uint8_t {
    DataReadWrite,
    Writeback,
    Ifetch,
    DcbOp,
    NumCategories,
};

/** Map a request type onto its Figure 2 category. */
constexpr RequestCategory
categoryOf(RequestType type)
{
    switch (type) {
      case RequestType::Ifetch:
        return RequestCategory::Ifetch;
      case RequestType::Writeback:
        return RequestCategory::Writeback;
      case RequestType::Dcbz:
      case RequestType::Dcbf:
      case RequestType::Dcbi:
        return RequestCategory::DcbOp;
      default:
        return RequestCategory::DataReadWrite;
    }
}

/**
 * Processor-side memory operations, as produced by the workload generator
 * and consumed by the cache hierarchy.
 */
enum class CpuOpKind : std::uint8_t {
    Ifetch,
    Load,
    Store,
    Dcbz,
    Dcbf,
    Dcbi,
};

/** Human-readable op name. */
std::string_view cpuOpKindName(CpuOpKind kind);

/** One operation of a processor's instruction stream. */
struct CpuOp {
    CpuOpKind kind = CpuOpKind::Load;
    Addr addr = 0;
    /** Non-memory instructions preceding this op (front-end work). */
    std::uint32_t gap = 0;
    /** Load feeds an immediate dependent (serializes the pipeline). */
    bool dependent = false;
};

/**
 * Distance class between a requesting processor and the target memory
 * controller (or responding processor), per the Fireplane-like topology of
 * Table 3: on the requester's own chip, attached to the same data switch,
 * on the same board, or on a remote board.
 */
enum class Distance : std::uint8_t {
    OwnChip,
    SameSwitch,
    SameBoard,
    Remote,
};

/** Align @p addr down to a power-of-two @p size boundary. */
constexpr Addr
alignDown(Addr addr, Addr size)
{
    return addr & ~(size - 1);
}

/** True if @p v is a (non-zero) power of two. */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Integer log2 of a power of two. */
constexpr unsigned
log2i(std::uint64_t v)
{
    unsigned n = 0;
    while (v > 1) {
        v >>= 1;
        ++n;
    }
    return n;
}

} // namespace cgct
