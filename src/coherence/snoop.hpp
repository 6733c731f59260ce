/**
 * @file
 * Snoop request/response messages, including the paper's two additional
 * region-status bits (Section 3.4): Region Clean and Region Dirty. The
 * bits are a logical OR over the region status of every processor other
 * than the requester, piggybacked on the conventional line snoop response.
 */

#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "coherence/protocol.hpp"

namespace cgct {

/** A memory request as seen by the system (bus / memory controllers). */
struct SystemRequest {
    CpuId cpu = kInvalidCpu;
    RequestType type = RequestType::Read;
    Addr lineAddr = 0;          ///< Line-aligned address.
    bool isPrefetch = false;    ///< Demand vs prefetch (stats only).
};

/**
 * Region-level portion of a snoop response from one processor: the paper's
 * two additional bits.
 */
struct RegionSnoopBits {
    bool clean = false;   ///< Responder caches unmodified lines only.
    bool dirty = false;   ///< Responder may cache modified lines.

    /** OR-combine responses from several processors. */
    void
    merge(const RegionSnoopBits &other)
    {
        clean = clean || other.clean;
        dirty = dirty || other.dirty;
    }

    bool none() const { return !clean && !dirty; }
};

/**
 * Aggregated line-level snoop result across all remote processors.
 */
struct LineSnoopSummary {
    bool anyCopy = false;        ///< Some remote cache held the line.
    bool anyDirty = false;       ///< Some remote copy was M or O.
    bool cacheSupplied = false;  ///< Data comes cache-to-cache.
    CpuId supplier = kInvalidCpu;
    bool anyWroteBack = false;   ///< A flush pushed dirty data to memory.

    void
    fold(CpuId responder, const LineSnoopOutcome &out)
    {
        if (out.hadCopy)
            anyCopy = true;
        if (isDirty(out.before))
            anyDirty = true;
        if (out.suppliedData && !cacheSupplied) {
            cacheSupplied = true;
            supplier = responder;
        }
        if (out.wroteBack)
            anyWroteBack = true;
    }
};

/**
 * Whether snoop mask @p mask (bit per CPU) selects @p cpu. CPUs >= 64 lie
 * beyond the mask and are always snooped.
 */
inline bool
snoopMaskHas(std::uint64_t mask, CpuId cpu)
{
    return static_cast<unsigned>(cpu) >= 64 ||
           ((mask >> static_cast<unsigned>(cpu)) & 1) != 0;
}

/**
 * Whether the requester of @p type ends up with a modifiable (or
 * silently upgradable) copy of the line, given whether some remote cache
 * held it. DCB flush/invalidate ops count as exclusive for the region
 * downgrade: no remote copy of the line survives them.
 */
constexpr bool
requesterGetsExclusive(RequestType type, bool remote_had_copy)
{
    return wantsExclusive(type) || isDcbOp(type) ||
           ((type == RequestType::Read || type == RequestType::Prefetch) &&
            !remote_had_copy);
}

/** Full snoop response delivered back to the requester. */
struct SnoopResponse {
    LineSnoopSummary line;
    RegionSnoopBits region;
    /** Memory controller owning the address (learned from the response). */
    MemCtrlId memCtrl = kInvalidMemCtrl;
};

class TraceSink;
enum class RouteKind : std::uint8_t;
enum class RegionState : std::uint8_t;

/**
 * Trace the broadcast-vs-direct-vs-local decision for a system request,
 * together with the region state that justified it (snoop.cpp). The
 * node calls this at dispatch; it is a no-op unless tracing is compiled
 * in and @p sink is runtime-enabled (see common/trace_sink.hpp).
 */
void traceRouteDecision(TraceSink *sink, Tick now, CpuId cpu,
                        RequestType type, Addr line_addr, RouteKind route,
                        RegionState state);

} // namespace cgct
