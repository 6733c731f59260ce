/**
 * @file
 * Structured protocol trace: a per-system event sink that buffers compact
 * binary records of region state transitions, routing decisions, bus
 * activity, and memory accesses, and serializes them as JSONL or Chrome
 * trace_event JSON (loadable in Perfetto / about://tracing).
 *
 * Off is a null pointer (see docs/TRACING.md): System hands each
 * component its sink only when config.obs.trace is set, and every
 * emission site is `if (trace_) trace_->call(...)`, so an untraced run
 * pays one pointer test per site and evaluates no arguments.
 *
 * Events are buffered in memory and written after the run, so tracing
 * never interleaves with the simulation and multi-threaded sweeps stay
 * deterministic: the trace depends only on the (deterministic) event
 * order of the run that produced it, not on wall-clock or thread
 * scheduling.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "coherence/snoop.hpp"
#include "common/types.hpp"

namespace cgct {

// Region-protocol enums live in core/region_protocol.hpp; scoped enums
// with a fixed underlying type are complete from this declaration, so
// the sink can store them without a layering-inverting include.
enum class RegionState : std::uint8_t;
enum class RouteKind : std::uint8_t;

/**
 * Every trace event type, X-macro style so tooling (check_docs.sh) can
 * enumerate them and fail when one is missing from docs/TRACING.md.
 * One X() per line; the identifier is the JSONL "type" string.
 */
#define CGCT_TRACE_EVENT_TYPES(X)                                           \
    X(route)                                                                \
    X(region_transition)                                                    \
    X(bus_grant)                                                            \
    X(bus_resolve)                                                          \
    X(mem_access)                                                           \
    X(rca_evict)                                                            \
    X(hier_escape)                                                          \
    X(dir_lookup)

/** Trace event discriminator (see CGCT_TRACE_EVENT_TYPES). */
enum class TraceEventType : std::uint8_t {
#define X(name) name,
    CGCT_TRACE_EVENT_TYPES(X)
#undef X
};

/** JSONL "type" string of an event type. */
std::string_view traceEventTypeName(TraceEventType t);

/** What drove a region state transition. */
enum class TransitionCause : std::uint8_t {
    BroadcastResponse,  ///< Own broadcast's region snoop response.
    DirectIssue,        ///< Silent transition on a direct request.
    LocalComplete,      ///< Silent transition on a local completion.
    ExternalSnoop,      ///< Downgrade by another processor's request.
    SelfInvalidate,     ///< Zero-line-count self-invalidation.
};

/** JSONL "cause" string. */
std::string_view transitionCauseName(TransitionCause c);

/** Which memory-controller access path a mem_access event records. */
enum class MemAccessKind : std::uint8_t {
    Overlapped,  ///< Snoop-overlapped DRAM read (broadcast path).
    Direct,      ///< Full-latency DRAM read (CGCT direct request).
    Writeback,   ///< Write-back sunk by the controller.
};

/** JSONL "kind" string. */
std::string_view memAccessKindName(MemAccessKind k);

/**
 * One trace record. The struct is shared by all event types; which
 * fields are meaningful per type is part of the trace schema
 * (docs/TRACING.md). Kept compact so buffering a full run is cheap.
 */
struct TraceEvent {
    Tick tick = 0;
    TraceEventType type = TraceEventType::route;
    /** Acting CPU; the controller id for mem_access; -1 when n/a. */
    CpuId cpu = kInvalidCpu;
    RequestType req = RequestType::Read;
    /** Line address (route, bus_*) or region address (region_*, rca_*). */
    Addr addr = 0;
    RegionState stateBefore = static_cast<RegionState>(0);
    RegionState stateAfter = static_cast<RegionState>(0);
    RouteKind route = static_cast<RouteKind>(0);
    TransitionCause cause = TransitionCause::BroadcastResponse;
    MemAccessKind memKind = MemAccessKind::Overlapped;
    /** kFlag* bits; which are valid depends on the event type. */
    std::uint8_t flags = 0;
    /** Type-specific scalar (wait cycles, ready tick, line count). */
    std::uint64_t value = 0;

    static constexpr std::uint8_t kFlagRegionClean = 1u << 0;
    static constexpr std::uint8_t kFlagRegionDirty = 1u << 1;
    static constexpr std::uint8_t kFlagExclusive = 1u << 2;
    static constexpr std::uint8_t kFlagCacheSupplied = 1u << 3;
};

/**
 * The per-system event sink. One instance per System; a component holds
 * a pointer to it that stays null unless the run is traced. Not
 * thread-safe by design: a System (and thus its sink) is owned by
 * exactly one worker thread (docs/SWEEP.md determinism model).
 */
class TraceSink
{
  public:
    const std::vector<TraceEvent> &events() const { return events_; }
    std::vector<TraceEvent> takeEvents() { return std::move(events_); }

    /** Routing decision for a system request (Node::routeRequest). */
    void route(Tick now, CpuId cpu, RequestType req, Addr line_addr,
               RouteKind kind, RegionState state);

    /** Region protocol state change, with its cause and evidence. */
    void regionTransition(Tick now, CpuId cpu, Addr region_addr,
                          RegionState before, RegionState after,
                          TransitionCause cause, RegionSnoopBits bits,
                          std::uint32_t line_count);

    /** A broadcast won bus arbitration after @p waited cycles. */
    void busGrant(Tick now, CpuId cpu, RequestType req, Addr line_addr,
                  Tick waited);

    /** A broadcast's snoop resolved with the aggregated response. */
    void busResolve(Tick now, CpuId cpu, RequestType req, Addr line_addr,
                    const SnoopResponse &resp, bool gets_exclusive,
                    Tick data_ready);

    /** A memory controller serviced an access arriving at @p now. */
    void memAccess(Tick now, MemCtrlId mc, MemAccessKind kind, Tick ready);

    /** An RCA entry was displaced by allocation. */
    void rcaEvict(Tick now, CpuId cpu, Addr region_addr, RegionState state,
                  std::uint32_t line_count);

    /**
     * A request escaped its per-chip snoop domain onto the inter-chip
     * level (hier topology); @p mask is the presence mask that forced it.
     */
    void hierEscape(Tick now, CpuId cpu, RequestType req, Addr line_addr,
                    std::uint64_t mask);

    /**
     * The home directory bank looked up @p line_addr; @p mask is the
     * snoop set (sharers | region presence) the lookup produced.
     */
    void dirLookup(Tick now, CpuId cpu, RequestType req, Addr line_addr,
                   std::uint64_t mask);

    /** One JSON object per line; schema in docs/TRACING.md. */
    static void writeJsonl(const std::vector<TraceEvent> &events,
                           std::ostream &os);

    /**
     * Chrome trace_event JSON array (instant events, one track per CPU
     * plus one per memory controller). Ticks are emitted as microseconds
     * so 1 viewer-µs = 1 CPU cycle.
     */
    static void writeChromeTrace(const std::vector<TraceEvent> &events,
                                 std::ostream &os);

  private:
    void push(const TraceEvent &e) { events_.push_back(e); }

    std::vector<TraceEvent> events_;
};

} // namespace cgct
