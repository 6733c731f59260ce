/**
 * @file
 * The Coarse-Grain Coherence Tracking controller: drives the region
 * protocol over the Region Coherence Array on behalf of one processor
 * node. The node consults route() before sending a request to the system,
 * notifies the controller of broadcast responses / direct completions /
 * line fills and evictions, and forwards external region snoops.
 *
 * RegionTracker is the abstract interface so the RegionScout mechanism
 * (related work, Section 2) can be swapped in for comparison benches.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/rca.hpp"
#include "core/region_protocol.hpp"

namespace cgct {

class TraceSink;
class Archive;
enum class TransitionCause : std::uint8_t;

/** Routing decision handed to the node. */
struct RouteDecision {
    RouteKind kind = RouteKind::Broadcast;
    /** Target controller for Direct routes (from the region entry). */
    MemCtrlId memCtrl = kInvalidMemCtrl;
    /** Region state that justified the decision (tracing/diagnostics). */
    RegionState state = RegionState::Invalid;
};

/**
 * Interface between a processor node and its coarse-grain tracking
 * mechanism (CGCT's RCA, RegionScout, or nothing).
 */
class RegionTracker
{
  public:
    /**
     * Called when a region eviction forces cache lines out to preserve
     * inclusion: the node must flush every cached line of the region,
     * sending dirty lines to @p mem_ctrl.
     */
    using FlushFn = std::function<void(Addr region_addr,
                                       std::uint64_t region_bytes,
                                       MemCtrlId mem_ctrl)>;

    virtual ~RegionTracker() = default;

    /** Register a flush handler (appends; one per sharing node). */
    virtual void setFlushHandler(FlushFn fn) = 0;

    /** Route a local request about to be sent to the system. */
    virtual RouteDecision route(RequestType type, Addr line_addr,
                                Tick now) = 0;

    /** A broadcast for @p line_addr resolved with the given response. */
    virtual void onBroadcastResponse(RequestType type, Addr line_addr,
                                     bool line_granted_exclusive,
                                     const SnoopResponse &resp,
                                     Tick now) = 0;

    /** A direct request was issued (region permission already held). */
    virtual void onDirectIssue(RequestType type, Addr line_addr,
                               bool line_granted_exclusive, Tick now) = 0;

    /** A request completed locally with no external request. */
    virtual void onLocalComplete(RequestType type, Addr line_addr,
                                 Tick now) = 0;

    /** A line of the region was installed in this processor's cache. */
    virtual void onLineFill(Addr line_addr) = 0;

    /** A line left this processor's cache (eviction or invalidation). */
    virtual void onLineEvict(Addr line_addr) = 0;

    /**
     * External snoop: report this processor's region bits and apply the
     * downgrade. Self-invalidation happens here when the line count is 0.
     */
    virtual RegionSnoopBits externalSnoop(Addr line_addr,
                                          bool external_gets_exclusive,
                                          Tick now) = 0;

    /**
     * Current state for an address, Invalid if absent. Not const: the
     * CGCT controller counts it as an RCA lookup, like any other.
     */
    virtual RegionState peekState(Addr line_addr) = 0;

    /**
     * May the processors this tracker serves cache lines of @p line_addr's
     * region? false is a proof that they cache none, which lets a snoop
     * skip its tag lookup; true promises nothing. Touches no state and
     * counts nothing. The default cannot tell.
     */
    virtual bool
    mayHoldLines(Addr line_addr) const
    {
        (void)line_addr;
        return true;
    }

    virtual void addStats(StatGroup &group) const = 0;

    /** Emit region-protocol trace events to @p sink (default: none). */
    virtual void setTraceSink(TraceSink *sink) { (void)sink; }

    /**
     * Checkpoint layout of the tracking structures. @p mem_ctrls is the
     * system's memory-controller count, which bounds any controller id
     * a loaded entry holds.
     */
    virtual void transfer(Archive &ar, unsigned mem_ctrls) = 0;
};

/** The paper's CGCT mechanism: region protocol over an RCA. */
class CgctController : public RegionTracker
{
  public:
    CgctController(CpuId cpu, const CgctParams &params,
                   unsigned line_bytes);

    void
    setFlushHandler(FlushFn fn) override
    {
        flush_.push_back(std::move(fn));
    }

    RouteDecision route(RequestType type, Addr line_addr,
                        Tick now) override;
    void onBroadcastResponse(RequestType type, Addr line_addr,
                             bool line_granted_exclusive,
                             const SnoopResponse &resp, Tick now) override;
    void onDirectIssue(RequestType type, Addr line_addr,
                       bool line_granted_exclusive, Tick now) override;
    void onLocalComplete(RequestType type, Addr line_addr,
                         Tick now) override;
    void onLineFill(Addr line_addr) override;
    void onLineEvict(Addr line_addr) override;
    RegionSnoopBits externalSnoop(Addr line_addr,
                                  bool external_gets_exclusive,
                                  Tick now) override;
    RegionState peekState(Addr line_addr) override;

    /** false when the RCA holds no entry for the region, or one with no
     *  cached lines (invariants D/E: the line count is exact and every
     *  cached line has an entry). Peeks: no MRU hint, no hit or miss. */
    bool
    mayHoldLines(Addr line_addr) const override
    {
        const RegionEntry *entry = rca_.peek(line_addr);
        return entry && entry->lineCount > 0;
    }

    void addStats(StatGroup &group) const override;
    void setTraceSink(TraceSink *sink) override;

    RegionCoherenceArray &rca() { return rca_; }
    const RegionCoherenceArray &rca() const { return rca_; }

    const CgctParams &params() const { return params_; }

    /** Checkpoint layout: the controller's only state is the RCA. */
    void
    transfer(Archive &ar, unsigned mem_ctrls) override
    {
        rca_.transfer(ar, mem_ctrls);
    }

  private:
    /** Emit a region_transition event if the state actually changed. */
    void traceTransition(Tick now, Addr region_addr, RegionState before,
                         RegionState after, TransitionCause cause,
                         RegionSnoopBits bits, std::uint32_t line_count);

    /** Apply the three-state collapse when configured (Section 3.4). */
    RegionState squash(RegionState s) const
    {
        return params_.threeStateProtocol ? threeStateOf(s) : s;
    }

    CpuId cpu_;
    CgctParams params_;
    RegionCoherenceArray rca_;
    std::vector<FlushFn> flush_;
    TraceSink *trace_ = nullptr;
};

/**
 * Build the tracker configured by @p params: the CGCT controller when
 * enabled, nullptr when the system runs the conventional baseline.
 * The result is shareable between the cores of a chip.
 */
std::shared_ptr<RegionTracker> makeTracker(CpuId cpu,
                                           const CgctParams &params,
                                           unsigned line_bytes);

} // namespace cgct
