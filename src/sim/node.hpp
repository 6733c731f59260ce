/**
 * @file
 * A processor node (Figure 1 of the paper): the two L1 caches, the unified
 * L2 (the system's coherence point), the MSHR file, the stream prefetcher,
 * and — when CGCT is enabled — the Region Coherence Array controller that
 * routes requests directly to memory when the region state allows it.
 *
 * Coherence model: the bus resolution event is the ordering point; line
 * and region state changes are applied atomically there, while data
 * arrival only affects timing (readyTick on the line). Direct requests
 * apply their state changes at issue, which is safe because the region
 * protocol guarantees no other processor holds a conflicting copy.
 *
 * Structure: one synchronous protocol core and two drivers. Each core
 * step (L1/L2 hit rules, routing, the direct grant, the requester-side
 * response, line install/evict, prefetch, the line and region snoops)
 * applies architectural transitions only, taking the current tick and
 * the data-arrival tick as arguments. The timed driver wraps the steps
 * in MSHRs, bus events and latencies; functional warming
 * (docs/SAMPLING.md) calls them directly with data ready at once. Every
 * request leaves the node through issueSystemRequest, the one place the
 * two drivers part: a timed broadcast enters Interconnect::broadcast,
 * a functional one resolves at once through Interconnect::resolveNow,
 * the same fan-out over every peer with no timing tail. Which driver
 * runs is the interconnect's functional-mode switch, one for the whole
 * machine, because a snooped peer reads it too (snoopLine charges no tag
 * port in functional mode).
 *
 * Request-path storage: a miss's completion context — the callback plus
 * what fillL1 needs — lives in a per-MSHR-slot Completion struct
 * (mshrCtx_) instead of being captured inside nested heap-allocated
 * closures; waiter queues (fill merges, the MSHR-full backlog, pending
 * region acquisitions) are pooled FIFOs keyed through open-addressed
 * tables. After the pools reach their high-water marks the request path
 * performs no allocations.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "common/addr_table.hpp"
#include "common/config.hpp"
#include "common/inline_function.hpp"
#include "common/pool_fifo.hpp"
#include "common/stats.hpp"
#include "core/cgct_controller.hpp"
#include "event/event_queue.hpp"
#include "interconnect/interconnect.hpp"
#include "interconnect/data_network.hpp"
#include "mem/address_map.hpp"
#include "mem/memory_controller.hpp"
#include "prefetch/stream_prefetcher.hpp"

namespace cgct {

class InvariantChecker;
class TraceSink;

/** One processor node. */
class Node : public SnoopClient
{
  public:
    /**
     * Completion callback: @p ready is when the op's data is usable.
     * Move-only with inline storage (see InlineFunction); capacity covers
     * the core model's captures with room to spare.
     */
    static constexpr std::size_t kCompletionCapacity = 48;
    using CompletionFn = InlineFunction<void(Tick ready),
                                        kCompletionCapacity>;

    Node(CpuId cpu, const SystemConfig &config, EventQueue &eq,
         Interconnect &bus,
         DataNetwork &data_net, const AddressMap &map,
         std::vector<MemoryController *> mem_ctrls,
         std::shared_ptr<RegionTracker> tracker);

    /**
     * Perform a processor memory operation at local time @p now.
     * @return true if resolved synchronously (@p ready_out is set);
     *         false if @p done will be invoked when the op resolves.
     * @p done is consumed only on the asynchronous (false) path; a
     * synchronous return leaves the caller's callable untouched.
     */
    bool access(CpuOpKind kind, Addr addr, Tick now, Tick &ready_out,
                CompletionFn &&done);

    /** True while another outstanding miss can be accepted. */
    bool canAcceptMiss() const { return !mshr_.full(); }

    // SnoopClient interface (external requests arriving from the bus).
    CpuId cpuId() const override { return cpu_; }
    LineSnoopOutcome snoopLine(const SystemRequest &req) override;
    RegionSnoopBits snoopRegion(const SystemRequest &req,
                                bool requester_gets_exclusive,
                                Tick now) override;

    /**
     * Functional warming (docs/SAMPLING.md): perform one processor
     * memory operation with full architectural effect — cache contents,
     * MOESI states, region tracker, prefetcher — but zero timing: no
     * events, no bus arbitration, no MSHR occupancy, no latency. Every
     * request resolves synchronously at warm tick @p now through the
     * same protocol core as a timed request; peer caches take the same
     * line and region snoop transitions without occupying tag ports.
     * Requires functional mode (System::setFunctional) and a node with
     * nothing in flight.
     */
    void warmAccess(CpuOpKind kind, Addr addr, Tick now);

    /** Region tracker (nullptr in the baseline configuration). */
    RegionTracker *tracker() { return tracker_.get(); }
    const RegionTracker *tracker() const { return tracker_.get(); }

    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }
    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    StreamPrefetcher &prefetcher() { return prefetcher_; }

    /**
     * Emit route-decision trace events to @p sink and forward it to the
     * region tracker (which emits region transitions and RCA evictions).
     */
    void setTraceSink(TraceSink *sink);

    /** Run @p checker after every locally-applied protocol transition. */
    void setInvariantChecker(InvariantChecker *checker)
    {
        checker_ = checker;
    }

    /** Per-node request statistics, broken down for Figures 2 and 7. */
    struct Stats {
        static constexpr std::size_t kNumCat =
            static_cast<std::size_t>(RequestCategory::NumCategories);

        std::uint64_t requestsTotal = 0;     ///< All system requests.
        std::uint64_t broadcasts = 0;
        std::uint64_t directs = 0;
        std::uint64_t localCompletes = 0;
        std::uint64_t broadcastsByCat[kNumCat] = {};
        std::uint64_t directsByCat[kNumCat] = {};
        std::uint64_t localByCat[kNumCat] = {};
        std::uint64_t writebacksIssued = 0;
        std::uint64_t demandMisses = 0;
        std::uint64_t prefetchesIssued = 0;
        std::uint64_t upgradeRaces = 0;      ///< Upgrade lost the line.
        std::uint64_t inclusionWritebacks = 0; ///< From region flushes.
        std::uint64_t snoopsReceived = 0;
        std::uint64_t tagWaitCycles = 0;     ///< Local accesses stalled
                                             ///< behind snoop lookups.
        std::uint64_t memLatencySum = 0;     ///< Demand-miss latency.
        std::uint64_t memLatencyCount = 0;
    };

    const Stats &stats() const { return stats_; }
    void resetStats();
    void addStats(StatGroup &group) const;

    /** Demand-miss latency distribution (histogram geometry below). */
    const Histogram &missLatencyHistogram() const
    {
        return missLatencyHist_;
    }

    /** Miss-latency histogram geometry: 40 linear 50-cycle buckets. */
    static constexpr std::uint64_t kMissLatencyBucketWidth = 50;
    static constexpr std::size_t kMissLatencyBuckets = 40;

    /**
     * Checkpoint layout: the three caches, the MSHR free list, the
     * prefetcher, the L2 tag-port cursor, the request statistics and the
     * miss-latency histogram. The region tracker is a section of its own
     * in the System (it may be shared between the cores of a chip).
     * Snapshots require quiescence — no in-flight misses, fill waiters,
     * postponed misses or pending region acquisitions; saving panics
     * otherwise.
     */
    void transfer(Archive &ar);

  private:
    /**
     * What happens when a request resolves: refresh the L1 (for demand
     * fills) and invoke the caller's callback. One per outstanding miss,
     * stored in mshrCtx_[slot] — the flattened form of the closures the
     * request path used to nest.
     */
    struct Completion {
        CompletionFn done;
        Addr addr = 0;
        CpuOpKind kind = CpuOpKind::Load;
        bool fill = false;               ///< Run fillL1 before done.
    };

    /** A request merged onto an in-flight fill for the same line. */
    struct Waiter {
        CompletionFn done;
        Addr addr = 0;
        CpuOpKind kind = CpuOpKind::Load;
        bool fill = false;
        bool replay = false;             ///< Re-run access() on wake.
    };

    /** A request postponed because the MSHR file was full. */
    struct PendingMiss {
        RequestType type = RequestType::Read;
        Addr lineAddr = 0;
        Completion c;
        bool isPrefetch = false;
        Tick queuedAt = 0;
    };

    /** A request waiting behind an in-flight region acquisition; its
     *  Completion stays in the MSHR slot claimed before dispatch. */
    struct RegionWaiter {
        RequestType type = RequestType::Read;
        Addr lineAddr = 0;
        bool isPrefetch = false;
        Tick queuedAt = 0;
    };

    // Protocol core: synchronous steps shared by both drivers. Each takes
    // the current tick and, where data arrives, the arrival tick (now
    // when warming).

    /** L1 hit rule, including the silent store to a writable L2 line.
     *  @return the hit L1 line, or nullptr if the op must go to the L2. */
    const CacheLine *l1Hit(CpuOpKind kind, Addr addr, Tick now);

    /**
     * L2 hit rule for @p line (the probe result): apply the store / dcbz
     * upgrade of a writable line and @return true, or set @p type to the
     * system request that resolves the op and @return false.
     */
    bool l2Hit(CpuOpKind kind, Addr addr, CacheLine *line,
               RequestType &type);

    /** Consult the region tracker, trace and count the route. */
    RouteDecision routeRequest(RequestType type, Addr line_addr, Tick now);

    /** Count one system request under @p kind (Figures 2 and 7). */
    void countRoute(RequestType type, RouteKind kind);

    /** Region-permission grant of a direct request, applied to the RCA.
     *  @return the line state the requester installs. */
    LineState directGrant(RequestType type, Addr line_addr, Tick now);

    /** Requester side of a resolved broadcast: region update, then the
     *  line transitions (applyResponse). */
    void resolveBroadcast(RequestType type, Addr line_addr,
                          const SnoopResponse &resp, Tick now, Tick ready);

    /** A request completed with no external request (exclusive region). */
    void resolveLocal(RequestType type, Addr line_addr, Tick now,
                      Tick ready);

    /**
     * The requester-side transition switch: install @p granted, upgrade
     * (or refetch a line lost to a race), dcbz, or dcbf / dcbi with the
     * dirty write-back.
     */
    void applyResponse(RequestType type, Addr line_addr, LineState granted,
                       Tick now, Tick ready);

    /** Install a line into the L2 (and bookkeeping around eviction). */
    void installL2Line(Addr line_addr, LineState state, Tick now,
                       Tick ready);

    /** Move/refresh the line into the right L1 after an L2 resolution. */
    void fillL1(CpuOpKind kind, Addr addr, Tick now, Tick ready);

    /** Evict a line from L2: back-invalidate L1s, write back if dirty. */
    void evictL2Line(Addr line_addr, LineState state, Tick now);

    /** Invalidate a line in every cache level and tell the tracker. */
    void dropLine(Addr line_addr);

    /** Send a write-back for @p line_addr to the system. */
    void issueWriteback(Addr line_addr, Tick now);

    /** Region-eviction flush: push the region's lines out (inclusion). */
    void flushRegion(Addr region_addr, std::uint64_t region_bytes,
                     MemCtrlId mc, Tick now);

    /** Run the stream prefetcher after a demand L2 access. */
    void maybePrefetch(Addr line_addr, bool is_store, bool was_miss,
                       Tick now);

    // Timed driver.

    /** Handle an access that reached the L2. */
    bool accessL2(CpuOpKind kind, Addr addr, Tick now, Tick &ready_out,
                  CompletionFn &&done);

    /**
     * Issue (or queue) a request to the system; in functional mode,
     * resolve it at once instead and run @p c.
     */
    void issueSystemRequest(RequestType type, Addr line_addr, Tick now,
                            Completion &&c, bool is_prefetch);

    /** The request, with an MSHR (if needed) already claimed. */
    void dispatchSystemRequest(RequestType type, Addr line_addr, Tick now,
                               bool is_prefetch);

    /**
     * Enter the bus with @p req (the body of the enqueue event); @p issued
     * is the tick the request left the L2, for miss-latency accounting.
     */
    void postBroadcast(const SystemRequest &req, Tick issued);

    /** Handle a broadcast's snoop response (ordering-point event). */
    void handleBroadcastResponse(RequestType type, Addr line_addr,
                                 const SnoopResponse &resp,
                                 Tick data_ready);

    /** Re-dispatch the requests queued behind a region acquisition. */
    void releaseRegionWaiters(Addr line_addr);

    /** Issue a direct-to-memory request (region permission held). */
    void issueDirect(RequestType type, Addr line_addr, MemCtrlId mc,
                     Tick now, bool is_prefetch);

    /** Complete a request locally with no external request. */
    void completeLocally(RequestType type, Addr line_addr, Tick now);

    /** Release an MSHR and start a queued request if one is waiting. */
    void releaseMshr(Addr line_addr);

    /** Move this line's Completion out of its MSHR slot (if any). */
    Completion grabMshrCtx(Addr line_addr);

    /** Run a Completion: optional L1 refresh, then the callback. */
    void runCompletion(Completion &c, Tick ready);

    /** Release + resolve: the common tail of broadcast completions. */
    void finishRequest(Addr line_addr, bool needs_mshr, Tick ready);

    /** Wake everything merged onto @p line_addr's fill. */
    void drainFillWaiters(Addr line_addr, Tick ready);

    /** The waiter list for @p line_addr, created if absent. */
    PoolFifo<Waiter>::List &waiterListFor(Addr line_addr);

    /** Record a completed demand miss's latency. */
    void noteMissLatency(Tick issued, Tick ready);

    // Functional-warming driver (docs/SAMPLING.md).

    /** warmAccess past the L1; re-probes after the (synchronous)
     *  prefetches. */
    void warmL2Access(CpuOpKind kind, Addr addr, Tick now);

    /** Route and resolve one request at once through the core steps. */
    void warmRequest(RequestType type, Addr line_addr, Tick now,
                     bool is_prefetch);

    CpuId cpu_;
    const SystemConfig &config_;
    EventQueue &eq_;
    Interconnect &bus_;
    DataNetwork &dataNet_;
    const AddressMap &map_;
    std::vector<MemoryController *> memCtrls_;
    std::shared_ptr<RegionTracker> tracker_;

    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    MshrFile mshr_;
    StreamPrefetcher prefetcher_;

    /** Per-MSHR-slot completion context, indexed by MshrFile slot. */
    std::vector<Completion> mshrCtx_;

    /** Waiters merged onto an in-flight fill, keyed by line address. */
    AddrTable<PoolFifo<Waiter>::List> fillWaiters_;
    PoolFifo<Waiter> waiterPool_;

    /** Requests postponed because the MSHR file was full. */
    PoolFifo<PendingMiss>::List pendingMisses_;
    PoolFifo<PendingMiss> pendingPool_;

    /**
     * Requests to a region whose first broadcast (the region acquisition)
     * is still in flight: they wait for the region snoop response instead
     * of broadcasting line by line. Keyed by region-aligned address.
     */
    AddrTable<PoolFifo<RegionWaiter>::List> pendingRegionAcq_;
    PoolFifo<RegionWaiter> regionWaiterPool_;
    /** Suppress re-marking acquisitions while draining a region queue. */
    bool drainingRegion_ = false;

    std::vector<PrefetchCandidate> prefetchScratch_;
    /** Region-flush collection scratch (invalidation mutates the array). */
    std::vector<std::pair<Addr, LineState>> flushScratch_;
    /** L2 tag port busy (incoming snoops) until this tick. */
    Tick l2TagBusy_ = 0;
    Stats stats_;
    Histogram missLatencyHist_{kMissLatencyBucketWidth,
                               kMissLatencyBuckets};
    TraceSink *trace_ = nullptr;
    InvariantChecker *checker_ = nullptr;
};

} // namespace cgct
