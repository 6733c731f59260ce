/**
 * @file
 * Abstract coherence interconnect. The original single Fireplane-like
 * broadcast bus is one implementation; the two-level snoop hierarchy and
 * the full-map directory (docs/TOPOLOGY.md) are the others. All three
 * share the snoop-combining ordering point: a request is granted, every
 * selected processor is snooped (line phase, then region phase), the
 * owning memory controller is identified, and data is delivered either
 * cache-to-cache or from DRAM overlapped with the snoop.
 *
 * The topologies differ only in *which* processors are snooped and *when*
 * the combined resolution fires — the shared resolveRequest() helper takes
 * a processor mask so that a per-chip snoop domain or a directory sharer
 * vector can restrict the snoop set without duplicating the combining
 * logic. Snooping a superset of the true holders is always protocol-safe
 * (a snoop is a no-op on a processor with no copy), so mask computation
 * only affects timing and traffic, never MOESI/CGCT correctness.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/addr_table.hpp"
#include "common/config.hpp"
#include "common/inline_function.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "coherence/snoop.hpp"
#include "event/event_queue.hpp"
#include "interconnect/data_network.hpp"
#include "mem/address_map.hpp"
#include "mem/memory_controller.hpp"

namespace cgct {

class Oracle;
class TraceSink;

/**
 * Interface every processor node exposes to the interconnect. Snoops are
 * applied in two phases at the resolution tick: first the conventional
 * line snoop (which mutates MOESI state), then the region snoop (which
 * reports the CGCT region bits and applies the Figure 5 downgrade).
 */
class SnoopClient
{
  public:
    virtual ~SnoopClient() = default;

    virtual CpuId cpuId() const = 0;

    /** Apply the line-level snoop and report the outcome. */
    virtual LineSnoopOutcome snoopLine(const SystemRequest &req) = 0;

    /**
     * Report this processor's region-status bits for the request's region
     * and apply the external-request downgrade at @p now.
     * @param requester_gets_exclusive whether the requester will end up
     *        with a modifiable (or silently-upgradable) copy of the line
     *        (requesterGetsExclusive).
     */
    virtual RegionSnoopBits
    snoopRegion(const SystemRequest &req, bool requester_gets_exclusive,
                Tick now) = 0;
};

/** Base class of every interconnect topology (bus / hier / dir). */
class Interconnect
{
  public:
    /**
     * Inline capture capacity of a snoop-response continuation: sized for
     * the node's continuation (node pointer + request descriptor + issue
     * tick; the completion context itself lives in the requester's MSHR
     * slot) with no heap fallback.
     */
    static constexpr std::size_t kResponseFnCapacity = 48;

    /**
     * Called with the aggregated response when the snoop resolves.
     * Allocation-free: the capture lives inline in the request queue /
     * event wheel (oversized captures fail to compile).
     * @param data_ready tick when the critical word reaches the requester
     *        (equals the resolution tick for requests without data).
     */
    using ResponseFn =
        InlineFunction<void(const SnoopResponse &, Tick data_ready),
                       kResponseFnCapacity>;

    /**
     * Hook invoked after a resolution fully completes (response delivered,
     * requester state updated). The invariant checker uses it to validate
     * region state against cache contents at the ordering point.
     */
    using PostResolveFn = std::function<void(const SystemRequest &)>;

    Interconnect(EventQueue &eq, const InterconnectParams &params,
                 const AddressMap &map, DataNetwork &data_net,
                 std::vector<MemoryController *> mem_ctrls);
    virtual ~Interconnect() = default;

    /** Register a processor node. */
    void addClient(SnoopClient *client) { clients_.push_back(client); }

    /**
     * Register the unnecessary-broadcast oracle. Each resolution hands it
     * the line-snoop summary (pre-snoop states of the snooped CPUs) and
     * the snoop mask; it peeks only the CPUs outside the mask.
     */
    void setOracle(Oracle *oracle) { oracle_ = oracle; }

    void setPostResolveHook(PostResolveFn fn) { postResolve_ = std::move(fn); }

    /** Emit grant / resolve trace events to @p sink. */
    void setTraceSink(TraceSink *sink) { trace_ = sink; }

    /**
     * Route @p req through the topology, invoking @p fn at resolution.
     * Must be called at the issuing event's time (grants are FCFS).
     */
    virtual void broadcast(const SystemRequest &req, ResponseFn fn) = 0;

    /**
     * Functional warming's stand-in for broadcast (docs/SAMPLING.md): the
     * node applied the snoop fan-out itself with no timing events, and
     * reports the request here so topology-private tracking state
     * (presence / sharer maps) stays in sync with the caches it
     * summarizes.
     */
    virtual void warmNote(const SystemRequest &req, bool gets_exclusive)
    {
        (void)req;
        (void)gets_exclusive;
    }

    struct Stats {
        std::uint64_t broadcasts = 0;
        std::uint64_t queueCycles = 0;      ///< Arbitration wait.
        std::uint64_t cacheToCache = 0;     ///< Data supplied by a cache.
        std::uint64_t memorySupplied = 0;   ///< Data supplied by DRAM.
        /** Requests resolved inside the requester's snoop domain. */
        std::uint64_t localResolves = 0;
        /** Requests that crossed the inter-chip level. */
        std::uint64_t interChip = 0;
    };

    const Stats &stats() const { return stats_; }
    const IntervalTracker &traffic() const { return traffic_; }
    IntervalTracker &traffic() { return traffic_; }

    /**
     * Requests that occupied the inter-chip level: every broadcast on the
     * flat bus, the escapes of the hierarchy, the remote-snooping lookups
     * of the directory. The scaling figure's headline metric.
     */
    virtual std::uint64_t interChipBroadcasts() const
    {
        return stats_.interChip;
    }

    /** Requests resolved without leaving the requester's chip. */
    virtual std::uint64_t localDomainResolves() const
    {
        return stats_.localResolves;
    }

    virtual void addStats(StatGroup &group) const = 0;

    /** Clear counters; traffic windows restart at @p now. */
    virtual void
    resetStats(Tick now)
    {
        stats_ = Stats{};
        traffic_.reset(now);
    }

    /**
     * Checkpoint support. Topologies must refuse to serialize in-flight
     * requests (snapshots require a drained system).
     */
    virtual void serialize(Serializer &s) const = 0;
    virtual void deserialize(SectionReader &r) = 0;

    /**
     * Invariant-checker introspection (sim/invariants.hpp). A topology
     * that filters snoops by a conservative presence map exposes it here
     * so the checker can prove the map is a superset of the ground truth;
     * the flat bus snoops everyone and reports all-ones.
     */
    virtual bool tracksPresence() const { return false; }
    virtual std::uint64_t presenceMask(Addr line) const
    {
        (void)line;
        return ~0ULL;
    }
    /** Directory sharer vector for @p line (directory topology only). */
    virtual bool tracksSharers() const { return false; }
    virtual std::uint64_t sharerMask(Addr line) const
    {
        (void)line;
        return ~0ULL;
    }

  protected:
    struct ResolveOutcome {
        bool getsExclusive;
        Tick dataReady;
    };

    /**
     * The shared ordering point: snoop every registered client selected
     * by @p snoop_mask (bit per CPU; CPUs >= 64 are always snooped),
     * combine the line and region responses, start the overlapped DRAM
     * access or the cache-to-cache transfer, deliver the response and run
     * the post-resolve hook. Identical to the original Bus resolution for
     * snoop_mask == kSnoopAll.
     */
    ResolveOutcome resolveRequest(const SystemRequest &req, ResponseFn &fn,
                                  std::uint64_t snoop_mask);

    /**
     * Checkpoint a presence / sharer map in ascending address order, so
     * the bytes do not depend on the table's slot layout.
     */
    static void saveMaskTable(Serializer &s,
                              const AddrTable<std::uint64_t> &table);
    /** Replace @p table with a map written by saveMaskTable. */
    static void loadMaskTable(SectionReader &r,
                              AddrTable<std::uint64_t> &table);

    static constexpr std::uint64_t kSnoopAll = ~0ULL;

    EventQueue &eq_;
    InterconnectParams params_;
    const AddressMap &map_;
    DataNetwork &dataNet_;
    std::vector<MemoryController *> memCtrls_;
    std::vector<SnoopClient *> clients_;
    Oracle *oracle_ = nullptr;
    PostResolveFn postResolve_;
    TraceSink *trace_ = nullptr;

    Stats stats_;
    IntervalTracker traffic_{100000};
};

} // namespace cgct
