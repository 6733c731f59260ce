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
 * the combined resolution fires — the shared fan-out takes a processor
 * mask so that a per-chip snoop domain or a directory sharer vector can
 * restrict the snoop set without duplicating the combining logic.
 * Snooping a superset of the true holders is always protocol-safe (a
 * snoop is a no-op on a processor with no copy), so mask computation only
 * affects timing and traffic, never MOESI/CGCT correctness.
 *
 * The fan-out is the one place a request is resolved: a timed request
 * adds the timing tail to it (resolveRequest), and functional warming
 * (docs/SAMPLING.md) runs it alone over every processor (resolveNow).
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
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
     * tick; the miss record itself lives in the requester's MSHR slot)
     * with no heap fallback.
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

    Interconnect(EventQueue &eq, const AddressMap &map, DataNetwork &data_net,
                 std::vector<MemoryController *> mem_ctrls);
    virtual ~Interconnect() = default;

    /** Register a processor node. */
    void addClient(SnoopClient *client) { clients_.push_back(client); }

    /**
     * Register the unnecessary-broadcast oracle. Each resolution hands it
     * the line-snoop summary (pre-snoop states of the snooped CPUs), which
     * covers every holder of the line: the snoop mask is a superset of
     * the presence map.
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
     * Functional mode (docs/SAMPLING.md), one switch for the machine:
     * while on, every node resolves its requests at once through
     * resolveNow() and a snooped node occupies no tag port. The snooped
     * peers read it too, so it lives here rather than in each node.
     */
    void setFunctional(bool on) { functional_ = on; }
    bool functional() const { return functional_; }

    /**
     * Functional resolution of @p req at @p now: the fan-out over every
     * other processor, tracking note included, with no timing tail — no
     * oracle, DRAM, data transfer, counters, trace or post-resolve hook.
     * @return the combined snoop response.
     */
    SnoopResponse resolveNow(const SystemRequest &req, Tick now)
    {
        return fanOut(req, kSnoopAll, now);
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

        /** Each topology names these in its own --stats lines. */
        static void
        visit(auto &&f, auto &...s)
        {
            f(nullptr, nullptr, s.broadcasts...);
            f(nullptr, nullptr, s.queueCycles...);
            f(nullptr, nullptr, s.cacheToCache...);
            f(nullptr, nullptr, s.memorySupplied...);
            f(nullptr, nullptr, s.localResolves...);
            f(nullptr, nullptr, s.interChip...);
        }
        /** The list prefix the flat bus checkpoints (transferStats). */
        static constexpr std::size_t kFlatCounters = 4;
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
    std::uint64_t localDomainResolves() const { return stats_.localResolves; }

    virtual void addStats(StatGroup &group) const = 0;

    /** Clear counters; traffic windows restart at @p now. */
    virtual void
    resetStats(Tick now)
    {
        stats_ = Stats{};
        traffic_.reset(now);
    }

    /**
     * Checkpoint layout. Topologies must refuse to save in-flight
     * requests (snapshots require a drained system).
     */
    virtual void transfer(Archive &ar) = 0;

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
    /**
     * The topology's tracking update (presence / sharer maps), the one
     * hook timed and functional resolution share. The fan-out calls it
     * between the line and region snoop phases: after the snoop mask was
     * computed and before the response installs any state.
     */
    virtual void noteResolution(const SystemRequest &req,
                                bool gets_exclusive)
    {
        (void)req;
        (void)gets_exclusive;
    }

    /**
     * The shared ordering point: snoop every registered client selected
     * by @p snoop_mask (bit per CPU; CPUs >= 64 are always snooped) —
     * line phase, noteResolution(), region phase — and name the owning
     * memory controller. @return the combined response.
     */
    SnoopResponse fanOut(const SystemRequest &req, std::uint64_t snoop_mask,
                         Tick now);

    /**
     * A timed resolution at the current tick: the fan-out, then the
     * timing tail — the oracle, the overlapped DRAM access or the
     * cache-to-cache transfer, the counters and trace, the response and
     * the post-resolve hook. Identical to the original Bus resolution
     * for snoop_mask == kSnoopAll.
     */
    void resolveRequest(const SystemRequest &req, ResponseFn &fn,
                        std::uint64_t snoop_mask);

    /**
     * Register the counters every topology keeps under @p prefix:
     * cache_to_cache, memory_supplied and the two traffic windows, which
     * count @p noun.
     */
    void addCommonStats(StatGroup &group, const std::string &prefix,
                        const std::string &noun) const;

    /**
     * Checkpoint layout of the counters and traffic windows every
     * topology keeps. The flat bus has no snoop domains, so it stores
     * only the list's first Stats::kFlatCounters, leaving out
     * localResolves and interChip (@p domain_counters false).
     */
    void transferStats(Archive &ar, bool domain_counters);

    static constexpr std::uint64_t kSnoopAll = ~0ULL;

    EventQueue &eq_;
    const AddressMap &map_;
    DataNetwork &dataNet_;
    std::vector<MemoryController *> memCtrls_;
    std::vector<SnoopClient *> clients_;
    Oracle *oracle_ = nullptr;
    PostResolveFn postResolve_;
    TraceSink *trace_ = nullptr;

    Stats stats_;
    IntervalTracker traffic_{100000};

  private:
    bool functional_ = false;
};

/**
 * The presence filter the hierarchy and the directory share: a sticky,
 * region-granular map of the processors that may hold lines (or an RCA
 * entry) in each region — the RegionScout-style filter a bridge keeps by
 * observing every traversal. Bits are never cleared by evictions, so the
 * map is always a superset of the true holders; snooping a superset is
 * protocol-safe, and the map can only widen a snoop set, never miss a
 * holder.
 */
class FilteredInterconnect : public Interconnect
{
  public:
    bool tracksPresence() const override { return true; }
    std::uint64_t presenceMask(Addr line) const override
    {
        return presenceOf(line);
    }

    /** Corrupt the presence map (invariant-checker injection test). */
    void corruptPresenceForTest(Addr line, std::uint64_t mask)
    {
        presence_.findOrInsert(regionOf(line)) = mask;
    }

  protected:
    FilteredInterconnect(EventQueue &eq, const AddressMap &map,
                         DataNetwork &data_net,
                         std::vector<MemoryController *> mem_ctrls,
                         const TopologyParams &topo,
                         std::uint64_t region_bytes);

    /**
     * The presence note: a CPU request's *chip* may now hold lines (or an
     * RCA entry) in the request's region. Chip-granular, not CPU-granular:
     * with a chip-shared RCA (Section 3.2) a sibling core can direct-fill
     * lines through an entry this resolution created without ever
     * traversing the interconnect itself, so the whole chip must become
     * snoopable at once. Write-backs and DMA note nothing.
     */
    void noteResolution(const SystemRequest &req,
                        bool gets_exclusive) override;

    Addr regionOf(Addr line) const { return line & ~(regionBytes_ - 1); }

    std::uint64_t
    presenceOf(Addr line) const
    {
        const std::uint64_t *bits = presence_.find(regionOf(line));
        return bits ? *bits : 0;
    }

    /** Mask of the processors on chip @p chip. */
    std::uint64_t chipMask(unsigned chip) const;

    /** True for a request from a processor (not the DMA bridge). */
    bool
    fromCpu(const SystemRequest &req) const
    {
        return static_cast<unsigned>(req.cpu) < topo_.numCpus;
    }

    /**
     * Checkpoint layout of a presence / sharer map: entries in ascending
     * address order, so the bytes do not depend on the table's slot
     * layout. A load replaces the table.
     */
    static void transferMaskTable(Archive &ar,
                                  AddrTable<std::uint64_t> &table);

    TopologyParams topo_;
    std::uint64_t regionBytes_;

    /** Region address -> mask of processors that may hold it. Open
     *  addressing: new regions allocate only when the table doubles. */
    AddrTable<std::uint64_t> presence_;
};

} // namespace cgct
