/**
 * @file
 * Two-level snoop hierarchy (docs/TOPOLOGY.md). Each processor chip is
 * its own snoop domain with a short local combining latency; an
 * inter-chip broadcast level bridges the domains with the full Fireplane
 * snoop latency. A conservative region-granular presence map — the
 * RegionScout-style filter the bridge maintains by observing every
 * traversal — decides whether a request can resolve inside its local
 * domain or must escape: a request escapes only when the map shows a
 * processor outside the requester's chip that may hold lines (or an RCA
 * entry) in the request's region.
 *
 * Presence is sticky (bits are never cleared by evictions), so it is
 * always a superset of the true holders; snooping a superset is
 * protocol-safe, and the map can only cause extra escapes, never missed
 * snoops. CGCT composes multiplicatively: region-exclusive state converts
 * broadcasts into direct requests before they reach the bridge at all.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/addr_table.hpp"
#include "interconnect/interconnect.hpp"

namespace cgct {

/** Per-chip snoop domains bridged by an inter-chip broadcast level. */
class HierRouter : public Interconnect
{
  public:
    HierRouter(EventQueue &eq, const InterconnectParams &params,
               const AddressMap &map, DataNetwork &data_net,
               std::vector<MemoryController *> mem_ctrls,
               const TopologyParams &topo, std::uint64_t region_bytes);

    void broadcast(const SystemRequest &req, ResponseFn fn) override;

    void warmNote(const SystemRequest &req, bool gets_exclusive) override;

    void addStats(StatGroup &group) const override;

    void transfer(Archive &ar) override;

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

  private:
    /** Local-domain stage: resolve on-chip or escape to the bridge. */
    void localStage(const SystemRequest &req, ResponseFn fn);

    Addr regionOf(Addr line) const { return line & ~(regionBytes_ - 1); }

    std::uint64_t
    presenceOf(Addr line) const
    {
        const std::uint64_t *bits = presence_.find(regionOf(line));
        return bits ? *bits : 0;
    }

    /** Mask of the processors on chip @p chip. */
    std::uint64_t
    chipMask(unsigned chip) const
    {
        const unsigned lo = chip * topo_.cpusPerChip;
        std::uint64_t m = 0;
        for (unsigned c = lo; c < lo + topo_.cpusPerChip &&
                              c < topo_.numCpus; ++c)
            m |= 1ULL << c;
        return m;
    }

    /**
     * Record that @p req's requester's *chip* may now hold lines (or an
     * RCA entry) in the request's region. Chip-granular, not
     * CPU-granular: with a chip-shared RCA (Section 3.2) a sibling core
     * can direct-fill lines through an entry this traversal created,
     * without ever traversing the interconnect itself — so the whole
     * chip must become snoopable at once. Called inside the resolve
     * event, before the response installs any state, so a later mask
     * computation at the same tick already sees the bits.
     */
    void
    notePresence(const SystemRequest &req)
    {
        if (static_cast<unsigned>(req.cpu) < topo_.numCpus &&
            req.type != RequestType::Writeback)
            presence_.findOrInsert(regionOf(req.lineAddr)) |=
                chipMask(topo_.chipOfCpu(req.cpu));
    }

    TopologyParams topo_;
    std::uint64_t regionBytes_;

    /** FCFS arbitration cursor of each per-chip domain. */
    std::vector<Tick> domainNextFree_;
    /** FCFS arbitration cursor of the inter-chip level. */
    Tick globalNextFree_ = 0;

    /** Region address -> mask of processors that may hold it. Open
     *  addressing: new regions allocate only when the table doubles. */
    AddrTable<std::uint64_t> presence_;
};

} // namespace cgct
