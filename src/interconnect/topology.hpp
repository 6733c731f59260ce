/**
 * @file
 * Two-level snoop hierarchy (docs/TOPOLOGY.md). Each processor chip is
 * its own snoop domain with a short local combining latency; an
 * inter-chip broadcast level bridges the domains with the full Fireplane
 * snoop latency. A conservative region-granular presence map — the
 * RegionScout-style filter the bridge maintains by observing every
 * traversal (FilteredInterconnect) — decides whether a request can
 * resolve inside its local domain or must escape: a request escapes only
 * when the map shows a processor outside the requester's chip that may
 * hold lines (or an RCA entry) in the request's region. The map is a
 * superset of the true holders, so it can only cause extra escapes,
 * never missed snoops. CGCT composes multiplicatively: region-exclusive
 * state converts broadcasts into direct requests before they reach the
 * bridge at all.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "interconnect/interconnect.hpp"

namespace cgct {

/** Per-chip snoop domains bridged by an inter-chip broadcast level. */
class HierRouter : public FilteredInterconnect
{
  public:
    HierRouter(EventQueue &eq, const AddressMap &map, DataNetwork &data_net,
               std::vector<MemoryController *> mem_ctrls,
               const TopologyParams &topo, std::uint64_t region_bytes);

    void broadcast(const SystemRequest &req, ResponseFn fn) override;

    void addStats(StatGroup &group) const override;

    void transfer(Archive &ar) override;

  private:
    /** Local-domain stage: resolve on-chip or escape to the bridge. */
    void localStage(const SystemRequest &req, ResponseFn fn);

    /** FCFS arbitration cursor of each per-chip domain. */
    std::vector<Tick> domainNextFree_;
    /** FCFS arbitration cursor of the inter-chip level. */
    Tick globalNextFree_ = 0;
};

} // namespace cgct
