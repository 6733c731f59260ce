/**
 * @file
 * Cross-layer invariant checker: validates the seven-state region
 * protocol against ground-truth cache contents at every transition.
 *
 * The region states are *summaries* of line state — "DI" asserts that no
 * other processor caches any line of the region — so a divergence between
 * an RCA entry and what the L2 arrays actually hold is a protocol bug
 * even if the simulation happens to produce plausible numbers. The
 * checker makes that class of bug a hard failure instead of a silently
 * wrong result.
 *
 * Invariants checked per region, per tracker (chip when sharedPerChip):
 *  A. exclusive (CI/DI): no node outside the tracker's chip caches any
 *     line of the region;
 *  B. externally clean (CC/DC): outside nodes hold no E/M/O lines
 *     (Exclusive counts — it can silently become Modified);
 *  C. locally clean (CI/CC/CD): the tracker's own nodes hold no E/M/O
 *     lines;
 *  D. the entry's line count equals the lines actually cached by the
 *     tracker's nodes;
 *  E. a cached line implies a valid RCA entry for its region (inclusion).
 *
 * checkAll() also checks, on every node with or without CGCT, that each
 * valid L1 line is present in the node's L2 (L1 inclusion).
 *
 * With a filtered interconnect topology (hier / dir, docs/TOPOLOGY.md)
 * the checker additionally proves the filter state conservative against
 * the same L2 ground truth — these hold per snoop domain, without
 * assuming a single global bus:
 *  F. presence coverage: every processor caching a line of a region is
 *     set in the topology's presence mask for that region, and every
 *     chip with a valid RCA entry for the region is fully covered (its
 *     cores can direct-fill through the entry without a traversal);
 *  G. directory coverage: every processor caching a line is in the
 *     line's sharer vector or the region's presence mask.
 *
 * Activation: `cgct_sim --check-invariants`, or automatically in debug
 * (NDEBUG-undefined) builds when CGCT is enabled. All lookups go
 * through const arrays, which count nothing, so enabling the checker
 * never perturbs the statistics an experiment records.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"

namespace cgct {

class CgctController;
class EventQueue;
class Interconnect;
class Node;

/** Region-protocol-vs-cache-contents cross validator. */
class InvariantChecker
{
  public:
    /**
     * @param config the system configuration (region geometry)
     * @param nodes  every processor node, in CPU order
     */
    InvariantChecker(const SystemConfig &config,
                     std::vector<const Node *> nodes);

    /**
     * Check every invariant for the region containing @p addr.
     * @return a description of the first violation, or empty.
     */
    std::string checkRegion(Addr addr) const;

    /**
     * Check L1 inclusion under each node's L2, then every region present
     * in any RCA or any L2. Needs no System: tests build a checker from
     * (config, nodes) and call this on a drained machine.
     * @return a description of the first violation, or empty.
     */
    std::string checkAll() const;

    /**
     * Transition hook: re-validate the region touched by a protocol
     * transition and fatal() with @p site on a violation. Wired to the
     * bus post-resolve hook and the node's direct/local/flush paths.
     */
    void onTransition(Addr addr, const char *site);

    /** Number of per-transition checks executed (tests, reporting). */
    std::uint64_t checksRun() const { return checksRun_; }

    /** Let failure reports name the simulated tick (wired by System). */
    void setEventQueue(const EventQueue *eq) { eq_ = eq; }

    /**
     * Attach the interconnect so invariants F/G can cross-validate its
     * presence / sharer tracking against L2 ground truth (wired by
     * System; a flat bus tracks nothing and the checks are skipped).
     */
    void setInterconnect(const Interconnect *ic) { interconnect_ = ic; }

    /**
     * Invariant F/G alone for the region containing @p addr, non-fatal
     * (used by the injected-corruption test and checkRegion()).
     * @return a description of the first violation, or empty.
     */
    std::string checkCoverage(Addr addr) const;

  private:
    /** Nodes sharing one CGCT controller (one entry per chip when the
     *  RCA is shared; one per CPU otherwise). */
    struct Group {
        const CgctController *ctrl = nullptr;
        std::vector<std::size_t> nodeIdx;
    };

    const SystemConfig &config_;
    std::vector<const Node *> nodes_;
    std::vector<Group> groups_;
    std::uint64_t checksRun_ = 0;
    const EventQueue *eq_ = nullptr;
    const Interconnect *interconnect_ = nullptr;
};

} // namespace cgct
