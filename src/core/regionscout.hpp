/**
 * @file
 * RegionScout (Moshovos, ISCA 2005), the less-precise coarse-grain filter
 * the paper compares against in Section 2. Implemented here as an
 * alternative RegionTracker so the benches can compare it to CGCT.
 *
 * Structures (following the RegionScout design):
 *  - NSRT (Not-Shared-Region Table): a small tagged set-associative table
 *    of regions known to be cached by no other processor, filled when a
 *    broadcast's snoop response shows no sharers, and invalidated whenever
 *    an external request touches the region.
 *  - CRH (Cached-Region Hash): an untagged array of counters hashed by
 *    region address, counting locally cached lines. A zero counter proves
 *    the region is not locally cached, letting this node answer external
 *    snoops with "no copies" without precise per-region state.
 *
 * Differences from CGCT that the benches surface: no memory-controller
 * index (write-backs still broadcast), a single imprecise response bit
 * (externally clean data cannot be read directly), and hash aliasing in
 * the CRH (a non-zero counter may be a false positive).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/set_assoc_array.hpp"
#include "core/cgct_controller.hpp"

namespace cgct {

/** Configuration for the RegionScout tracker. */
struct RegionScoutParams {
    std::uint64_t regionBytes = 512;
    std::uint64_t nsrtSets = 64;
    unsigned nsrtWays = 4;
    std::uint64_t crhEntries = 4096;  ///< Power of two.
};

/** RegionScout: NSRT + CRH. */
class RegionScout : public RegionTracker
{
  public:
    RegionScout(CpuId cpu, const RegionScoutParams &params,
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
    void addStats(StatGroup &g) const override { g.addCounters(stats_); }

    struct Stats {
        std::uint64_t nsrtHits = 0;
        std::uint64_t nsrtFills = 0;
        std::uint64_t nsrtInvalidations = 0;
        std::uint64_t crhFilteredSnoops = 0;

        static void
        visit(auto &&f, auto &...s)
        {
            f("regionscout.nsrt_hits", "requests routed using an NSRT entry",
              s.nsrtHits...);
            f("regionscout.nsrt_fills", "NSRT entries installed",
              s.nsrtFills...);
            f("regionscout.nsrt_invalidations",
              "NSRT entries dropped on external activity",
              s.nsrtInvalidations...);
            f("regionscout.crh_filtered_snoops",
              "external snoops answered 'not cached' by the CRH",
              s.crhFilteredSnoops...);
        }
    };

    const Stats &stats() const { return stats_; }

    /** Checkpoint layout: NSRT entries, CRH counters and statistics. */
    void transfer(Archive &ar, unsigned mem_ctrls) override;

  private:
    /** A region known to be cached by no other processor. */
    struct NsrtEntry {
        Addr regionAddr = 0;
        Tick lastUse = 0;
        /** The frame's state: set once allocated, and by a load. */
        bool resident = false;

        bool valid() const { return resident; }
    };

    Addr regionAlign(Addr a) const { return nsrt_.align(a); }
    std::uint64_t crhIndex(Addr region_addr) const;

    CpuId cpu_;
    /** The NSRT: the shared tag array, plain LRU. */
    SetAssocArray<NsrtEntry, &NsrtEntry::regionAddr> nsrt_;
    std::vector<std::uint32_t> crh_;
    std::vector<FlushFn> flush_;
    Stats stats_;
};

} // namespace cgct
