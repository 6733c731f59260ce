/**
 * @file
 * Functional warming against the timed request path (docs/SAMPLING.md).
 * Both drive one protocol core, so with one miss in flight at a time the
 * architectural state they leave behind must be identical. Also covers
 * the two places the warm path used to drift from the timed one: region
 * flush write-backs and the prefetcher's MSHR headroom.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/system.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"

namespace cgct {
namespace {

struct Op {
    CpuId cpu;
    CpuOpKind kind;
    Addr addr;
};

/** One round-robin op stream, the interleaving warmFunctional draws. */
std::vector<Op>
roundRobinOps(const std::string &benchmark, unsigned n_cpus,
              std::uint64_t ops_per_cpu)
{
    SyntheticWorkload w(benchmarkByName(benchmark), n_cpus, ops_per_cpu,
                        /*seed=*/11);
    std::vector<Op> ops;
    bool drew = true;
    while (drew) {
        drew = false;
        for (unsigned cpu = 0; cpu < n_cpus; ++cpu) {
            CpuOp op;
            if (!w.next(static_cast<CpuId>(cpu), op))
                continue;
            drew = true;
            ops.push_back(Op{static_cast<CpuId>(cpu), op.kind, op.addr});
        }
    }
    return ops;
}

/** A System in functional mode, driven one op at a time. */
class WarmSystem
{
  public:
    explicit WarmSystem(const SystemConfig &config)
        : workload_(benchmarkByName("tpc-w"), config.topology.numCpus, 1, 1),
          sys_(config, workload_)
    {
        sys_.setFunctional(true);
    }

    void
    access(CpuId cpu, CpuOpKind kind, Addr addr)
    {
        sys_.node(static_cast<unsigned>(cpu))
            .warmAccess(kind, addr, ++tick_);
    }

    System &sys() { return sys_; }

  private:
    SyntheticWorkload workload_;
    System sys_;
    Tick tick_ = 0;
};

using LineSet = std::vector<std::pair<Addr, int>>;

LineSet
linesOf(const Cache &cache)
{
    LineSet out;
    cache.array().forEachValid([&out](const CacheLine &line) {
        out.emplace_back(line.lineAddr, static_cast<int>(line.state));
    });
    std::sort(out.begin(), out.end());
    return out;
}

using RegionSet = std::vector<std::tuple<Addr, int, std::uint32_t>>;

RegionSet
regionsOf(const Node &node)
{
    RegionSet out;
    const auto *ctrl = dynamic_cast<const CgctController *>(node.tracker());
    if (!ctrl)
        return out;
    ctrl->rca().forEachValid([&out](const RegionEntry &e) {
        out.emplace_back(e.regionAddr, static_cast<int>(e.state),
                         e.lineCount);
    });
    std::sort(out.begin(), out.end());
    return out;
}

// ---------------------------------------------------------------------
// Differential: warmAccess per op vs Node::access per op + drain, with
// maxOutstandingMisses = 1 so the timed run issues one request at a
// time. Compared: cache contents and MOESI states, RCA entries, and the
// topology's presence and sharer masks. Not compared, being timing only:
// readyTick and LRU stamps (the timed run stamps at resolution and data
// arrival, the warm run at the op's tick; the order, which is what picks
// victims, is the same), tag-port occupancy, and every statistic.

struct DiffCase {
    const char *name;
    TopologyKind topology;
    std::uint64_t regionBytes; ///< 0 = baseline.
};

std::ostream &
operator<<(std::ostream &os, const DiffCase &c)
{
    return os << c.name;
}

class WarmDifferential : public ::testing::TestWithParam<DiffCase>
{
  protected:
    SystemConfig
    config() const
    {
        SystemConfig c = makeDefaultConfig();
        c.interconnect.topology = GetParam().topology;
        // Small caches and RCA, so the stream exercises L2 evictions,
        // write-backs and region flushes.
        c.l1i = CacheParams{8 * 1024, 2, 64, 1};
        c.l1d = CacheParams{8 * 1024, 2, 64, 1};
        c.l2 = CacheParams{64 * 1024, 2, 64, 12};
        c.core.maxOutstandingMisses = 1;
        if (GetParam().regionBytes)
            c = c.withCgct(GetParam().regionBytes, /*rca_sets=*/64, 2);
        c.validate();
        return c;
    }
};

TEST_P(WarmDifferential, SameArchitecturalState)
{
    const SystemConfig c = config();
    const std::vector<Op> ops =
        roundRobinOps("tpc-w", c.topology.numCpus, 20000);

    WarmSystem warm(c);
    for (const Op &op : ops)
        warm.access(op.cpu, op.kind, op.addr);

    SyntheticWorkload unused(benchmarkByName("tpc-w"), c.topology.numCpus,
                             1, 1);
    System timed(c, unused);
    Tick now = 0;
    for (const Op &op : ops) {
        now = std::max(now, timed.eq().now()) + 1;
        Tick ready = 0;
        timed.node(static_cast<unsigned>(op.cpu))
            .access(op.kind, op.addr, now, ready, [](Tick) {});
        timed.eq().run();
    }

    std::set<Addr> touched;
    for (const Op &op : ops)
        touched.insert(alignDown(op.addr, c.l2.lineBytes));

    std::uint64_t writebacks = 0, flushed = 0;
    for (unsigned i = 0; i < c.topology.numCpus; ++i) {
        SCOPED_TRACE("cpu" + std::to_string(i));
        Node &a = warm.sys().node(i);
        Node &b = timed.node(i);
        EXPECT_EQ(linesOf(a.l1i()), linesOf(b.l1i()));
        EXPECT_EQ(linesOf(a.l1d()), linesOf(b.l1d()));
        EXPECT_EQ(linesOf(a.l2()), linesOf(b.l2()));
        EXPECT_EQ(regionsOf(a), regionsOf(b));
        writebacks += a.stats().writebacksIssued;
        flushed += a.stats().inclusionWritebacks;
    }
    // The stream must reach the eviction paths it is meant to compare.
    EXPECT_GT(writebacks, 0u);
    if (c.cgct.enabled) {
        EXPECT_GT(flushed, 0u);
    }
    Interconnect &wa = warm.sys().bus();
    Interconnect &tb = timed.bus();
    for (Addr line : touched) {
        ASSERT_EQ(wa.presenceMask(line), tb.presenceMask(line))
            << "line 0x" << std::hex << line;
        ASSERT_EQ(wa.sharerMask(line), tb.sharerMask(line))
            << "line 0x" << std::hex << line;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, WarmDifferential,
    ::testing::Values(DiffCase{"bus_baseline", TopologyKind::Bus, 0},
                      DiffCase{"bus_cgct512", TopologyKind::Bus, 512},
                      DiffCase{"hier_baseline", TopologyKind::Hier, 0},
                      DiffCase{"hier_cgct512", TopologyKind::Hier, 512},
                      DiffCase{"dir_baseline", TopologyKind::Dir, 0},
                      DiffCase{"dir_cgct512", TopologyKind::Dir, 512}),
    [](const ::testing::TestParamInfo<DiffCase> &info) {
        return std::string(info.param.name);
    });

// ---------------------------------------------------------------------

TEST(WarmPath, FunctionalResolutionRunsNoTiming)
{
    // Functional resolution is the interconnect's fan-out without its
    // timing tail: a warm stream must leave every timing counter at zero
    // — tag ports, controllers, the data network, the interconnect's own
    // grants and the oracle — while the broadcasts really did resolve.
    for (const TopologyKind topology :
         {TopologyKind::Bus, TopologyKind::Hier, TopologyKind::Dir}) {
        SCOPED_TRACE(topologyKindName(topology));
        SystemConfig c = makeDefaultConfig();
        c.interconnect.topology = topology;
        c.l2 = CacheParams{64 * 1024, 2, 64, 12};
        c = c.withCgct(512, /*rca_sets=*/64, 2);
        c.validate();
        WarmSystem warm(c);
        for (const Op &op : roundRobinOps("tpc-w", c.topology.numCpus, 5000))
            warm.access(op.cpu, op.kind, op.addr);

        System &sys = warm.sys();
        std::uint64_t broadcasts = 0, writebacks = 0;
        for (unsigned i = 0; i < sys.numCpus(); ++i) {
            const Node::Stats &s = sys.node(i).stats();
            EXPECT_EQ(s.snoopsReceived, 0u) << "cpu" << i;
            EXPECT_EQ(s.tagWaitCycles, 0u) << "cpu" << i;
            broadcasts += s.broadcasts;
            writebacks += s.writebacksIssued;
        }
        EXPECT_GT(broadcasts, 0u);
        EXPECT_GT(writebacks, 0u);
        for (unsigned i = 0; i < sys.numMemCtrls(); ++i) {
            const MemoryController::Stats &m = sys.memCtrl(i).stats();
            EXPECT_EQ(m.overlappedReads + m.directReads + m.writebacks +
                          m.queuedCycles,
                      0u)
                << "memctrl " << i;
        }
        EXPECT_EQ(sys.dataNetwork().stats().transfers, 0u);
        EXPECT_EQ(sys.bus().stats().broadcasts, 0u);
        EXPECT_EQ(sys.bus().stats().cacheToCache +
                      sys.bus().stats().memorySupplied,
                  0u);
        EXPECT_EQ(sys.oracle().total(), 0u);
    }
}

TEST(WarmPath, RegionFlushWritebacksSkipControllers)
{
    // One single-entry RCA: touching a second region evicts the first,
    // whose dirty line is flushed. Functional warming has no controller
    // timing, so the flush must not reach a memory controller either.
    SystemConfig c = makeDefaultConfig().withCgct(512, /*rca_sets=*/1, 1);
    c.prefetch.enabled = false;
    c.validate();
    WarmSystem warm(c);
    warm.access(0, CpuOpKind::Store, 0x10000);
    warm.access(0, CpuOpKind::Load, 0x20000);

    const Node::Stats &s = warm.sys().node(0).stats();
    ASSERT_GE(s.inclusionWritebacks, 1u);
    ASSERT_GE(s.writebacksIssued, 1u) << "the flushed line was not dirty";
    for (unsigned i = 0; i < warm.sys().numMemCtrls(); ++i)
        EXPECT_EQ(warm.sys().memCtrl(i).stats().writebacks, 0u)
            << "memctrl " << i;
}

TEST(WarmPath, PrefetchKeepsDemandHeadroom)
{
    // The timed prefetcher stops while fewer than two MSHRs would stay
    // free for demand misses; at capacity 2 that is always, so warming
    // must not prefetch either. At the default capacity the same
    // sequential stream does prefetch.
    for (const unsigned capacity : {2u, 8u}) {
        SCOPED_TRACE("capacity " + std::to_string(capacity));
        SystemConfig c = makeDefaultConfig().withCgct(512);
        c.core.maxOutstandingMisses = capacity;
        c.validate();
        WarmSystem warm(c);
        for (Addr a = 0; a < 256 * 64; a += 64)
            warm.access(0, CpuOpKind::Load, 0x100000 + a);
        const Node::Stats &s = warm.sys().node(0).stats();
        EXPECT_GT(s.demandMisses, 0u);
        if (capacity == 2) {
            EXPECT_EQ(s.prefetchesIssued, 0u);
        } else {
            EXPECT_GT(s.prefetchesIssued, 0u);
        }
    }
}

} // namespace
} // namespace cgct
