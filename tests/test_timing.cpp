/**
 * @file
 * End-to-end timing validation: the exact Figure 6 latencies, measured
 * through the live system (node + bus + memory controller + data
 * network), not computed analytically. Every scenario uses an otherwise
 * idle machine so no queueing noise appears.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "interconnect/bus.hpp"
#include "sim/node.hpp"

namespace cgct {
namespace {

class TimingTest : public ::testing::TestWithParam<bool>
{
  protected:
    TimingTest() : map(config().topology) {}

    SystemConfig &
    config()
    {
        static thread_local SystemConfig cfg = [] {
            SystemConfig c = makeDefaultConfig();
            c.prefetch.enabled = false;
            return c;
        }();
        return cfg;
    }

    void
    build(bool cgct_on)
    {
        cfg_ = makeDefaultConfig();
        cfg_.prefetch.enabled = false;
        if (cgct_on)
            cfg_ = cfg_.withCgct(512);
        cfg_.validate();
        for (unsigned i = 0; i < cfg_.topology.numMemCtrls(); ++i) {
            mcs.push_back(std::make_unique<MemoryController>(
                static_cast<MemCtrlId>(i), eq));
            mcPtrs.push_back(mcs.back().get());
        }
        net = std::make_unique<DataNetwork>(cfg_.topology.numCpus);
        bus = std::make_unique<Bus>(eq, map, *net, mcPtrs);
        for (unsigned i = 0; i < cfg_.topology.numCpus; ++i) {
            nodes.push_back(std::make_unique<Node>(
                static_cast<CpuId>(i), cfg_, eq, *bus, *net, map, mcPtrs,
                makeTracker(static_cast<CpuId>(i), cfg_.cgct,
                            cfg_.l2.lineBytes)));
            bus->addClient(nodes.back().get());
        }
    }

    /** Latency of one access on an idle system. */
    Tick
    latency(unsigned node, CpuOpKind kind, Addr addr)
    {
        Tick ready = 0;
        Tick result = 0;
        const Tick start = eq.now();
        const bool sync = nodes[node]->access(kind, addr, start, ready,
                                              [&](Tick r) { result = r; });
        if (!sync) {
            eq.run();
            ready = result;
        }
        return ready - start;
    }

    SystemConfig cfg_;
    EventQueue eq;
    AddressMap map;
    std::vector<std::unique_ptr<MemoryController>> mcs;
    std::vector<MemoryController *> mcPtrs;
    std::unique_ptr<DataNetwork> net;
    std::unique_ptr<Bus> bus;
    std::vector<std::unique_ptr<Node>> nodes;
};

TEST_P(TimingTest, SnoopedOwnMemoryIs25SystemCycles)
{
    build(GetParam());
    // CPU 0's own controller owns address 0 (interleave block 0).
    // Figure 6: snoop(16) + overlapped DRAM(+7) + transfer(2) = 25.
    const Tick lat = latency(0, CpuOpKind::Load, 0x0000);
    EXPECT_EQ(lat, systemCycles(25));
}

TEST_P(TimingTest, SnoopedSameSwitchMemoryIs26SystemCycles)
{
    build(GetParam());
    // Address 0x1000 interleaves to controller 1 (the other chip):
    // snoop(16) + DRAM(+7) + same-switch transfer(3).
    const Tick lat = latency(0, CpuOpKind::Load, 0x1000);
    EXPECT_EQ(lat, systemCycles(26));
}

TEST_P(TimingTest, DirectOwnMemoryIsAbout18SystemCycles)
{
    if (!GetParam())
        GTEST_SKIP() << "baseline has no direct path";
    build(true);
    // Acquire the region first (one broadcast).
    latency(0, CpuOpKind::Load, 0x0000);
    // Figure 6: request(0.1) + DRAM(16) + transfer(2) ~ 18 system cycles.
    const Tick lat = latency(0, CpuOpKind::Load, 0x0040);
    EXPECT_EQ(lat, 1 + systemCycles(16) + systemCycles(2));
    EXPECT_LT(lat, systemCycles(25)); // Strictly beats the snoop path.
}

TEST_P(TimingTest, DirectSameSwitchMemoryIs21SystemCycles)
{
    if (!GetParam())
        GTEST_SKIP() << "baseline has no direct path";
    build(true);
    latency(0, CpuOpKind::Load, 0x1000);
    // request(2) + DRAM(16) + transfer(3).
    const Tick lat = latency(0, CpuOpKind::Load, 0x1040);
    EXPECT_EQ(lat, systemCycles(2 + 16 + 3));
}

TEST_P(TimingTest, CacheToCacheIsSnoopPlusTransfer)
{
    build(GetParam());
    // CPU 1 (same chip as CPU 0) dirties the line; CPU 0 reads it.
    latency(1, CpuOpKind::Store, 0x2000);
    const Tick lat = latency(0, CpuOpKind::Load, 0x2000);
    // snoop(16) + own-chip transfer(2): no DRAM involved.
    EXPECT_EQ(lat, systemCycles(16 + 2));
}

TEST_P(TimingTest, UpgradeCostsOneSnoopRound)
{
    build(GetParam());
    latency(0, CpuOpKind::Load, 0x3000);
    latency(2, CpuOpKind::Load, 0x3000); // Now shared; region not excl.
    const Tick lat = latency(0, CpuOpKind::Store, 0x3000);
    // An upgrade resolves at the snoop with no data transfer.
    EXPECT_EQ(lat, systemCycles(16));
}

TEST_P(TimingTest, LocalUpgradeIsCacheLatencyOnly)
{
    if (!GetParam())
        GTEST_SKIP() << "needs region tracking";
    build(true);
    // Exclusive region, shared line cannot happen locally; instead test
    // DCBZ in an exclusive region: completes at L2 latency.
    latency(0, CpuOpKind::Store, 0x4000);
    const Tick lat = latency(0, CpuOpKind::Dcbz, 0x4040);
    EXPECT_EQ(lat, cfg_.l2.latency);
}

TEST_P(TimingTest, L1AndL2HitLatencies)
{
    build(GetParam());
    latency(0, CpuOpKind::Load, 0x5000);
    // L1 hit.
    EXPECT_EQ(latency(0, CpuOpKind::Load, 0x5000), cfg_.l1d.latency);
    // L2 hit (L1I miss for a data line already in L2).
    EXPECT_EQ(latency(0, CpuOpKind::Ifetch, 0x5000),
              cfg_.l2.latency);
}

INSTANTIATE_TEST_SUITE_P(BaselineAndCgct, TimingTest,
                         ::testing::Values(false, true),
                         [](const auto &info) {
                             return info.param ? "cgct" : "baseline";
                         });

} // namespace
} // namespace cgct
