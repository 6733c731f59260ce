/**
 * @file
 * Tests for the node's region-acquisition merging (requests to a region
 * whose first broadcast is still in flight wait for the region snoop
 * response instead of broadcasting line by line), for snoop-induced
 * tag-port contention, and for the snoop filter: a region the snooped
 * node's RCA proves empty skips the L2 lookup but not the port.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check_all.hpp"
#include "interconnect/bus.hpp"
#include "sim/node.hpp"

namespace cgct {
namespace {

SystemConfig
testConfig(bool cgct_on)
{
    SystemConfig c;
    c.l1i = CacheParams{1024, 2, 64, 1};
    c.l1d = CacheParams{1024, 2, 64, 1};
    c.l2 = CacheParams{16 * 1024, 2, 64, 12};
    c.core.maxOutstandingMisses = 8;
    c.prefetch.enabled = false;
    c.cgct.enabled = cgct_on;
    c.cgct.regionBytes = 512;
    c.cgct.rcaSets = 16;
    c.cgct.rcaWays = 2;
    c.validate();
    return c;
}

class RegionAcqTest : public ::testing::Test
{
  protected:
    RegionAcqTest() : config(testConfig(true)), map(config.topology)
    {
        for (unsigned i = 0; i < config.topology.numMemCtrls(); ++i) {
            mcs.push_back(std::make_unique<MemoryController>(
                static_cast<MemCtrlId>(i), eq));
            mcPtrs.push_back(mcs.back().get());
        }
        net = std::make_unique<DataNetwork>(config.topology.numCpus);
        bus = std::make_unique<Bus>(eq, map, *net, mcPtrs);
        for (unsigned i = 0; i < config.topology.numCpus; ++i) {
            nodes.push_back(std::make_unique<Node>(
                static_cast<CpuId>(i), config, eq, *bus, *net, map, mcPtrs,
                makeTracker(static_cast<CpuId>(i), config.cgct,
                            config.l2.lineBytes)));
            bus->addClient(nodes.back().get());
        }
    }

    SystemConfig config;
    EventQueue eq;
    AddressMap map;
    std::vector<std::unique_ptr<MemoryController>> mcs;
    std::vector<MemoryController *> mcPtrs;
    std::unique_ptr<DataNetwork> net;
    std::unique_ptr<Bus> bus;
    std::vector<std::unique_ptr<Node>> nodes;
};

TEST_F(RegionAcqTest, BurstToOneRegionBroadcastsOnce)
{
    // Issue all 8 lines of a region back-to-back, before any response.
    int completed = 0;
    Tick ready = 0;
    for (int i = 0; i < 8; ++i) {
        const bool sync = nodes[0]->access(
            CpuOpKind::Load, 0x10000 + static_cast<Addr>(i) * 64,
            eq.now(), ready, [&](Tick) { ++completed; });
        EXPECT_FALSE(sync);
    }
    eq.run();
    EXPECT_EQ(completed, 8);
    // Exactly one broadcast (the region acquisition); the rest followed
    // directly once the region snoop response arrived.
    EXPECT_EQ(nodes[0]->stats().broadcasts, 1u);
    EXPECT_EQ(nodes[0]->stats().directs, 7u);
    for (int i = 0; i < 8; ++i)
        EXPECT_NE(l2State(*nodes[0], 0x10000 + static_cast<Addr>(i) * 64),
                  LineState::Invalid);
    EXPECT_EQ(checkAll(config, nodes), "");
}

TEST_F(RegionAcqTest, FollowersOfSharedRegionStillBroadcast)
{
    // Node 1 owns a dirty line in the region, so the acquisition comes
    // back externally dirty: the waiting loads must broadcast after all.
    Tick ready = 0;
    bool done1 = false;
    nodes[1]->access(CpuOpKind::Store, 0x20040, eq.now(), ready,
                     [&](Tick) { done1 = true; });
    eq.run();
    ASSERT_EQ(l2State(*nodes[1], 0x20040), LineState::Modified);

    int completed = 0;
    for (int i = 0; i < 4; ++i) {
        nodes[0]->access(CpuOpKind::Load,
                         0x20000 + static_cast<Addr>(i) * 64, eq.now(),
                         ready, [&](Tick) { ++completed; });
    }
    eq.run();
    EXPECT_EQ(completed, 4);
    // Region is externally dirty at node 0: no direct reads.
    EXPECT_EQ(nodes[0]->stats().directs, 0u);
    EXPECT_EQ(nodes[0]->stats().broadcasts, 4u);
    EXPECT_EQ(checkAll(config, nodes), "");
}

TEST_F(RegionAcqTest, AcquisitionMergingPreservesOrderingSafety)
{
    // A store burst into a fresh region: the acquisition is the store's
    // RFO; followers become direct exclusive fetches.
    int completed = 0;
    Tick ready = 0;
    for (int i = 0; i < 8; ++i) {
        nodes[2]->access(CpuOpKind::Store,
                         0x30000 + static_cast<Addr>(i) * 64, eq.now(),
                         ready, [&](Tick) { ++completed; });
    }
    eq.run();
    EXPECT_EQ(completed, 8);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(l2State(*nodes[2], 0x30000 + static_cast<Addr>(i) * 64),
                  LineState::Modified);
    EXPECT_EQ(nodes[2]->stats().broadcasts, 1u);
    EXPECT_EQ(checkAll(config, nodes), "");
}

TEST_F(RegionAcqTest, DistinctRegionsAcquireIndependently)
{
    Tick ready = 0;
    int completed = 0;
    // Two lines in different regions: two acquisitions, no merging.
    nodes[0]->access(CpuOpKind::Load, 0x40000, eq.now(), ready,
                     [&](Tick) { ++completed; });
    nodes[0]->access(CpuOpKind::Load, 0x40200, eq.now(), ready,
                     [&](Tick) { ++completed; });
    eq.run();
    EXPECT_EQ(completed, 2);
    EXPECT_EQ(nodes[0]->stats().broadcasts, 2u);
}

TEST_F(RegionAcqTest, TagContentionAccumulatesUnderSnoops)
{
    // Node 1's accesses contend with the snoops node 0's misses induce.
    Tick ready = 0;
    int completed = 0;
    for (int i = 0; i < 6; ++i) {
        nodes[0]->access(CpuOpKind::Load,
                         0x50000 + static_cast<Addr>(i) * 0x1000,
                         eq.now(), ready, [&](Tick) { ++completed; });
    }
    eq.run();
    EXPECT_EQ(completed, 6);
    EXPECT_EQ(nodes[1]->stats().snoopsReceived, 6u);

    // Now node 1 accesses its L2 immediately after a snoop arrives: the
    // tag port is busy, so the access pays a wait.
    nodes[0]->access(CpuOpKind::Load, 0x60000, eq.now(), ready,
                     [&](Tick) { ++completed; });
    // Let the snoop resolve (it probes node 1's tags)...
    eq.runUntil(eq.now() + config.interconnect.snoopLatency + 1);
    // ...and access node 1's L2 in the contention window.
    const std::uint64_t waited_before = nodes[1]->stats().tagWaitCycles;
    Tick r1 = 0;
    nodes[1]->access(CpuOpKind::Load, 0x70000, eq.now(), r1,
                     [&](Tick) { ++completed; });
    eq.run();
    EXPECT_GE(nodes[1]->stats().tagWaitCycles, waited_before);
    EXPECT_EQ(completed, 8);
}

TEST_F(RegionAcqTest, SnoopFilterSkipsOnlyProvablyEmptyRegions)
{
    SystemRequest req;
    req.cpu = 0;
    req.type = RequestType::ReadExclusive;
    req.lineAddr = 0x80040;

    // Node 1 has no RCA entry for the region: the lookup is skipped, the
    // snoop still counts and still occupies the tag port.
    ASSERT_FALSE(nodes[1]->tracker()->mayHoldLines(req.lineAddr));
    LineSnoopOutcome out = nodes[1]->snoopLine(req);
    EXPECT_FALSE(out.hadCopy);
    EXPECT_EQ(nodes[1]->stats().snoopsReceived, 1u);

    // Once node 1 caches a line of the region the snoop must find it.
    Tick ready = 0;
    nodes[1]->access(CpuOpKind::Load, req.lineAddr, eq.now(), ready,
                     [](Tick) {});
    eq.run();
    ASSERT_TRUE(nodes[1]->tracker()->mayHoldLines(req.lineAddr));
    ASSERT_EQ(l2State(*nodes[1], req.lineAddr), LineState::Exclusive);
    const std::uint64_t snoops = nodes[1]->stats().snoopsReceived;
    out = nodes[1]->snoopLine(req);
    EXPECT_TRUE(out.hadCopy);
    EXPECT_EQ(l2State(*nodes[1], req.lineAddr), LineState::Invalid);
    EXPECT_EQ(nodes[1]->stats().snoopsReceived, snoops + 1);
}

TEST_F(RegionAcqTest, BaselineUnaffectedByMerging)
{
    // The baseline (no tracker) still broadcasts every line.
    SystemConfig base_cfg = testConfig(false);
    EventQueue beq;
    AddressMap bmap(base_cfg.topology);
    std::vector<std::unique_ptr<MemoryController>> bmcs;
    std::vector<MemoryController *> bptrs;
    for (unsigned i = 0; i < base_cfg.topology.numMemCtrls(); ++i) {
        bmcs.push_back(std::make_unique<MemoryController>(
            static_cast<MemCtrlId>(i), beq));
        bptrs.push_back(bmcs.back().get());
    }
    DataNetwork bnet(base_cfg.topology.numCpus);
    Bus bbus(beq, bmap, bnet, bptrs);
    Node node(0, base_cfg, beq, bbus, bnet, bmap, bptrs, nullptr);
    bbus.addClient(&node);

    int completed = 0;
    Tick ready = 0;
    for (int i = 0; i < 8; ++i) {
        node.access(CpuOpKind::Load,
                    0x10000 + static_cast<Addr>(i) * 64, beq.now(), ready,
                    [&](Tick) { ++completed; });
    }
    beq.run();
    EXPECT_EQ(completed, 8);
    EXPECT_EQ(node.stats().broadcasts, 8u);
}

} // namespace
} // namespace cgct
