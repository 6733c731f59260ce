/**
 * @file
 * Tests for the broadcast bus with scripted snoop clients: arbitration and
 * snoop timing, FCFS queueing, response combining (line summary, region
 * bits, memory-controller id), data sourcing (cache-to-cache vs DRAM),
 * write-back handling, grant accounting across stats resets, and the
 * oracle hook.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "interconnect/bus.hpp"
#include "sim/oracle.hpp"

namespace cgct {
namespace {

/** A scripted snoop client. */
class FakeClient : public SnoopClient
{
  public:
    explicit FakeClient(CpuId id) : id_(id) {}

    CpuId cpuId() const override { return id_; }

    LineSnoopOutcome
    snoopLine(const SystemRequest &req) override
    {
        ++lineSnoops;
        lastLineReq = req;
        const LineSnoopOutcome out =
            applyLineSnoop(lineState, snoopKindOf(req.type));
        if (applyTransitions)
            lineState = out.next;
        return out;
    }

    RegionSnoopBits
    snoopRegion(const SystemRequest &req, bool excl, Tick now) override
    {
        ++regionSnoops;
        lastExclusive = excl;
        static_cast<void>(req);
        static_cast<void>(now);
        return regionBits;
    }

    LineState lineState = LineState::Invalid;
    bool applyTransitions = false; ///< Move lineState on each snoop.
    RegionSnoopBits regionBits;
    int lineSnoops = 0;
    int regionSnoops = 0;
    bool lastExclusive = false;
    SystemRequest lastLineReq;

  private:
    CpuId id_;
};

class BusTest : public ::testing::Test
{
  protected:
    BusTest()
        : map(topo()), net(4, params),
          mc0(0, eq, params), mc1(1, eq, params),
          bus(eq, params, map, net, {&mc0, &mc1})
    {
        for (CpuId i = 0; i < 4; ++i) {
            clients.push_back(std::make_unique<FakeClient>(i));
            bus.addClient(clients.back().get());
        }
    }

    static TopologyParams
    topo()
    {
        TopologyParams t;
        t.numCpus = 4;
        t.cpusPerChip = 2;
        t.chipsPerSwitch = 2;
        return t;
    }

    SystemRequest
    makeReq(CpuId cpu, RequestType type, Addr addr)
    {
        SystemRequest r;
        r.cpu = cpu;
        r.type = type;
        r.lineAddr = addr;
        return r;
    }

    EventQueue eq;
    InterconnectParams params;
    AddressMap map;
    DataNetwork net;
    MemoryController mc0, mc1;
    Bus bus;
    std::vector<std::unique_ptr<FakeClient>> clients;
};

TEST_F(BusTest, SnoopLatencyAndMemoryPath)
{
    Tick resolved = 0, ready = 0;
    SnoopResponse got;
    bus.broadcast(makeReq(0, RequestType::Read, 0x0000),
                  [&](const SnoopResponse &resp, Tick data_ready) {
                      resolved = eq.now();
                      ready = data_ready;
                      got = resp;
                  });
    eq.run();
    // Grant at 0, snoop resolves 16 system cycles later.
    EXPECT_EQ(resolved, params.snoopLatency);
    // No remote copies: memory supplies with overlapped DRAM + transfer
    // from the requester's own chip controller (address 0 -> mc0).
    EXPECT_EQ(ready, params.snoopLatency + params.dramOverlappedExtra +
                         params.xferOwnChip);
    EXPECT_FALSE(got.line.anyCopy);
    EXPECT_EQ(got.memCtrl, 0);
    EXPECT_EQ(bus.stats().memorySupplied, 1u);
}

TEST_F(BusTest, SnoopsEveryOtherClientOnce)
{
    bus.broadcast(makeReq(2, RequestType::Read, 0x1000), [](auto &, Tick) {});
    eq.run();
    for (const auto &c : clients) {
        const int expected = c->cpuId() == 2 ? 0 : 1;
        EXPECT_EQ(c->lineSnoops, expected);
        EXPECT_EQ(c->regionSnoops, expected);
    }
}

TEST_F(BusTest, CacheToCacheSupply)
{
    clients[1]->lineState = LineState::Modified;
    Tick ready = 0;
    SnoopResponse got;
    bus.broadcast(makeReq(0, RequestType::Read, 0x0000),
                  [&](const SnoopResponse &resp, Tick r) {
                      got = resp;
                      ready = r;
                  });
    eq.run();
    EXPECT_TRUE(got.line.anyCopy);
    EXPECT_TRUE(got.line.anyDirty);
    EXPECT_TRUE(got.line.cacheSupplied);
    EXPECT_EQ(got.line.supplier, 1);
    // CPUs 0 and 1 share a chip: own-chip transfer latency.
    EXPECT_EQ(ready, params.snoopLatency + params.xferOwnChip);
    EXPECT_EQ(bus.stats().cacheToCache, 1u);
    EXPECT_EQ(bus.stats().memorySupplied, 0u);
}

TEST_F(BusTest, RegionBitsAreCombined)
{
    clients[1]->regionBits.clean = true;
    clients[3]->regionBits.dirty = true;
    SnoopResponse got;
    bus.broadcast(makeReq(0, RequestType::Read, 0x0000),
                  [&](const SnoopResponse &resp, Tick) { got = resp; });
    eq.run();
    EXPECT_TRUE(got.region.clean);
    EXPECT_TRUE(got.region.dirty);
}

TEST_F(BusTest, RequesterExcludedFromRegionBits)
{
    // Only the requester has region knowledge: the response shows none.
    clients[0]->regionBits.dirty = true;
    SnoopResponse got;
    bus.broadcast(makeReq(0, RequestType::Read, 0x0000),
                  [&](const SnoopResponse &resp, Tick) { got = resp; });
    eq.run();
    EXPECT_TRUE(got.region.none());
}

TEST_F(BusTest, ExclusivityFlagForReads)
{
    // A read with no remote copies will be granted exclusive.
    bus.broadcast(makeReq(0, RequestType::Read, 0x0000),
                  [](auto &, Tick) {});
    eq.run();
    EXPECT_TRUE(clients[1]->lastExclusive);

    // With a remote sharer, a read is granted shared.
    clients[2]->lineState = LineState::Shared;
    bus.broadcast(makeReq(0, RequestType::Read, 0x2000),
                  [](auto &, Tick) {});
    eq.run();
    EXPECT_FALSE(clients[1]->lastExclusive);

    // RFOs are always exclusive.
    bus.broadcast(makeReq(0, RequestType::ReadExclusive, 0x3000),
                  [](auto &, Tick) {});
    eq.run();
    EXPECT_TRUE(clients[1]->lastExclusive);
}

TEST_F(BusTest, WritebackSkipsRegionPhaseAndSinksToMemory)
{
    Tick ready = 0;
    bus.broadcast(makeReq(0, RequestType::Writeback, 0x0000),
                  [&](const SnoopResponse &, Tick r) { ready = r; });
    eq.run();
    // Write-backs carry no data for the requester.
    EXPECT_EQ(ready, params.snoopLatency);
    EXPECT_EQ(mc0.stats().writebacks, 1u);
    for (const auto &c : clients)
        EXPECT_EQ(c->regionSnoops, 0);
}

TEST_F(BusTest, UpgradeResolvesWithoutData)
{
    clients[1]->lineState = LineState::Shared;
    Tick ready = 0;
    bus.broadcast(makeReq(0, RequestType::Upgrade, 0x0000),
                  [&](const SnoopResponse &, Tick r) { ready = r; });
    eq.run();
    EXPECT_EQ(ready, params.snoopLatency);
    // The remote shared copy was invalidated.
    EXPECT_EQ(clients[1]->lineSnoops, 1);
}

TEST_F(BusTest, FcfsArbitrationQueues)
{
    std::vector<Tick> resolutions;
    for (int i = 0; i < 3; ++i) {
        bus.broadcast(makeReq(0, RequestType::Read, 0x1000 * i),
                      [&](const SnoopResponse &, Tick) {
                          resolutions.push_back(eq.now());
                      });
    }
    eq.run();
    ASSERT_EQ(resolutions.size(), 3u);
    // One grant per bus slot: resolutions are one slot apart.
    EXPECT_EQ(resolutions[0], params.snoopLatency);
    EXPECT_EQ(resolutions[1], params.snoopLatency + params.busSlot);
    EXPECT_EQ(resolutions[2], params.snoopLatency + 2 * params.busSlot);
    EXPECT_EQ(bus.stats().broadcasts, 3u);
    EXPECT_EQ(bus.stats().queueCycles,
              params.busSlot + 2 * params.busSlot);
}

TEST_F(BusTest, MemCtrlIdFollowsAddressMap)
{
    SnoopResponse got;
    bus.broadcast(makeReq(0, RequestType::Read, 0x1000),
                  [&](const SnoopResponse &resp, Tick) { got = resp; });
    eq.run();
    EXPECT_EQ(got.memCtrl, map.controllerOf(0x1000));
}

TEST_F(BusTest, OracleSeesPreSnoopState)
{
    // An oracle with no nodes to peek classifies from the line-snoop
    // summary alone — which must hold the state *before* the snoop.
    Oracle oracle({});
    bus.setOracle(&oracle);
    clients[1]->lineState = LineState::Modified;
    clients[1]->applyTransitions = true;
    bus.broadcast(makeReq(0, RequestType::ReadExclusive, 0x0000),
                  [](auto &, Tick) {});
    eq.run();
    // The RFO invalidated the remote copy, yet it made the RFO necessary.
    EXPECT_EQ(clients[1]->lineState, LineState::Invalid);
    EXPECT_EQ(oracle.total(), 1u);
    EXPECT_EQ(oracle.unnecessary(), 0u);

    // Now nobody holds the line: the same request was unnecessary.
    bus.broadcast(makeReq(0, RequestType::ReadExclusive, 0x0000),
                  [](auto &, Tick) {});
    eq.run();
    EXPECT_EQ(oracle.total(), 2u);
    EXPECT_EQ(oracle.unnecessary(), 1u);
}

TEST_F(BusTest, ResetBetweenEnqueueAndGrantCountsAfterReset)
{
    // Three requests at tick 0 are granted at 0, busSlot and 2 * busSlot.
    // A reset strictly between the second and third grant zeroes the
    // first two; the third counts after it, with its full queue wait.
    ASSERT_GE(params.busSlot, 2u);
    for (int i = 0; i < 3; ++i)
        bus.broadcast(makeReq(0, RequestType::Upgrade, 0x1000 * i),
                      [](auto &, Tick) {});
    eq.runUntil(params.busSlot + 1);
    bus.resetStats(eq.now());
    EXPECT_EQ(bus.stats().broadcasts, 0u);
    eq.run();
    EXPECT_EQ(bus.stats().broadcasts, 1u);
    EXPECT_EQ(bus.stats().queueCycles, 2 * params.busSlot);
    EXPECT_EQ(bus.traffic().total(), 1u);
}

TEST_F(BusTest, OneEventPerBroadcast)
{
    // Arbitration is inline at broadcast(): only the resolve is an event.
    for (int i = 0; i < 5; ++i)
        bus.broadcast(makeReq(0, RequestType::Upgrade, 0x1000 * i),
                      [](auto &, Tick) {});
    eq.run();
    EXPECT_EQ(eq.executed(), 5u);
    EXPECT_EQ(bus.stats().broadcasts, 5u);
}

TEST_F(BusTest, TrafficTrackerCounts)
{
    for (int i = 0; i < 5; ++i)
        bus.broadcast(makeReq(0, RequestType::Read, 0x1000 * i),
                      [](auto &, Tick) {});
    eq.run();
    EXPECT_EQ(bus.traffic().total(), 5u);
    bus.resetStats(eq.now());
    EXPECT_EQ(bus.traffic().total(), 0u);
    EXPECT_EQ(bus.stats().broadcasts, 0u);
}

TEST_F(BusTest, DcbOpsCountAsExclusiveForRegions)
{
    bus.broadcast(makeReq(0, RequestType::Dcbf, 0x0000),
                  [](auto &, Tick) {});
    eq.run();
    EXPECT_TRUE(clients[1]->lastExclusive);
}

} // namespace
} // namespace cgct
