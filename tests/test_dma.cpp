/**
 * @file
 * Tests for the DMA engine: transfer issue, read-vs-write snoop
 * semantics against real caches, stop conditions, and integration with a
 * full system run.
 */

#include <gtest/gtest.h>

#include <memory>

#include "check_all.hpp"
#include "interconnect/bus.hpp"
#include "sim/dma.hpp"
#include "sim/node.hpp"
#include "sim/system.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"

namespace cgct {
namespace {

class DmaTest : public ::testing::Test
{
  protected:
    DmaTest() : map(config.topology)
    {
        config.prefetch.enabled = false;
        for (unsigned i = 0; i < config.topology.numMemCtrls(); ++i) {
            mcs.push_back(std::make_unique<MemoryController>(
                static_cast<MemCtrlId>(i), eq));
            mcPtrs.push_back(mcs.back().get());
        }
        net = std::make_unique<DataNetwork>(config.topology.numCpus + 1);
        bus = std::make_unique<Bus>(eq, map, *net, mcPtrs);
        for (unsigned i = 0; i < config.topology.numCpus; ++i) {
            nodes.push_back(std::make_unique<Node>(
                static_cast<CpuId>(i), config, eq, *bus, *net, map, mcPtrs,
                nullptr));
            bus->addClient(nodes.back().get());
        }
    }

    DmaParams
    fastDma(double read_fraction)
    {
        DmaParams p;
        p.enabled = true;
        p.meanInterval = 200;
        p.bufferBytes = 512;
        p.readFraction = read_fraction;
        p.targetBase = 0x100000;
        p.targetBytes = 1 << 20;
        return p;
    }

    SystemConfig config = makeDefaultConfig();
    EventQueue eq;
    AddressMap map;
    std::vector<std::unique_ptr<MemoryController>> mcs;
    std::vector<MemoryController *> mcPtrs;
    std::unique_ptr<DataNetwork> net;
    std::unique_ptr<Bus> bus;
    std::vector<std::unique_ptr<Node>> nodes;
};

TEST_F(DmaTest, IssuesBufferSizedTransfers)
{
    DmaEngine dma(eq, *bus, fastDma(1.0), config.topology, 1);
    int budget = 5;
    dma.start([&budget] { return budget-- > 0; });
    eq.run();
    EXPECT_EQ(dma.stats().transfers, 5u);
    // 512-byte buffers = 8 lines each, all reads.
    EXPECT_EQ(dma.stats().readLines, 40u);
    EXPECT_EQ(dma.stats().writeLines, 0u);
    EXPECT_EQ(bus->stats().broadcasts, 40u);
}

TEST_F(DmaTest, WritesInvalidateCachedCopies)
{
    // A processor caches a line inside the DMA target range.
    Eviction ev;
    nodes[1]->l2().fill(0x100000, LineState::Modified, 0, 0, ev);
    DmaParams p = fastDma(0.0); // All writes.
    p.targetBytes = 512;        // Deterministic target buffer.
    DmaEngine dma(eq, *bus, p, config.topology, 1);
    int budget = 1;
    dma.start([&budget] { return budget-- > 0; });
    eq.run();
    EXPECT_EQ(dma.stats().writeLines, 8u);
    // The cached copy was invalidated before memory was overwritten.
    EXPECT_EQ(l2State(*nodes[1], 0x100000), LineState::Invalid);
}

TEST_F(DmaTest, ReadsFindDirtyData)
{
    Eviction ev;
    nodes[2]->l2().fill(0x100040, LineState::Modified, 0, 0, ev);
    DmaParams p = fastDma(1.0);
    p.targetBytes = 512;
    DmaEngine dma(eq, *bus, p, config.topology, 1);
    int budget = 1;
    dma.start([&budget] { return budget-- > 0; });
    eq.run();
    EXPECT_EQ(dma.stats().dirtyHits, 1u);
    // MOESI: the dirty owner supplied data and keeps it Owned.
    EXPECT_EQ(l2State(*nodes[2], 0x100040), LineState::Owned);
}

TEST_F(DmaTest, DisabledEngineDoesNothing)
{
    DmaParams p = fastDma(0.5);
    p.enabled = false;
    DmaEngine dma(eq, *bus, p, config.topology, 1);
    dma.start();
    eq.run();
    EXPECT_EQ(dma.stats().transfers, 0u);
    EXPECT_TRUE(eq.empty());
}

TEST_F(DmaTest, StopHaltsRescheduling)
{
    DmaEngine dma(eq, *bus, fastDma(0.5), config.topology, 1);
    dma.start();
    eq.run(2000);
    dma.stop();
    eq.run();
    EXPECT_TRUE(eq.empty()); // No endless self-rescheduling.
    EXPECT_GT(dma.stats().transfers, 0u);
}

TEST(DmaSystem, FullSystemRunsAndDrainsWithDma)
{
    SystemConfig config = makeDefaultConfig().withCgct(512);
    config.dma.enabled = true;
    config.dma.meanInterval = 2000;
    SyntheticWorkload workload(benchmarkByName("ocean"), 4, 4000, 3);
    System sys(config, workload);
    ASSERT_NE(sys.dma(), nullptr);
    sys.start();
    sys.eq().run();
    EXPECT_TRUE(sys.allCoresFinished());
    EXPECT_GT(sys.dma()->stats().transfers, 0u);
    EXPECT_EQ(checkAll(sys), "");
}

TEST(DmaSystem, DmaRequesterIdDistinctFromCpus)
{
    TopologyParams topo;
    topo.numCpus = 4;
    EXPECT_EQ(dmaRequesterId(topo), 4);
    // And the distance math still works for the bridge.
    EXPECT_NO_FATAL_FAILURE({
        const Distance d = topo.distanceCpuToChip(dmaRequesterId(topo), 0);
        static_cast<void>(d);
    });
}

} // namespace
} // namespace cgct
