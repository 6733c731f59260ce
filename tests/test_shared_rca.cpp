/**
 * @file
 * Tests for the per-chip shared RCA mode (Section 3.2: "In systems with
 * multiple processing cores per chip, only one RCA is needed for the
 * chip"): sibling cores share region knowledge, sibling requests do not
 * downgrade their own chip's region state, remote requests do, inclusion
 * flushes cover both cores, whole-system runs stay invariant-clean, and
 * a shared RCA's statistics are counted once.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check_all.hpp"
#include "interconnect/bus.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"
#include "sim/system.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"

namespace cgct {
namespace {

class SharedRcaTest : public ::testing::Test
{
  protected:
    SharedRcaTest() : map(config.topology)
    {
        config.l1i = CacheParams{1024, 2, 64, 1};
        config.l1d = CacheParams{1024, 2, 64, 1};
        config.l2 = CacheParams{16 * 1024, 2, 64, 12};
        config.prefetch.enabled = false;
        config.cgct.enabled = true;
        config.cgct.regionBytes = 512;
        config.cgct.rcaSets = 16;
        config.cgct.rcaWays = 2;
        config.cgct.sharedPerChip = true;
        config.validate();

        for (unsigned i = 0; i < config.topology.numMemCtrls(); ++i) {
            mcs.push_back(std::make_unique<MemoryController>(
                static_cast<MemCtrlId>(i), eq));
            mcPtrs.push_back(mcs.back().get());
        }
        net = std::make_unique<DataNetwork>(config.topology.numCpus);
        bus = std::make_unique<Bus>(eq, map, *net, mcPtrs);
        // Chips: {0,1} and {2,3}; one shared tracker per chip.
        std::vector<std::shared_ptr<RegionTracker>> chip_trackers(
            config.topology.numChips());
        for (unsigned i = 0; i < config.topology.numCpus; ++i) {
            auto &slot = chip_trackers[config.topology.chipOfCpu(
                static_cast<CpuId>(i))];
            if (!slot)
                slot = makeTracker(static_cast<CpuId>(i), config.cgct,
                                   config.l2.lineBytes);
            nodes.push_back(std::make_unique<Node>(
                static_cast<CpuId>(i), config, eq, *bus, *net, map,
                mcPtrs, slot));
            bus->addClient(nodes.back().get());
        }
    }

    Tick
    doAccess(unsigned node, CpuOpKind kind, Addr addr)
    {
        Tick ready = 0;
        Tick result = 0;
        const bool sync = nodes[node]->access(kind, addr, eq.now(), ready,
                                              [&](Tick r) { result = r; });
        if (!sync) {
            eq.run();
            ready = result;
        }
        return ready;
    }

    RegionState
    state(unsigned node, Addr addr)
    {
        return nodes[node]->tracker()->peekState(addr);
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

TEST_F(SharedRcaTest, SiblingsShareTheTracker)
{
    EXPECT_EQ(nodes[0]->tracker(), nodes[1]->tracker());
    EXPECT_EQ(nodes[2]->tracker(), nodes[3]->tracker());
    EXPECT_NE(nodes[0]->tracker(), nodes[2]->tracker());
}

TEST_F(SharedRcaTest, SiblingInheritsRegionKnowledge)
{
    doAccess(0, CpuOpKind::Load, 0x10000);
    ASSERT_EQ(state(0, 0x10000), RegionState::DirtyInvalid);
    // Core 1 never touched the region but shares the chip's RCA: its
    // request to another line of the region goes directly to memory.
    doAccess(1, CpuOpKind::Load, 0x10040);
    EXPECT_EQ(nodes[1]->stats().directs, 1u);
    EXPECT_EQ(nodes[1]->stats().broadcasts, 0u);
}

TEST_F(SharedRcaTest, SiblingRequestDoesNotDowngradeOwnChip)
{
    doAccess(0, CpuOpKind::Load, 0x10000);
    ASSERT_EQ(state(0, 0x10000), RegionState::DirtyInvalid);
    // Core 1's *broadcast* to a line of a different region would snoop
    // node 0 — but for a region the chip holds, a sibling request must
    // not be treated as external. Force a broadcast by touching a line
    // core 1 has no region for, then check the shared region is intact.
    doAccess(1, CpuOpKind::Store, 0x10080); // Same region: direct.
    EXPECT_EQ(state(0, 0x10000), RegionState::DirtyInvalid);
}

TEST_F(SharedRcaTest, RemoteRequestStillDowngrades)
{
    doAccess(0, CpuOpKind::Load, 0x10000);
    ASSERT_EQ(state(0, 0x10000), RegionState::DirtyInvalid);
    doAccess(2, CpuOpKind::Load, 0x10000); // Other chip.
    EXPECT_EQ(state(0, 0x10000), RegionState::DirtyClean);
    // And the requesting chip records the external dirtiness.
    EXPECT_EQ(state(2, 0x10000), RegionState::CleanDirty);
}

TEST_F(SharedRcaTest, ChipCountsAggregateBothCores)
{
    doAccess(0, CpuOpKind::Load, 0x10000);
    doAccess(1, CpuOpKind::Load, 0x10040);
    auto *cgct_ctrl =
        dynamic_cast<CgctController *>(nodes[0]->tracker());
    ASSERT_NE(cgct_ctrl, nullptr);
    const RegionEntry *entry = cgct_ctrl->rca().find(0x10000);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->lineCount, 2u); // One line in each core's L2.
    EXPECT_EQ(checkAll(config, nodes), "");
}

TEST_F(SharedRcaTest, RegionEvictionFlushesBothCores)
{
    // RCA: 16 sets of 512 B regions -> set stride 8 KB. Three regions in
    // set 0, with lines cached by both cores of chip 0.
    doAccess(0, CpuOpKind::Store, 0x10000);
    doAccess(1, CpuOpKind::Store, 0x10040);
    doAccess(0, CpuOpKind::Store, 0x12000);
    // Third region in the same set evicts one of the first two and must
    // flush lines from *both* cores.
    doAccess(1, CpuOpKind::Store, 0x14000);
    eq.run();
    const bool flushed_first =
        l2State(*nodes[0], 0x10000) == LineState::Invalid &&
        l2State(*nodes[1], 0x10040) == LineState::Invalid;
    const bool flushed_second =
        l2State(*nodes[0], 0x12000) == LineState::Invalid;
    EXPECT_TRUE(flushed_first || flushed_second);
    EXPECT_EQ(checkAll(config, nodes), "");
}

TEST(SharedRcaSystem, FullRunStaysInvariantClean)
{
    SystemConfig config = makeDefaultConfig().withCgct(512, 256, 2);
    config.cgct.sharedPerChip = true;
    config.l2 = CacheParams{64 * 1024, 2, 64, 12};
    SyntheticWorkload workload(benchmarkByName("tpc-b"), 4, 6000, 21);
    System sys(config, workload);
    sys.start();
    sys.eq().run();
    EXPECT_TRUE(sys.allCoresFinished());
    EXPECT_EQ(checkAll(sys), "");
    // Siblings really do share in the assembled system.
    EXPECT_EQ(sys.node(0).tracker(), sys.node(1).tracker());
    EXPECT_NE(sys.node(1).tracker(), sys.node(2).tracker());
}

TEST(SharedRcaSystem, EvictionCountersMatchTheHistogram)
{
    // The scalar eviction counters and the lines-at-eviction histogram
    // count the same evictions, a chip-shared RCA's once.
    for (const bool shared : {false, true}) {
        SystemConfig config = makeDefaultConfig().withCgct(512, 256, 2);
        config.cgct.sharedPerChip = shared;
        RunOptions opts;
        opts.opsPerCpu = 20000;
        opts.warmupOps = 4000;
        const RunResult r =
            simulateOnce(config, benchmarkByName("tpc-w"), opts);
        const std::uint64_t evicted = r.rcaEvictedEmpty + r.rcaEvictedOne +
                                      r.rcaEvictedTwo + r.rcaEvictedMore;
        EXPECT_GT(evicted, 0u) << "shared=" << shared;
        std::uint64_t samples = 0;
        for (const HistogramSnapshot &h : r.histograms)
            if (h.name == "rca.lines_at_eviction")
                samples = h.samples;
        EXPECT_EQ(evicted, samples) << "shared=" << shared;
    }
}

TEST(SharedRcaSystem, SharingImprovesAvoidanceOverSplitRcaOfSameSize)
{
    // A chip-shared 2N-entry RCA should capture at least as much as two
    // private N-entry RCAs for workloads with chip-local reuse.
    SystemConfig shared_cfg = makeDefaultConfig().withCgct(512, 2048, 2);
    shared_cfg.cgct.sharedPerChip = true;
    SystemConfig split_cfg = makeDefaultConfig().withCgct(512, 1024, 2);

    RunOptions opts;
    opts.opsPerCpu = 12000;
    opts.warmupOps = 0;
    opts.seed = 5;
    const RunResult shared_run =
        simulateOnce(shared_cfg, benchmarkByName("specint2000rate"), opts);
    const RunResult split_run =
        simulateOnce(split_cfg, benchmarkByName("specint2000rate"), opts);
    EXPECT_GT(shared_run.avoidedFraction(),
              split_run.avoidedFraction() * 0.9);
}

} // namespace
} // namespace cgct
