/**
 * @file
 * Tests for the out-of-order core timing model, driven by scripted op
 * sources against a real single-node memory system: completion of finite
 * streams, front-end pacing, miss overlap under the ROB window, dependent
 * load serialization, and ifetch stalls. A small-window suite pins the
 * exact stall counters of the outstanding-load ring: out-of-order
 * completions, dependent-load and ROB-head waits, and draining.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "interconnect/bus.hpp"
#include "cpu/core_model.hpp"
#include "sim/node.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {
namespace {

/** Replays a fixed op list for one CPU. */
class ScriptSource : public OpSource
{
  public:
    explicit ScriptSource(std::vector<CpuOp> ops) : ops_(std::move(ops)) {}

    bool
    next(CpuId, CpuOp &op) override
    {
        if (idx_ >= ops_.size())
            return false;
        op = ops_[idx_++];
        return true;
    }

  private:
    std::vector<CpuOp> ops_;
    std::size_t idx_ = 0;
};

CpuOp
op(CpuOpKind kind, Addr addr, std::uint32_t gap = 0, bool dep = false)
{
    CpuOp o;
    o.kind = kind;
    o.addr = addr;
    o.gap = gap;
    o.dependent = dep;
    return o;
}

/** A complete single-node memory system plus a scripted core. */
struct MiniSystem {
    explicit MiniSystem(SystemConfig cfg = makeDefaultConfig())
        : config(std::move(cfg))
    {
        config.prefetch.enabled = false;
        config.validate();
        map = std::make_unique<AddressMap>(config.topology);
        for (unsigned i = 0; i < config.topology.numMemCtrls(); ++i) {
            mcs.push_back(std::make_unique<MemoryController>(
                static_cast<MemCtrlId>(i), eq, config.interconnect));
            mcPtrs.push_back(mcs.back().get());
        }
        net = std::make_unique<DataNetwork>(config.topology.numCpus,
                                            config.interconnect);
        bus = std::make_unique<Bus>(eq, config.interconnect, *map, *net,
                                    mcPtrs);
        node = std::make_unique<Node>(0, config, eq, *bus, *net, *map,
                                      mcPtrs, nullptr);
        bus->addClient(node.get());
    }

    /** Build a core over @p ops and schedule its first activation. */
    void
    startScript(std::vector<CpuOp> ops)
    {
        source = std::make_unique<ScriptSource>(std::move(ops));
        core = std::make_unique<CoreModel>(0, config.core, eq, *node,
                                           *source);
        core->start();
    }

    /** Run a script to completion; returns the core's finish time. */
    Tick
    runScript(std::vector<CpuOp> ops)
    {
        startScript(std::move(ops));
        eq.run();
        EXPECT_TRUE(core->finished());
        return core->clock();
    }

    SystemConfig config;
    EventQueue eq;
    std::unique_ptr<AddressMap> map;
    std::vector<std::unique_ptr<MemoryController>> mcs;
    std::vector<MemoryController *> mcPtrs;
    std::unique_ptr<DataNetwork> net;
    std::unique_ptr<Bus> bus;
    std::unique_ptr<Node> node;
    std::unique_ptr<ScriptSource> source;
    std::unique_ptr<CoreModel> core;
};

class CoreModelTest : public ::testing::Test
{
  protected:
    Tick runScript(std::vector<CpuOp> ops)
    {
        return sys.runScript(std::move(ops));
    }

    MiniSystem sys;
    SystemConfig &config = sys.config;
    EventQueue &eq = sys.eq;
};

TEST_F(CoreModelTest, EmptyStreamFinishesImmediately)
{
    const Tick t = runScript({});
    EXPECT_EQ(t, 0u);
    EXPECT_EQ(sys.core->instructions(), 0u);
}

TEST_F(CoreModelTest, CountsInstructionsAndMemOps)
{
    runScript({op(CpuOpKind::Load, 0x1000, 3),
               op(CpuOpKind::Store, 0x2000, 5),
               op(CpuOpKind::Load, 0x1000, 0)});
    EXPECT_EQ(sys.core->memOps(), 3u);
    EXPECT_EQ(sys.core->instructions(), 3u + 3 + 5);
}

TEST_F(CoreModelTest, FrontEndPacesGapInstructions)
{
    // 100 hits with 8-instruction gaps: the 4-wide front end needs about
    // two cycles per op.
    std::vector<CpuOp> ops;
    ops.push_back(op(CpuOpKind::Load, 0x1000, 0));
    for (int i = 0; i < 99; ++i)
        ops.push_back(op(CpuOpKind::Load, 0x1000, 8));
    const Tick first_total = runScript(ops);
    // The initial load misses; the rest hit in the L1.
    EXPECT_GT(first_total, 99u * 2);
    EXPECT_LT(first_total, 99 * 2 + 2000u);
}

TEST_F(CoreModelTest, IndependentMissesOverlap)
{
    // Three independent load misses should overlap: total time well below
    // three serial miss latencies.
    MiniSystem serial_sys;
    const Tick serial = serial_sys.runScript(
        {op(CpuOpKind::Load, 0x100000, 0)});
    MiniSystem overlap_sys;
    const Tick overlapped = overlap_sys.runScript(
        {op(CpuOpKind::Load, 0x200000, 0),
         op(CpuOpKind::Load, 0x300000, 0),
         op(CpuOpKind::Load, 0x400000, 0)});
    EXPECT_LT(overlapped, serial * 2);
}

TEST_F(CoreModelTest, DependentLoadSerializes)
{
    MiniSystem a;
    const Tick independent = a.runScript(
        {op(CpuOpKind::Load, 0x200000, 0),
         op(CpuOpKind::Load, 0x300000, 0)});
    MiniSystem b;
    const Tick dependent = b.runScript(
        {op(CpuOpKind::Load, 0x200000, 0, true),
         op(CpuOpKind::Load, 0x300000, 0, true)});
    EXPECT_GT(dependent, independent);
    EXPECT_GT(b.core->stats().loadStallCycles, 0u);
}

TEST_F(CoreModelTest, IfetchMissStallsFetch)
{
    runScript({op(CpuOpKind::Ifetch, 0x500000, 0),
               op(CpuOpKind::Load, 0x500000, 0)});
    EXPECT_GT(sys.core->stats().ifetchStallCycles, 0u);
    // The subsequent load hits the line the ifetch brought in... via L2.
    EXPECT_TRUE(sys.core->finished());
}

TEST_F(CoreModelTest, StoresDoNotBlockRetirement)
{
    // A long string of store misses to distinct lines: the core should
    // finish issuing long before the last store completes, then drain.
    std::vector<CpuOp> ops;
    for (int i = 0; i < 8; ++i)
        ops.push_back(op(CpuOpKind::Store, 0x600000 + i * 0x1000, 1));
    runScript(ops);
    EXPECT_TRUE(sys.core->finished());
    EXPECT_EQ(sys.core->memOps(), 8u);
}

TEST_F(CoreModelTest, RobWindowLimitsRunahead)
{
    // More outstanding loads than the ROB window can hide: the core must
    // accumulate ROB stalls (all to distinct lines, all missing).
    std::vector<CpuOp> ops;
    for (int i = 0; i < 32; ++i)
        ops.push_back(op(CpuOpKind::Load, 0x700000 + i * 0x1000, 2));
    runScript(ops);
    EXPECT_TRUE(sys.core->finished());
    EXPECT_GT(sys.core->stats().robStallCycles, 0u);
}

TEST_F(CoreModelTest, FinishWaitsForOutstandingOps)
{
    runScript({op(CpuOpKind::Store, 0x800000, 0)});
    // finished() only after the store completed; no events remain.
    EXPECT_TRUE(sys.core->finished());
    EXPECT_TRUE(eq.empty());
}

TEST_F(CoreModelTest, StatsRegistration)
{
    runScript({op(CpuOpKind::Load, 0x1000, 0)});
    StatGroup g("core0");
    sys.core->addStats(g);
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("core0.rob_stall_cycles"), std::string::npos);
}

/**
 * A 4-entry ROB and 2-entry LSQ, with the two chips on different boards:
 * CPU 0's misses to the other chip's controller take the remote data
 * transfer, many cycles longer than a miss to its own controller, so a
 * later local miss completes before an earlier remote one. Of two misses
 * issued back to back, the second waits for a bus slot and then for
 * CPU 0's inbound data link: it is late by the bus queue cycles plus the
 * data network's link-wait cycles.
 */
SystemConfig
smallWindowConfig()
{
    SystemConfig c = makeDefaultConfig();
    c.core.robEntries = 4;
    c.core.lsqEntries = 2;
    c.topology.chipsPerSwitch = 1;
    c.topology.switchesPerBoard = 1;
    return c;
}

constexpr Addr kLocalA = 0x100000;  ///< Interleave block 256: controller 0.
constexpr Addr kRemote = 0x101000;  ///< Block 257: controller 1.
constexpr Addr kLocalB = 0x102000;

/** Issue-to-data latency of a lone load miss to @p addr. */
Tick
missLatency(Addr addr)
{
    MiniSystem s(smallWindowConfig());
    // A dependent load issued at clock 1 stalls exactly for its miss.
    const Tick done = s.runScript({op(CpuOpKind::Load, addr, 0, true)});
    EXPECT_EQ(done, 1 + s.core->stats().loadStallCycles);
    return s.core->stats().loadStallCycles;
}

class CoreModelRingTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        MiniSystem probe(smallWindowConfig());
        ASSERT_EQ(probe.map->controllerOf(kLocalA), 0);
        ASSERT_EQ(probe.map->controllerOf(kLocalB), 0);
        ASSERT_EQ(probe.map->controllerOf(kRemote), 1);
        local = missLatency(kLocalA);
        remote = missLatency(kRemote);
        ASSERT_GT(remote, local + 2);
    }

    Tick local = 0;
    Tick remote = 0;
};

TEST_F(CoreModelRingTest, DrainsOutOfOrderCompletions)
{
    // Remote miss at clock 1, local miss at clock 2, then the stream
    // ends: the core drains with both in flight, the younger load
    // completes first, and neither completion counts as a stall.
    MiniSystem sys(smallWindowConfig());
    const Tick done = sys.runScript({op(CpuOpKind::Load, kRemote),
                                     op(CpuOpKind::Load, kLocalA)});
    EXPECT_LT(2 + local + sys.bus->stats().queueCycles +
                  sys.net->stats().linkWaitCycles,
              1 + remote);
    EXPECT_EQ(done, 1 + remote);
    EXPECT_EQ(sys.core->stats().robStallCycles, 0u);
    EXPECT_EQ(sys.core->stats().loadStallCycles, 0u);
}

TEST_F(CoreModelRingTest, RobHeadWaitIgnoresYoungerCompletion)
{
    // The remote load (inst 1) pins the ROB once 8 gap instructions
    // retire behind the local load (inst 10): the core blocks at clock 3.
    // The local load completes first and must not wake it; the head's
    // completion does, and both retire together.
    MiniSystem sys(smallWindowConfig());
    const Tick done = sys.runScript({op(CpuOpKind::Load, kRemote),
                                     op(CpuOpKind::Load, kLocalA, 8),
                                     op(CpuOpKind::Load, kLocalB)});
    EXPECT_EQ(sys.core->stats().robStallCycles, (1 + remote) - 3);
    EXPECT_EQ(sys.core->stats().loadStallCycles, 0u);
    // The third load issues one cycle after the wake and drains alone.
    EXPECT_EQ(done, (1 + remote) + 1 + local);
}

TEST_F(CoreModelRingTest, DependentLoadWaitsForItsOwnLoadOnly)
{
    {
        // The dependent local load completes first: a load stall of its
        // own latency, then the older remote load drains.
        MiniSystem sys(smallWindowConfig());
        const Tick done = sys.runScript(
            {op(CpuOpKind::Load, kRemote),
             op(CpuOpKind::Load, kLocalA, 0, true)});
        const Tick wait = sys.bus->stats().queueCycles +
                          sys.net->stats().linkWaitCycles;
        EXPECT_LT(2 + local + wait, 1 + remote);
        EXPECT_EQ(sys.core->stats().loadStallCycles, local + wait);
        EXPECT_EQ(sys.core->stats().robStallCycles, 0u);
        EXPECT_EQ(done, 1 + remote);
    }
    {
        // The older independent load completes first and must not wake
        // the core; the dependent remote load ends the wait.
        MiniSystem sys(smallWindowConfig());
        const Tick done = sys.runScript(
            {op(CpuOpKind::Load, kLocalA),
             op(CpuOpKind::Load, kRemote, 0, true)});
        const Tick wait = sys.bus->stats().queueCycles +
                          sys.net->stats().linkWaitCycles;
        EXPECT_EQ(sys.core->stats().loadStallCycles, remote + wait);
        EXPECT_EQ(sys.core->stats().robStallCycles, 0u);
        EXPECT_EQ(done, 2 + remote + wait);
    }
}

TEST_F(CoreModelRingTest, SerializePanicsWithLoadsOutstanding)
{
    MiniSystem sys(smallWindowConfig());
    sys.startScript({op(CpuOpKind::Load, kRemote),
                     op(CpuOpKind::Load, kLocalA)});
    // Both loads issued, neither resolved: the core is draining.
    sys.eq.runUntil(4);
    ASSERT_FALSE(sys.core->finished());
    Serializer s;
    Archive ar(s);
    EXPECT_DEATH(sys.core->transfer(ar), "before it drained");
    sys.eq.run();
    EXPECT_TRUE(sys.core->finished());
}

} // namespace
} // namespace cgct
