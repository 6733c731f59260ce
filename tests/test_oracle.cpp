/**
 * @file
 * Tests for the Figure 2 oracle: necessity classification per request
 * type against real node cache state, and a randomized differential of
 * the classification from the line-snoop summary of a mask that covers
 * every holder (what each topology hands it) against a full pre-snoop
 * peek.
 */

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "check_all.hpp"
#include "interconnect/bus.hpp"
#include "sim/node.hpp"
#include "sim/oracle.hpp"

namespace cgct {
namespace {

class OracleTest : public ::testing::Test
{
  protected:
    OracleTest() : map(config.topology)
    {
        config.prefetch.enabled = false;
        for (unsigned i = 0; i < config.topology.numMemCtrls(); ++i) {
            mcs.push_back(std::make_unique<MemoryController>(
                static_cast<MemCtrlId>(i), eq, config.interconnect));
            mcPtrs.push_back(mcs.back().get());
        }
        net = std::make_unique<DataNetwork>(config.topology.numCpus,
                                            config.interconnect);
        bus = std::make_unique<Bus>(eq, config.interconnect, map, *net,
                                    mcPtrs);
        for (unsigned i = 0; i < config.topology.numCpus; ++i) {
            nodes.push_back(std::make_unique<Node>(
                static_cast<CpuId>(i), config, eq, *bus, *net, map, mcPtrs,
                nullptr));
            bus->addClient(nodes.back().get());
        }
    }

    /** Snoop every other node, as the flat bus does, and classify the
     *  request from the summary. */
    void
    observe(CpuId cpu, RequestType type, Addr addr)
    {
        const SystemRequest r = req(cpu, type, addr);
        LineSnoopSummary snooped;
        for (auto &node : nodes) {
            if (node->cpuId() != cpu)
                snooped.fold(node->cpuId(), node->snoopLine(r));
        }
        oracle.observe(r, snooped);
    }

    SystemRequest
    req(CpuId cpu, RequestType type, Addr addr)
    {
        SystemRequest r;
        r.cpu = cpu;
        r.type = type;
        r.lineAddr = addr;
        return r;
    }

    /** Install a line in a node's L2 directly. */
    void
    plant(unsigned node, Addr addr, LineState state)
    {
        Eviction ev;
        nodes[node]->l2().fill(addr, state, 0, 0, ev);
    }

    SystemConfig config = makeDefaultConfig();
    EventQueue eq;
    AddressMap map;
    std::vector<std::unique_ptr<MemoryController>> mcs;
    std::vector<MemoryController *> mcPtrs;
    std::unique_ptr<DataNetwork> net;
    std::unique_ptr<Bus> bus;
    std::vector<std::unique_ptr<Node>> nodes;
    Oracle oracle;
};

TEST_F(OracleTest, ReadWithNoRemoteCopyIsUnnecessary)
{
    observe(0, RequestType::Read, 0x1000);
    EXPECT_EQ(oracle.total(), 1u);
    EXPECT_EQ(oracle.unnecessary(), 1u);
}

TEST_F(OracleTest, ReadWithRemoteCopyIsNecessary)
{
    plant(1, 0x1000, LineState::Shared);
    observe(0, RequestType::Read, 0x1000);
    EXPECT_EQ(oracle.unnecessary(), 0u);
}

TEST_F(OracleTest, OwnCopyDoesNotMakeItNecessary)
{
    plant(0, 0x1000, LineState::Modified);
    observe(0, RequestType::Upgrade, 0x1000);
    EXPECT_EQ(oracle.unnecessary(), 1u);
}

TEST_F(OracleTest, IfetchToleratesCleanSharers)
{
    plant(1, 0x1000, LineState::Shared);
    plant(2, 0x1000, LineState::Exclusive);
    observe(0, RequestType::Ifetch, 0x1000);
    EXPECT_EQ(oracle.unnecessary(), 1u);
}

TEST_F(OracleTest, IfetchNeedsBroadcastForDirtyCopy)
{
    plant(1, 0x1000, LineState::Owned);
    observe(0, RequestType::Ifetch, 0x1000);
    EXPECT_EQ(oracle.unnecessary(), 0u);
}

TEST_F(OracleTest, WritebacksAlwaysUnnecessary)
{
    plant(1, 0x1000, LineState::Modified);
    observe(0, RequestType::Writeback, 0x1000);
    EXPECT_EQ(oracle.unnecessary(), 1u);
}

TEST_F(OracleTest, DcbOpsNeedBroadcastOnlyWithRemoteCopies)
{
    observe(0, RequestType::Dcbz, 0x1000);
    EXPECT_EQ(oracle.unnecessary(), 1u);
    plant(2, 0x1000, LineState::Shared);
    observe(0, RequestType::Dcbz, 0x1000);
    EXPECT_EQ(oracle.unnecessary(), 1u); // Second one was necessary.
    EXPECT_EQ(oracle.total(), 2u);
}

TEST_F(OracleTest, CategoriesTallied)
{
    observe(0, RequestType::Read, 0x1000);
    observe(0, RequestType::Ifetch, 0x2000);
    observe(0, RequestType::Writeback, 0x3000);
    observe(0, RequestType::Dcbz, 0x4000);
    EXPECT_EQ(oracle.category(RequestCategory::DataReadWrite).total, 1u);
    EXPECT_EQ(oracle.category(RequestCategory::Ifetch).total, 1u);
    EXPECT_EQ(oracle.category(RequestCategory::Writeback).total, 1u);
    EXPECT_EQ(oracle.category(RequestCategory::DcbOp).total, 1u);
    EXPECT_DOUBLE_EQ(oracle.unnecessaryFraction(), 1.0);
}

TEST_F(OracleTest, PrefetchClassifiedLikeSharedRead)
{
    plant(1, 0x1000, LineState::Shared);
    observe(0, RequestType::Prefetch, 0x1000);
    // Shared prefetches tolerate clean sharers.
    EXPECT_EQ(oracle.unnecessary(), 1u);
    observe(0, RequestType::PrefetchExclusive, 0x1000);
    // Exclusive prefetches need the remote copy gone.
    EXPECT_EQ(oracle.unnecessary(), 1u);
    EXPECT_EQ(oracle.total(), 2u);
}

TEST_F(OracleTest, Reset)
{
    observe(0, RequestType::Read, 0x1000);
    oracle.reset();
    EXPECT_EQ(oracle.total(), 0u);
    EXPECT_EQ(oracle.unnecessary(), 0u);
    EXPECT_EQ(oracle.category(RequestCategory::DataReadWrite).total, 0u);
}

/**
 * The interconnect hands the oracle the line-snoop summary of the CPUs in
 * the snoop mask, and every topology's mask covers each CPU that holds
 * the line: the flat bus snoops everyone, the hierarchy and the directory
 * a superset of the presence map (invariants F/G). Over random machine
 * sizes, line states, requests and covering masks, the summary alone must
 * count exactly what a full peek of every node before any snoop counts.
 */
TEST(OracleDifferentialTest, SummaryPlusMaskMatchesFullPeek)
{
    constexpr LineState kStates[] = {
        LineState::Invalid, LineState::Shared, LineState::Exclusive,
        LineState::Owned, LineState::Modified};
    constexpr RequestType kTypes[] = {
        RequestType::Read, RequestType::ReadExclusive, RequestType::Upgrade,
        RequestType::Ifetch, RequestType::Writeback, RequestType::Prefetch,
        RequestType::PrefetchExclusive, RequestType::Dcbz, RequestType::Dcbf,
        RequestType::Dcbi};
    std::mt19937_64 rng(20050609);

    for (unsigned n = 4; n <= 16; ++n) {
        SystemConfig config = makeDefaultConfig();
        config.topology.numCpus = n;
        config.prefetch.enabled = false;
        config.validate();
        EventQueue eq;
        AddressMap map(config.topology);
        std::vector<std::unique_ptr<MemoryController>> mcs;
        std::vector<MemoryController *> mc_ptrs;
        for (unsigned i = 0; i < config.topology.numMemCtrls(); ++i) {
            mcs.push_back(std::make_unique<MemoryController>(
                static_cast<MemCtrlId>(i), eq, config.interconnect));
            mc_ptrs.push_back(mcs.back().get());
        }
        DataNetwork net(n, config.interconnect);
        Bus bus(eq, config.interconnect, map, net, mc_ptrs);
        std::vector<std::unique_ptr<Node>> nodes;
        for (unsigned i = 0; i < n; ++i) {
            nodes.push_back(std::make_unique<Node>(
                static_cast<CpuId>(i), config, eq, bus, net, map, mc_ptrs,
                nullptr));
        }
        Oracle full;
        Oracle folded;
        std::uint64_t narrowed = 0;

        for (int trial = 0; trial < 400; ++trial) {
            const Addr line = 0x40000 + (rng() % 4) * 64;
            for (auto &node : nodes) {
                // Most nodes hold nothing, so masks have room to narrow.
                const LineState s =
                    rng() % 2 ? LineState::Invalid : kStates[rng() % 5];
                node->l2().invalidateLine(line);
                if (s != LineState::Invalid) {
                    Eviction ev;
                    node->l2().fill(line, s, 0, 0, ev);
                }
            }
            SystemRequest r;
            // One request in eight comes from the I/O bridge (cpu n).
            r.cpu = static_cast<CpuId>(rng() % 8 == 0 ? n : rng() % n);
            r.type = kTypes[rng() % 10];
            r.lineAddr = line;

            // The full pre-snoop peek of every other node, and a mask of
            // its holders widened by random non-holders.
            LineSnoopSummary peeked;
            std::uint64_t holders = 0;
            for (auto &node : nodes) {
                const LineState s = l2State(*node, line);
                if (node->cpuId() == r.cpu || !isValid(s))
                    continue;
                peeked.anyCopy = true;
                peeked.anyDirty = peeked.anyDirty || isDirty(s);
                holders |= 1ULL << static_cast<unsigned>(node->cpuId());
            }
            const std::uint64_t all = (1ULL << n) - 1;
            const std::uint64_t mask =
                rng() % 4 == 0 ? ~0ULL : holders | (rng() & all);
            const std::uint64_t others =
                all & ~(1ULL << static_cast<unsigned>(r.cpu));
            if ((mask & others) != others)
                ++narrowed;

            full.observe(r, peeked);
            LineSnoopSummary snooped;
            for (auto &node : nodes) {
                if (node->cpuId() != r.cpu &&
                    snoopMaskHas(mask, node->cpuId()))
                    snooped.fold(node->cpuId(), node->snoopLine(r));
            }
            folded.observe(r, snooped);
        }

        EXPECT_EQ(folded.total(), full.total()) << n << " nodes";
        EXPECT_EQ(folded.unnecessary(), full.unnecessary()) << n << " nodes";
        for (auto cat : {RequestCategory::DataReadWrite,
                         RequestCategory::Ifetch,
                         RequestCategory::Writeback,
                         RequestCategory::DcbOp}) {
            EXPECT_EQ(folded.category(cat).total, full.category(cat).total);
            EXPECT_EQ(folded.category(cat).unnecessary,
                      full.category(cat).unnecessary)
                << n << " nodes";
        }
        // Both outcomes occur and most masks skip someone, so the
        // comparison is not vacuous.
        EXPECT_GT(full.unnecessary(), 0u);
        EXPECT_LT(full.unnecessary(), full.total());
        EXPECT_GT(narrowed, 100u) << n << " nodes";
    }
}

} // namespace
} // namespace cgct
