/**
 * @file
 * Coherence fuzzer: random multi-processor operation sequences over a
 * small, conflict-heavy address space, with full invariant checks after
 * every batch — the strongest property test in the suite. Swept over
 * baseline / CGCT / three-state / RegionScout-style configurations and
 * several seeds.
 *
 * Invariants checked after every batch of operations:
 *  1. single-writer: at most one M/E/O copy of any line system-wide, and
 *     an M/E copy coexists with no other valid copy;
 *  2. L1 inclusion and the region invariants, RCA inclusion with exact
 *     line counts among them (InvariantChecker::checkAll);
 *  3. every issued operation eventually completes;
 *  4. request-routing accounting is conserved.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "check_all.hpp"
#include "interconnect/bus.hpp"
#include "common/random.hpp"
#include "sim/node.hpp"

namespace cgct {
namespace {

struct FuzzConfig {
    bool cgct;
    bool threeState;
    std::uint64_t seed;
};

class CoherenceFuzz
    : public ::testing::TestWithParam<std::tuple<bool, bool, int>>
{
  protected:
    CoherenceFuzz()
    {
        const auto [cgct_on, three_state, seed] = GetParam();
        seed_ = static_cast<std::uint64_t>(seed);
        config_ = makeDefaultConfig();
        // Tiny caches and RCA: maximum conflict pressure.
        config_.l1i = CacheParams{512, 2, 64, 1};
        config_.l1d = CacheParams{512, 2, 64, 1};
        config_.l2 = CacheParams{2048, 2, 64, 12};
        config_.core.maxOutstandingMisses = 4;
        config_.prefetch.enabled = true; // Prefetchers fuzz too.
        config_.cgct.enabled = cgct_on;
        config_.cgct.regionBytes = 256;
        config_.cgct.rcaSets = 4;
        config_.cgct.rcaWays = 2;
        config_.cgct.threeStateProtocol = three_state;
        config_.validate();

        map_ = std::make_unique<AddressMap>(config_.topology);
        for (unsigned i = 0; i < config_.topology.numMemCtrls(); ++i) {
            mcs_.push_back(std::make_unique<MemoryController>(
                static_cast<MemCtrlId>(i), eq_));
            mcPtrs_.push_back(mcs_.back().get());
        }
        net_ = std::make_unique<DataNetwork>(config_.topology.numCpus);
        bus_ = std::make_unique<Bus>(eq_, *map_, *net_, mcPtrs_);
        for (unsigned i = 0; i < config_.topology.numCpus; ++i) {
            nodes_.push_back(std::make_unique<Node>(
                static_cast<CpuId>(i), config_, eq_, *bus_, *net_, *map_,
                mcPtrs_,
                makeTracker(static_cast<CpuId>(i), config_.cgct,
                            config_.l2.lineBytes)));
            bus_->addClient(nodes_.back().get());
        }
    }

    /** Pick a conflict-heavy address: 16 regions of 4 lines. */
    Addr
    pickAddr(Rng &rng)
    {
        const Addr region = rng.nextBelow(16);
        const Addr line = rng.nextBelow(4);
        return 0x10000 + region * 256 + line * 64 + rng.nextBelow(8) * 8;
    }

    CpuOpKind
    pickOp(Rng &rng)
    {
        const auto r = rng.nextBelow(100);
        if (r < 40)
            return CpuOpKind::Load;
        if (r < 75)
            return CpuOpKind::Store;
        if (r < 85)
            return CpuOpKind::Ifetch;
        if (r < 93)
            return CpuOpKind::Dcbz;
        if (r < 97)
            return CpuOpKind::Dcbf;
        return CpuOpKind::Dcbi;
    }

    void
    checkGlobalInvariants()
    {
        ASSERT_EQ(checkAll(config_, nodes_), "");

        std::map<Addr, int> owners;
        std::map<Addr, int> valid;
        std::map<Addr, bool> has_exclusive;
        for (auto &n : nodes_) {
            n->l2().array().forEachValid([&](const CacheLine &line) {
                ++valid[line.lineAddr];
                if (isDirty(line.state) ||
                    line.state == LineState::Exclusive)
                    ++owners[line.lineAddr];
                if (isWritable(line.state))
                    has_exclusive[line.lineAddr] = true;
            });
        }
        for (const auto &[addr, count] : owners) {
            ASSERT_LE(count, 1)
                << "multiple owners for line 0x" << std::hex << addr;
        }
        for (const auto &[addr, excl] : has_exclusive) {
            if (excl) {
                ASSERT_EQ(valid[addr], 1)
                    << "M/E copy of 0x" << std::hex << addr
                    << " coexists with other copies";
            }
        }
    }

    std::uint64_t seed_ = 0;
    SystemConfig config_;
    EventQueue eq_;
    std::unique_ptr<AddressMap> map_;
    std::vector<std::unique_ptr<MemoryController>> mcs_;
    std::vector<MemoryController *> mcPtrs_;
    std::unique_ptr<DataNetwork> net_;
    std::unique_ptr<Bus> bus_;
    std::vector<std::unique_ptr<Node>> nodes_;
};

TEST_P(CoherenceFuzz, RandomWalkPreservesInvariants)
{
    Rng rng(seed_ * 7919 + 17);
    int completed = 0;
    int issued = 0;

    for (int batch = 0; batch < 40; ++batch) {
        // Issue a burst of random ops from random processors, letting
        // them overlap arbitrarily.
        const int burst = 1 + static_cast<int>(rng.nextBelow(12));
        for (int i = 0; i < burst; ++i) {
            const unsigned cpu =
                static_cast<unsigned>(rng.nextBelow(nodes_.size()));
            Tick ready = 0;
            ++issued;
            const bool sync = nodes_[cpu]->access(
                pickOp(rng), pickAddr(rng), eq_.now(), ready,
                [&completed](Tick) { ++completed; });
            if (sync)
                ++completed;
        }
        eq_.run();
        checkGlobalInvariants();
        if (HasFatalFailure())
            return;
    }
    EXPECT_EQ(completed, issued);

    // Routing accounting is conserved per node.
    for (auto &n : nodes_) {
        const auto &s = n->stats();
        EXPECT_EQ(s.requestsTotal,
                  s.broadcasts + s.directs + s.localCompletes);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigsAndSeeds, CoherenceFuzz,
    ::testing::Combine(::testing::Values(false, true),
                       ::testing::Values(false, true),
                       ::testing::Range(0, 8)),
    [](const auto &info) {
        std::string name = std::get<0>(info.param) ? "cgct" : "baseline";
        if (std::get<1>(info.param))
            name += "_3state";
        return name + "_seed" + std::to_string(std::get<2>(info.param));
    });

} // namespace
} // namespace cgct
