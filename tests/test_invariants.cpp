/**
 * @file
 * Tests for the region invariant checker: clean runs pass, and injected
 * corruption of the RCA — a wrong line count, a dropped entry, a stale
 * exclusive state — is detected and reported. The corruption tests are
 * the proof that the checker *can* fail: a validator that passes on
 * every input validates nothing.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "core/cgct_controller.hpp"
#include "sim/invariants.hpp"
#include "sim/system.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"

namespace cgct {
namespace {

SystemConfig
checkedConfig()
{
    SystemConfig c = makeDefaultConfig();
    // Small caches so regions accumulate cached lines quickly.
    c.l1i = CacheParams{4 * 1024, 2, 64, 1};
    c.l1d = CacheParams{8 * 1024, 2, 64, 1};
    c.l2 = CacheParams{64 * 1024, 2, 64, 12};
    c = c.withCgct(512, 256, 2);
    c.obs.checkInvariants = true;
    c.validate();
    return c;
}

/** Runs a short workload to completion on a checked system. */
class InvariantFixture : public ::testing::Test
{
  protected:
    void
    run(const char *bench = "tpc-w")
    {
        config_ = checkedConfig();
        workload_ = std::make_unique<SyntheticWorkload>(
            benchmarkByName(bench), config_.topology.numCpus, 6000, 4242);
        sys_ = std::make_unique<System>(config_, *workload_);
        sys_->start();
        sys_->eq().run();
        ASSERT_TRUE(sys_->allCoresFinished());
        checker_ = sys_->invariantChecker();
        ASSERT_NE(checker_, nullptr);
    }

    CgctController &
    controller(unsigned cpu)
    {
        auto *ctrl =
            dynamic_cast<CgctController *>(sys_->node(cpu).tracker());
        EXPECT_NE(ctrl, nullptr);
        return *ctrl;
    }

    /** Region address of some valid entry, preferring lineCount > 0. */
    Addr
    populatedRegion(CgctController &ctrl)
    {
        Addr best = 0;
        bool found = false;
        ctrl.rca().forEachValid([&](const RegionEntry &e) {
            if (!found || e.lineCount > 0) {
                best = e.regionAddr;
                found = found || e.lineCount > 0;
            }
        });
        EXPECT_TRUE(best != 0 || found) << "RCA ended up empty";
        return best;
    }

    SystemConfig config_;
    std::unique_ptr<SyntheticWorkload> workload_;
    std::unique_ptr<System> sys_;
    InvariantChecker *checker_ = nullptr;
};

TEST_F(InvariantFixture, CleanRunPasses)
{
    run();
    EXPECT_EQ(checker_->checkAll(), "");
    // The per-transition hook ran throughout the simulation.
    EXPECT_GT(checker_->checksRun(), 0u);
}

TEST_F(InvariantFixture, DetectsWrongLineCount)
{
    run();
    CgctController &ctrl = controller(0);
    const Addr region = populatedRegion(ctrl);
    RegionEntry *entry = ctrl.rca().find(region);
    ASSERT_NE(entry, nullptr);
    entry->lineCount += 3;

    const std::string err = checker_->checkRegion(region);
    EXPECT_NE(err.find("line count"), std::string::npos) << err;
}

TEST_F(InvariantFixture, DetectsDroppedEntry)
{
    run();
    CgctController &ctrl = controller(0);

    // Find a region whose lines are actually cached, then drop its RCA
    // entry: RCA/L2 inclusion (invariant E) is now broken.
    Addr region = 0;
    ctrl.rca().forEachValid([&](const RegionEntry &e) {
        if (region == 0 && e.lineCount > 0)
            region = e.regionAddr;
    });
    ASSERT_NE(region, 0u) << "no region with cached lines after the run";
    ctrl.rca().invalidate(region);

    const std::string err = checker_->checkRegion(region);
    EXPECT_NE(err.find("no RCA entry"), std::string::npos) << err;
}

TEST_F(InvariantFixture, DetectsStaleExclusiveState)
{
    run();
    CgctController &c0 = controller(0);

    // Find a region cpu0 tracks while some other node caches its lines,
    // then corrupt cpu0's entry to claim exclusivity (invariant A).
    Addr region = 0;
    for (unsigned other = 1; other < sys_->numCpus() && region == 0;
         ++other) {
        CgctController &co = controller(other);
        co.rca().forEachValid([&](const RegionEntry &e) {
            if (region == 0 && e.lineCount > 0 &&
                std::as_const(c0.rca()).find(e.regionAddr) != nullptr)
                region = e.regionAddr;
        });
    }
    if (region == 0)
        GTEST_SKIP() << "no cross-cached region in this run";

    RegionEntry *entry = c0.rca().find(region);
    ASSERT_NE(entry, nullptr);
    entry->state = RegionState::DirtyInvalid;
    entry->lineCount = 0;

    const std::string err = checker_->checkRegion(region);
    EXPECT_NE(err, "");
}

TEST_F(InvariantFixture, DetectsL1LineMissingFromL2)
{
    run();
    // Drop one of cpu0's L1 data lines from its L2 only: L1 inclusion is
    // now broken, which checkAll reports before any region invariant.
    Node &node = sys_->node(0);
    Addr line = 0;
    bool found = false;
    node.l1d().array().forEachValid([&](const CacheLine &l) {
        if (!found) {
            line = l.lineAddr;
            found = true;
        }
    });
    ASSERT_TRUE(found) << "cpu0's L1 data cache ended up empty";
    ASSERT_EQ(checker_->checkAll(), "");
    node.l2().invalidateLine(line);

    const std::string err = checker_->checkAll();
    EXPECT_NE(err.find("cpu0 l1d holds line"), std::string::npos) << err;
    EXPECT_NE(err.find("not in its L2"), std::string::npos) << err;
}

TEST_F(InvariantFixture, TransitionHookDiesOnCorruption)
{
    run();
    CgctController &ctrl = controller(0);
    const Addr region = populatedRegion(ctrl);
    RegionEntry *entry = ctrl.rca().find(region);
    ASSERT_NE(entry, nullptr);
    entry->lineCount += 1;

    EXPECT_DEATH(checker_->onTransition(region, "test_injection"),
                 "invariant");
}

} // namespace
} // namespace cgct
