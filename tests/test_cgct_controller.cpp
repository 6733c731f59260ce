/**
 * @file
 * Tests for the CGCT controller: route decisions against live RCA state,
 * region allocation from broadcast responses, inclusion flushes on region
 * eviction, line-count maintenance, self-invalidation, the silent CI->DI
 * edge, the three-state mode, and the side-effect-free mayHoldLines query
 * the snoop path filters on.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/cgct_controller.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {
namespace {

SnoopResponse
response(bool clean, bool dirty, MemCtrlId mc = 1)
{
    SnoopResponse r;
    r.region.clean = clean;
    r.region.dirty = dirty;
    r.memCtrl = mc;
    return r;
}

CgctParams
smallParams()
{
    CgctParams p;
    p.enabled = true;
    p.regionBytes = 512;
    p.rcaSets = 4;
    p.rcaWays = 2;
    return p;
}

class CgctControllerTest : public ::testing::Test
{
  protected:
    CgctControllerTest() : ctrl(0, smallParams(), 64)
    {
        ctrl.setFlushHandler([this](Addr region, std::uint64_t bytes,
                                    MemCtrlId mc) {
            flushes.push_back({region, bytes, mc});
        });
    }

    struct Flush {
        Addr region;
        std::uint64_t bytes;
        MemCtrlId mc;
    };

    CgctController ctrl;
    std::vector<Flush> flushes;
};

TEST_F(CgctControllerTest, UnknownRegionBroadcasts)
{
    const RouteDecision d = ctrl.route(RequestType::Read, 0x1000, 1);
    EXPECT_EQ(d.kind, RouteKind::Broadcast);
    EXPECT_EQ(ctrl.peekState(0x1000), RegionState::Invalid);
}

TEST_F(CgctControllerTest, BroadcastResponseAllocatesRegion)
{
    ctrl.onBroadcastResponse(RequestType::Read, 0x1000, true,
                             response(false, false, 1), 10);
    EXPECT_EQ(ctrl.peekState(0x1000), RegionState::DirtyInvalid);
    // The whole region is now covered.
    EXPECT_EQ(ctrl.peekState(0x11C0), RegionState::DirtyInvalid);
    // Subsequent reads in the region go directly to controller 1.
    const RouteDecision d = ctrl.route(RequestType::Read, 0x1040, 11);
    EXPECT_EQ(d.kind, RouteKind::Direct);
    EXPECT_EQ(d.memCtrl, 1);
}

TEST_F(CgctControllerTest, SharedResponseYieldsCleanStates)
{
    ctrl.onBroadcastResponse(RequestType::Ifetch, 0x1000, false,
                             response(true, false), 10);
    EXPECT_EQ(ctrl.peekState(0x1000), RegionState::CleanClean);
    // Instruction fetches may go direct; data reads must broadcast.
    EXPECT_EQ(ctrl.route(RequestType::Ifetch, 0x1000, 11).kind,
              RouteKind::Direct);
    EXPECT_EQ(ctrl.route(RequestType::Read, 0x1000, 12).kind,
              RouteKind::Broadcast);
}

TEST_F(CgctControllerTest, WritebackResponseDoesNotAllocate)
{
    ctrl.onBroadcastResponse(RequestType::Writeback, 0x1000, false,
                             response(false, false), 10);
    EXPECT_EQ(ctrl.peekState(0x1000), RegionState::Invalid);
}

TEST_F(CgctControllerTest, WritebackRoutesDirectWithRegionEntry)
{
    ctrl.onBroadcastResponse(RequestType::Read, 0x1000, false,
                             response(false, true, 1), 10);
    // Even an externally dirty region lets write-backs go direct.
    EXPECT_EQ(ctrl.peekState(0x1000), RegionState::CleanDirty);
    const RouteDecision d = ctrl.route(RequestType::Writeback, 0x1000, 11);
    EXPECT_EQ(d.kind, RouteKind::Direct);
    EXPECT_EQ(d.memCtrl, 1);
    // Without an entry: broadcast.
    EXPECT_EQ(ctrl.route(RequestType::Writeback, 0x9000, 12).kind,
              RouteKind::Broadcast);
}

TEST_F(CgctControllerTest, LineCountsTrackFillsAndEvictions)
{
    ctrl.onBroadcastResponse(RequestType::Read, 0x1000, true,
                             response(false, false), 10);
    ctrl.onLineFill(0x1000);
    ctrl.onLineFill(0x1040);
    ctrl.onLineFill(0x1080);
    ctrl.onLineEvict(0x1040);
    const RegionEntry *e = ctrl.rca().find(0x1000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->lineCount, 2u);
}

TEST_F(CgctControllerTest, LineEvictAfterRegionGoneIsTolerated)
{
    // The flush path evicts lines whose region entry was just replaced.
    ctrl.onLineEvict(0x5000);
    SUCCEED();
}

/** The controller's checkpoint bytes: the RCA's frames, MRU way hints,
 *  hit and miss counts and histograms. */
std::vector<std::uint8_t>
checkpointBytes(CgctController &ctrl)
{
    Serializer s;
    Archive ar(s);
    ctrl.transfer(ar, /*mem_ctrls=*/4);
    return s.buffer();
}

TEST_F(CgctControllerTest, MayHoldLinesFollowsEntryAndLineCount)
{
    // Every answer leaves the RCA as it found it: no hit or miss counted,
    // no MRU way hint moved, not one checkpoint byte changed.
    const auto ask = [this](Addr addr) {
        const std::vector<std::uint8_t> before = checkpointBytes(ctrl);
        const std::uint64_t hits = ctrl.rca().stats().hits;
        const std::uint64_t misses = ctrl.rca().stats().misses;
        const bool may = ctrl.mayHoldLines(addr);
        EXPECT_EQ(ctrl.rca().stats().hits, hits);
        EXPECT_EQ(ctrl.rca().stats().misses, misses);
        EXPECT_EQ(checkpointBytes(ctrl), before) << std::hex << addr;
        return may;
    };

    // No entry.
    EXPECT_FALSE(ask(0x1000));
    // An entry with no cached line yet.
    ctrl.onBroadcastResponse(RequestType::Read, 0x1000, true,
                             response(false, false), 10);
    EXPECT_FALSE(ask(0x1000));
    // One cached line covers the whole region, and only that region.
    ctrl.onLineFill(0x1040);
    EXPECT_TRUE(ask(0x1000));
    EXPECT_TRUE(ask(0x11C0));
    EXPECT_FALSE(ask(0x1200));
    // A second region in the same set takes the MRU way hint; asking
    // about the first must not move it back (find() would).
    ctrl.onBroadcastResponse(RequestType::Read, 0x1800, true,
                             response(false, false), 11);
    ctrl.onLineFill(0x1800);
    EXPECT_TRUE(ask(0x1000));
    EXPECT_TRUE(ask(0x1800));
    // Evicted back to zero lines: the entry stays, the answer is no.
    ctrl.onLineEvict(0x1040);
    EXPECT_FALSE(ask(0x1000));
    // Self-invalidated by an external request: no entry again.
    EXPECT_TRUE(ctrl.externalSnoop(0x1000, false, 12).none());
    EXPECT_FALSE(ask(0x1000));
    EXPECT_EQ(ctrl.rca().stats().selfInvalidations, 1u);
    EXPECT_TRUE(ask(0x1800));
}

TEST_F(CgctControllerTest, ExternalSnoopReportsAndDowngrades)
{
    ctrl.onBroadcastResponse(RequestType::ReadExclusive, 0x1000, true,
                             response(false, false), 10);
    ctrl.onLineFill(0x1000);
    // First external (shared) request: we report dirty, downgrade to DC.
    RegionSnoopBits bits = ctrl.externalSnoop(0x1040, false, 0);
    EXPECT_TRUE(bits.dirty);
    EXPECT_FALSE(bits.clean);
    EXPECT_EQ(ctrl.peekState(0x1000), RegionState::DirtyClean);
    // An exclusive external request drops us to DD.
    bits = ctrl.externalSnoop(0x1080, true, 0);
    EXPECT_TRUE(bits.dirty);
    EXPECT_EQ(ctrl.peekState(0x1000), RegionState::DirtyDirty);
}

TEST_F(CgctControllerTest, ExternalSnoopOnUnknownRegionReportsNothing)
{
    const RegionSnoopBits bits = ctrl.externalSnoop(0x7000, true, 0);
    EXPECT_TRUE(bits.none());
}

TEST_F(CgctControllerTest, SelfInvalidationOnEmptyRegion)
{
    ctrl.onBroadcastResponse(RequestType::ReadExclusive, 0x1000, true,
                             response(false, false), 10);
    // No lines cached (count == 0): an external request self-invalidates
    // the region and reports no copies (Section 3.1).
    const RegionSnoopBits bits = ctrl.externalSnoop(0x1000, false, 0);
    EXPECT_TRUE(bits.none());
    EXPECT_EQ(ctrl.peekState(0x1000), RegionState::Invalid);
    EXPECT_EQ(ctrl.rca().stats().selfInvalidations, 1u);
}

TEST_F(CgctControllerTest, SelfInvalidationDisabled)
{
    CgctParams p = smallParams();
    p.selfInvalidation = false;
    CgctController c(0, p, 64);
    c.onBroadcastResponse(RequestType::ReadExclusive, 0x1000, true,
                          response(false, false), 10);
    const RegionSnoopBits bits = c.externalSnoop(0x1000, false, 0);
    EXPECT_TRUE(bits.dirty); // Still reported; no self-invalidation.
    EXPECT_EQ(c.peekState(0x1000), RegionState::DirtyClean);
}

TEST_F(CgctControllerTest, SilentCiToDiOnDirectIssue)
{
    ctrl.onBroadcastResponse(RequestType::Read, 0x1000, false,
                             response(false, false), 10);
    ASSERT_EQ(ctrl.peekState(0x1000), RegionState::CleanInvalid);
    ctrl.onDirectIssue(RequestType::Read, 0x1040,
                       /*line_granted_exclusive=*/true, 11);
    EXPECT_EQ(ctrl.peekState(0x1000), RegionState::DirtyInvalid);
}

TEST_F(CgctControllerTest, LocalCompleteUpgradesCi)
{
    ctrl.onBroadcastResponse(RequestType::Ifetch, 0x1000, false,
                             response(false, false), 10);
    ASSERT_EQ(ctrl.peekState(0x1000), RegionState::CleanInvalid);
    ctrl.onLocalComplete(RequestType::Upgrade, 0x1000, 11);
    EXPECT_EQ(ctrl.peekState(0x1000), RegionState::DirtyInvalid);
}

TEST_F(CgctControllerTest, RegionEvictionTriggersFlush)
{
    // Fill one set (4 sets * 512 B regions: stride 2 KB aliases).
    ctrl.onBroadcastResponse(RequestType::Read, 0x0000, true,
                             response(false, false, 0), 1);
    ctrl.onLineFill(0x0000);
    ctrl.onBroadcastResponse(RequestType::Read, 0x2000, true,
                             response(false, false, 1), 2);
    ctrl.onLineFill(0x2000);
    // Third region in the same set: one of the first two (with lines)
    // must be flushed.
    ctrl.onBroadcastResponse(RequestType::Read, 0x4000, true,
                             response(false, false, 0), 3);
    ASSERT_EQ(flushes.size(), 1u);
    EXPECT_EQ(flushes[0].bytes, 512u);
    EXPECT_EQ(flushes[0].region % 512, 0u);
}

TEST_F(CgctControllerTest, EmptyRegionEvictionSkipsFlush)
{
    ctrl.onBroadcastResponse(RequestType::Read, 0x0000, true,
                             response(false, false), 1);
    ctrl.onBroadcastResponse(RequestType::Read, 0x2000, true,
                             response(false, false), 2);
    // Neither region has cached lines: the eviction needs no flush.
    ctrl.onBroadcastResponse(RequestType::Read, 0x4000, true,
                             response(false, false), 3);
    EXPECT_TRUE(flushes.empty());
}

TEST_F(CgctControllerTest, ThreeStateModeCollapses)
{
    CgctParams p = smallParams();
    p.threeStateProtocol = true;
    CgctController c(0, p, 64);
    // A clean-shared response collapses to "not exclusive" (DD).
    c.onBroadcastResponse(RequestType::Read, 0x1000, false,
                          response(true, false), 10);
    EXPECT_EQ(c.peekState(0x1000), RegionState::DirtyDirty);
    // An all-clear response becomes "exclusive" (DI).
    c.onBroadcastResponse(RequestType::Read, 0x3000, false,
                          response(false, false), 11);
    EXPECT_EQ(c.peekState(0x3000), RegionState::DirtyInvalid);
    // The response bit is a single "cached externally" signal.
    c.onLineFill(0x3000);
    const RegionSnoopBits bits = c.externalSnoop(0x3000, false, 0);
    EXPECT_TRUE(bits.dirty);
    EXPECT_FALSE(bits.clean);
}

TEST_F(CgctControllerTest, RouteTouchesLru)
{
    ctrl.onBroadcastResponse(RequestType::Read, 0x0000, true,
                             response(false, false), 1);
    ctrl.onLineFill(0x0000);
    ctrl.onBroadcastResponse(RequestType::Read, 0x2000, true,
                             response(false, false), 2);
    ctrl.onLineFill(0x2000);
    // Touch the older region so the newer becomes the LRU victim.
    ctrl.route(RequestType::Read, 0x0000, 100);
    ctrl.onBroadcastResponse(RequestType::Read, 0x4000, true,
                             response(false, false), 101);
    ASSERT_EQ(flushes.size(), 1u);
    EXPECT_EQ(flushes[0].region, 0x2000u);
}

TEST_F(CgctControllerTest, MakeTrackerFactory)
{
    CgctParams p = smallParams();
    EXPECT_NE(makeTracker(0, p, 64), nullptr);
    p.enabled = false;
    EXPECT_EQ(makeTracker(0, p, 64), nullptr);
}

TEST(CgctControllerDeath, DirectIssueWithoutEntryPanics)
{
    CgctParams p;
    p.enabled = true;
    p.regionBytes = 512;
    p.rcaSets = 4;
    p.rcaWays = 2;
    CgctController c(0, p, 64);
    EXPECT_DEATH(c.onDirectIssue(RequestType::Read, 0x1000, true, 1),
                 "without a region entry");
}

TEST(CgctControllerDeath, LineFillWithoutEntryPanics)
{
    CgctParams p;
    p.enabled = true;
    p.regionBytes = 512;
    p.rcaSets = 4;
    p.rcaWays = 2;
    CgctController c(0, p, 64);
    EXPECT_DEATH(c.onLineFill(0x1000), "line fill without");
}

} // namespace
} // namespace cgct
