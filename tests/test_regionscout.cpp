/**
 * @file
 * Tests for the RegionScout comparison tracker: NSRT fills/invalidations,
 * CRH counting and snoop filtering, its imprecision relative to CGCT, and
 * a whole run with RegionScout trackers built through System, that run's
 * snapshot round trip, and the golden digests of a longer such run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "core/regionscout.hpp"
#include "golden.hpp"
#include "sim/simulator.hpp"
#include "sim/system.hpp"
#include "snapshot/journal.hpp"
#include "snapshot/serializer.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"

namespace cgct {
namespace {

RegionScoutParams
smallParams()
{
    RegionScoutParams p;
    p.regionBytes = 512;
    p.nsrtSets = 4;
    p.nsrtWays = 2;
    p.crhEntries = 64;
    return p;
}

SnoopResponse
response(bool clean, bool dirty)
{
    SnoopResponse r;
    r.region.clean = clean;
    r.region.dirty = dirty;
    r.memCtrl = 0;
    return r;
}

class RegionScoutTest : public ::testing::Test
{
  protected:
    RegionScoutTest() : rs(0, smallParams(), 64) {}
    RegionScout rs;
};

TEST_F(RegionScoutTest, UnknownRegionBroadcasts)
{
    EXPECT_EQ(rs.route(RequestType::Read, 0x1000, 1).kind,
              RouteKind::Broadcast);
}

TEST_F(RegionScoutTest, NotSharedResponseFillsNsrt)
{
    rs.onBroadcastResponse(RequestType::Read, 0x1000, true,
                           response(false, false), 1);
    EXPECT_EQ(rs.stats().nsrtFills, 1u);
    const RouteDecision d = rs.route(RequestType::Read, 0x1040, 2);
    EXPECT_EQ(d.kind, RouteKind::Direct);
    // RegionScout has no memory-controller index.
    EXPECT_EQ(d.memCtrl, kInvalidMemCtrl);
}

TEST_F(RegionScoutTest, MayHoldLinesAlwaysAnswersYes)
{
    // RegionScout keeps no exact per-region line count to prove a region
    // empty, so a snoop never skips its tag lookup.
    EXPECT_TRUE(rs.mayHoldLines(0x1000));
    rs.onBroadcastResponse(RequestType::Read, 0x1000, true,
                           response(false, false), 1);
    EXPECT_TRUE(rs.mayHoldLines(0x1000));
    rs.onLineFill(0x1040);
    EXPECT_TRUE(rs.mayHoldLines(0x1000));
    rs.onLineEvict(0x1040);
    EXPECT_TRUE(rs.mayHoldLines(0x1000));
    EXPECT_TRUE(rs.mayHoldLines(0x9000));
}

TEST_F(RegionScoutTest, SharedResponseDoesNotFill)
{
    rs.onBroadcastResponse(RequestType::Read, 0x1000, false,
                           response(true, false), 1);
    EXPECT_EQ(rs.route(RequestType::Read, 0x1000, 2).kind,
              RouteKind::Broadcast);
}

TEST_F(RegionScoutTest, WritebacksAlwaysBroadcast)
{
    rs.onBroadcastResponse(RequestType::Read, 0x1000, true,
                           response(false, false), 1);
    // Unlike CGCT, write-backs cannot go direct (no controller index).
    EXPECT_EQ(rs.route(RequestType::Writeback, 0x1000, 2).kind,
              RouteKind::Broadcast);
}

TEST_F(RegionScoutTest, UpgradesCompleteLocallyOnNsrtHit)
{
    rs.onBroadcastResponse(RequestType::Read, 0x1000, true,
                           response(false, false), 1);
    EXPECT_EQ(rs.route(RequestType::Upgrade, 0x1000, 2).kind,
              RouteKind::LocalComplete);
    EXPECT_EQ(rs.route(RequestType::Dcbz, 0x1000, 3).kind,
              RouteKind::LocalComplete);
}

TEST_F(RegionScoutTest, ExternalActivityInvalidatesNsrt)
{
    rs.onBroadcastResponse(RequestType::Read, 0x1000, true,
                           response(false, false), 1);
    rs.externalSnoop(0x1040, false, 0);
    EXPECT_EQ(rs.stats().nsrtInvalidations, 1u);
    EXPECT_EQ(rs.route(RequestType::Read, 0x1000, 2).kind,
              RouteKind::Broadcast);
}

TEST_F(RegionScoutTest, CrhFiltersSnoopsForUncachedRegions)
{
    const RegionSnoopBits bits = rs.externalSnoop(0x5000, false, 0);
    EXPECT_TRUE(bits.none());
    EXPECT_EQ(rs.stats().crhFilteredSnoops, 1u);
}

TEST_F(RegionScoutTest, CrhReportsCachedRegionsConservatively)
{
    rs.onLineFill(0x5000);
    const RegionSnoopBits bits = rs.externalSnoop(0x5000, false, 0);
    // Imprecise: reported as possibly dirty.
    EXPECT_TRUE(bits.dirty);
    rs.onLineEvict(0x5000);
    EXPECT_TRUE(rs.externalSnoop(0x5000, false, 0).none());
}

TEST_F(RegionScoutTest, CrhCountsMultipleLines)
{
    rs.onLineFill(0x5000);
    rs.onLineFill(0x5040);
    rs.onLineEvict(0x5000);
    // One line still cached: still reports.
    EXPECT_TRUE(rs.externalSnoop(0x5000, false, 0).dirty);
}

TEST_F(RegionScoutTest, NsrtReplacementEvictsLru)
{
    // Fill one NSRT set (4 sets, stride = 4 * 512 = 2 KB) past capacity.
    rs.onBroadcastResponse(RequestType::Read, 0x0000, true,
                           response(false, false), 1);
    rs.onBroadcastResponse(RequestType::Read, 0x2000, true,
                           response(false, false), 2);
    rs.onBroadcastResponse(RequestType::Read, 0x4000, true,
                           response(false, false), 3);
    // The oldest (0x0000) was displaced.
    EXPECT_EQ(rs.route(RequestType::Read, 0x0000, 4).kind,
              RouteKind::Broadcast);
    EXPECT_EQ(rs.route(RequestType::Read, 0x2000, 5).kind,
              RouteKind::Direct);
    EXPECT_EQ(rs.route(RequestType::Read, 0x4000, 6).kind,
              RouteKind::Direct);
}

TEST_F(RegionScoutTest, PeekStateMapsNsrtToExclusive)
{
    EXPECT_EQ(rs.peekState(0x1000), RegionState::Invalid);
    rs.onBroadcastResponse(RequestType::Read, 0x1000, true,
                           response(false, false), 1);
    EXPECT_EQ(rs.peekState(0x1000), RegionState::DirtyInvalid);
}

TEST(RegionScoutSystem, TrackersBuiltThroughSystemRouteRequests)
{
    // cgct_paper's A4 cells: RegionScout trackers handed to System on the
    // baseline configuration.
    const SystemConfig config = makeDefaultConfig();
    SyntheticWorkload workload(benchmarkByName("tpc-w"),
                               config.topology.numCpus, 5000, 20050609);
    System sys(config, workload, [&config](CpuId cpu) {
        return std::make_shared<RegionScout>(cpu, RegionScoutParams{},
                                             config.l2.lineBytes);
    });
    ASSERT_NE(dynamic_cast<RegionScout *>(sys.node(0).tracker()), nullptr);
    EXPECT_EQ(runPhase(sys, /*resume=*/false, RunOptions{}.maxEvents), 0u);
    EXPECT_TRUE(sys.allCoresFinished());

    const RunResult r = collectRunResult(sys, "tpc-w", 20050609, 0);
    EXPECT_GT(r.requestsTotal, 0u);
    EXPECT_EQ(r.broadcasts + r.directs + r.locals, r.requestsTotal);
    EXPECT_GT(r.directs, 0u);
}

TEST(RegionScoutSystem, SnapshotRoundTripIsByteIdentical)
{
    // No checkpoint pin runs RegionScout: save a drained system, restore
    // it into a fresh one and save again; the two must be the same bytes.
    SystemConfig config = makeDefaultConfig();
    config.topology.numCpus = 4;
    const auto scout = [&config](CpuId cpu) {
        return std::make_shared<RegionScout>(cpu, RegionScoutParams{},
                                             config.l2.lineBytes);
    };
    const WorkloadProfile &profile = benchmarkByName("tpc-w");

    SyntheticWorkload ran(profile, 4, 5000, 20050609);
    System first(config, ran, scout);
    ASSERT_EQ(runPhase(first, /*resume=*/false, RunOptions{}.maxEvents), 0u);
    Serializer saved;
    first.serializeState(saved);

    Deserializer d;
    ASSERT_EQ(d.openBytes(makeSnapshotFile(0, saved), "regionscout"), "");
    SyntheticWorkload fresh(profile, 4, 5000, 20050609);
    System second(config, fresh, scout);
    second.restoreState(d);
    Serializer again;
    second.serializeState(again);

    EXPECT_GT(saved.size(), 0u);
    EXPECT_EQ(again.buffer(), saved.buffer());
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

TEST(RegionScoutPin, Tpcw4)
{
    // cgct_paper's A4 cell shape: a whole 4-node tpc-w run (no warmup)
    // with RegionScout trackers on the baseline configuration.
    const SystemConfig config = makeDefaultConfig();
    SyntheticWorkload workload(benchmarkByName("tpc-w"),
                               config.topology.numCpus, 40000, 20050609);
    System sys(config, workload, [&config](CpuId cpu) {
        return std::make_shared<RegionScout>(cpu, RegionScoutParams{},
                                             config.l2.lineBytes);
    });
    ASSERT_EQ(runPhase(sys, /*resume=*/false, RunOptions{}.maxEvents), 0u);

    Serializer s;
    encodeRunResult(s, collectRunResult(sys, "tpc-w", 20050609, 0));
    const std::uint64_t result = fnv1a(
        std::string(s.buffer().begin(), s.buffer().end()));
    std::ostringstream stats;
    sys.dumpStats(stats);
    const std::uint64_t text = fnv1a(stats.str());
    std::printf("regionscout tpc-w digests: result %016llx, dumpStats "
                "%016llx\n",
                static_cast<unsigned long long>(result),
                static_cast<unsigned long long>(text));
    EXPECT_NE(stats.str().find("regionscout.nsrt_hits"), std::string::npos);
    EXPECT_EQ(result, golden::kRegionScoutTpcw4StatsFnv);
    EXPECT_EQ(text, golden::kRegionScoutTpcw4DumpStatsFnv);
}

TEST(RegionScoutDeath, CrhUnderflowPanics)
{
    RegionScoutParams p;
    p.crhEntries = 64;
    RegionScout rs(0, p, 64);
    EXPECT_DEATH(rs.onLineEvict(0x5000), "underflow");
}

} // namespace
} // namespace cgct
