/**
 * @file
 * Tests for the interconnect topology subsystem (docs/TOPOLOGY.md):
 * address-map distance classes under the 16- and 64-node maps, the
 * TopologyKind parser, the two-level snoop hierarchy's escape filter,
 * the full-map directory baseline, the topology CSV columns, the golden
 * 16-node traffic pins, and the invariant checker's presence/sharer
 * cross-validation (including injected corruption — a validator that
 * passes on every input validates nothing).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/cgct_controller.hpp"
#include "golden.hpp"
#include "interconnect/bus.hpp"
#include "interconnect/directory.hpp"
#include "interconnect/topology.hpp"
#include "mem/address_map.hpp"
#include "sim/invariants.hpp"
#include "sim/sweep.hpp"
#include "sim/system.hpp"
#include "snapshot/result_codec.hpp"
#include "snapshot/serializer.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"

namespace cgct {
namespace {

TopologyParams
nodesOf(unsigned n)
{
    TopologyParams t;
    t.numCpus = n;
    return t;
}

SystemConfig
topoConfig(unsigned nodes, TopologyKind kind, bool cgct_on = true)
{
    SystemConfig c = makeDefaultConfig();
    c.topology.numCpus = nodes;
    c.interconnect.topology = kind;
    if (cgct_on)
        c = c.withCgct(512, 256, 2);
    c.validate();
    return c;
}

RunOptions
smallRun()
{
    RunOptions opts;
    opts.opsPerCpu = 6000;
    opts.warmupOps = 1200;
    opts.seed = 7;
    return opts;
}

std::vector<std::uint8_t>
encoded(const RunResult &r)
{
    Serializer s;
    encodeRunResult(s, r);
    return {s.buffer().data(), s.buffer().data() + s.size()};
}

// ---------------------------------------------------------------------
// TopologyKind names and validation.

TEST(TopologyKind_, NameParseRoundTrip)
{
    for (TopologyKind k : {TopologyKind::Bus, TopologyKind::Hier,
                           TopologyKind::Dir}) {
        TopologyKind out = TopologyKind::Bus;
        EXPECT_TRUE(parseTopologyKind(topologyKindName(k), &out));
        EXPECT_EQ(out, k);
    }
    TopologyKind out;
    EXPECT_FALSE(parseTopologyKind("mesh", &out));
    EXPECT_FALSE(parseTopologyKind("", &out));
    EXPECT_STREQ(topologyKindName(TopologyKind::Hier), "hier");
    EXPECT_STREQ(topologyKindName(TopologyKind::Dir), "dir");
}

TEST(TopologyKind_, FilteredTopologiesRejectMoreThan64Cpus)
{
    SystemConfig c = makeDefaultConfig();
    c.topology.numCpus = 128;
    c.interconnect.topology = TopologyKind::Hier;
    EXPECT_DEATH(c.validate(), "64");
}

// ---------------------------------------------------------------------
// Address-map distance classes under the 16- and 64-node maps
// (cpusPerChip = 2, chipsPerSwitch = 2, switchesPerBoard = 2).

TEST(AddressMap16, DistanceClassesFromCpu0)
{
    const TopologyParams t = nodesOf(16);
    ASSERT_EQ(t.numChips(), 8u);
    // cpu0 lives on chip 0 (switch 0, board 0).
    EXPECT_EQ(t.distanceCpuToChip(0, 0), Distance::OwnChip);
    EXPECT_EQ(t.distanceCpuToChip(0, 1), Distance::SameSwitch);
    EXPECT_EQ(t.distanceCpuToChip(0, 2), Distance::SameBoard);
    EXPECT_EQ(t.distanceCpuToChip(0, 3), Distance::SameBoard);
    for (unsigned chip = 4; chip < 8; ++chip)
        EXPECT_EQ(t.distanceCpuToChip(0, chip), Distance::Remote)
            << "chip " << chip;
}

TEST(AddressMap16, ChipOfCpuRoundTripsWithDomainBoundaries)
{
    const TopologyParams t = nodesOf(16);
    for (CpuId cpu = 0; cpu < 16; ++cpu) {
        const unsigned chip = t.chipOfCpu(cpu);
        EXPECT_LT(chip, t.numChips());
        // Both siblings of one chip see every controller at the same
        // distance class (they share the chip's position).
        EXPECT_EQ(t.distanceCpuToChip(cpu, chip), Distance::OwnChip);
        const CpuId sibling = static_cast<CpuId>(cpu ^ 1);
        EXPECT_EQ(t.chipOfCpu(sibling), chip);
        for (unsigned c = 0; c < t.numChips(); ++c)
            EXPECT_EQ(t.distanceCpuToChip(cpu, c),
                      t.distanceCpuToChip(sibling, c));
    }
}

TEST(AddressMap64, DistanceClassHierarchyIsComplete)
{
    const TopologyParams t = nodesOf(64);
    ASSERT_EQ(t.numChips(), 32u);
    // cpu 32 lives on chip 16 (switch 8, board 4).
    EXPECT_EQ(t.chipOfCpu(32), 16u);
    EXPECT_EQ(t.distanceCpuToChip(32, 16), Distance::OwnChip);
    EXPECT_EQ(t.distanceCpuToChip(32, 17), Distance::SameSwitch);
    EXPECT_EQ(t.distanceCpuToChip(32, 18), Distance::SameBoard);
    EXPECT_EQ(t.distanceCpuToChip(32, 19), Distance::SameBoard);
    EXPECT_EQ(t.distanceCpuToChip(32, 15), Distance::Remote);
    EXPECT_EQ(t.distanceCpuToChip(32, 20), Distance::Remote);
    // Every class is populated somewhere in the 64-node map.
    unsigned seen[4] = {};
    for (unsigned chip = 0; chip < 32; ++chip)
        ++seen[static_cast<unsigned>(t.distanceCpuToChip(0, chip))];
    EXPECT_EQ(seen[0], 1u);   // own chip
    EXPECT_EQ(seen[1], 1u);   // same switch
    EXPECT_EQ(seen[2], 2u);   // same board
    EXPECT_EQ(seen[3], 28u);  // remote
}

TEST(AddressMap64, InterleaveBoundariesAndControllerRoundTrip)
{
    const TopologyParams t = nodesOf(64);
    const AddressMap map(t);
    ASSERT_EQ(map.numControllers(), 32u);
    // Interleave granularity: a block maps to one controller up to the
    // last byte, then the next block moves to the next controller.
    EXPECT_EQ(map.controllerOf(0), map.controllerOf(4095));
    EXPECT_EQ(static_cast<unsigned>(map.controllerOf(4096)),
              (static_cast<unsigned>(map.controllerOf(0)) + 1) % 32);
    // Wrap-around after numMemCtrls blocks.
    EXPECT_EQ(map.controllerOf(0),
              map.controllerOf(32ULL * 4096));
    for (Addr a : {Addr(0), Addr(4095), Addr(4096), Addr(0x12345678),
                   Addr(32ULL * 4096 - 1)}) {
        const MemCtrlId mc = map.controllerOf(a);
        EXPECT_LT(static_cast<unsigned>(mc), map.numControllers());
        // distance() must agree with the two-step lookup.
        for (CpuId cpu : {CpuId(0), CpuId(31), CpuId(63)})
            EXPECT_EQ(map.distance(cpu, a), map.distanceToCtrl(cpu, mc));
    }
}

// ---------------------------------------------------------------------
// Behavior of the three organizations.

TEST(Topology, BusReportsEveryBroadcastAsInterChip)
{
    const SystemConfig c = topoConfig(16, TopologyKind::Bus);
    const RunResult r =
        simulateOnce(c, benchmarkByName("tpc-w"), smallRun());
    EXPECT_EQ(r.topology, "bus");
    EXPECT_EQ(r.nodes, 16u);
    EXPECT_EQ(r.localResolves, 0u);
    EXPECT_GT(r.interChipBroadcasts, 0u);
}

TEST(Topology, HierFilterKeepsRequestsOnChipAndCutsInterChip)
{
    const SystemConfig hier = topoConfig(16, TopologyKind::Hier);
    const RunResult rh =
        simulateOnce(hier, benchmarkByName("tpc-w"), smallRun());
    EXPECT_EQ(rh.topology, "hier");
    EXPECT_GT(rh.localResolves, 0u);
    EXPECT_GT(rh.interChipBroadcasts, 0u);

    // Plain 16-node snooping broadcasts everything inter-chip; the
    // hierarchy + CGCT must cut that (the scaling headline).
    const SystemConfig snoop = topoConfig(16, TopologyKind::Bus, false);
    const RunResult rs =
        simulateOnce(snoop, benchmarkByName("tpc-w"), smallRun());
    EXPECT_LT(rh.interChipBroadcasts, rs.interChipBroadcasts / 2);
}

TEST(Topology, DirSnoopsOnlyTrackedSharers)
{
    const SystemConfig c = topoConfig(16, TopologyKind::Dir);
    const RunResult r =
        simulateOnce(c, benchmarkByName("tpc-w"), smallRun());
    EXPECT_EQ(r.topology, "dir");
    EXPECT_GT(r.localResolves, 0u);
    // The directory never broadcasts: its inter-chip snoops are bounded
    // by what a flat 16-node broadcast network would have sent.
    const SystemConfig snoop = topoConfig(16, TopologyKind::Bus, false);
    const RunResult rs =
        simulateOnce(snoop, benchmarkByName("tpc-w"), smallRun());
    EXPECT_LT(r.interChipBroadcasts, rs.interChipBroadcasts);
}

TEST(Topology, SixtyFourNodesRunToCompletion)
{
    RunOptions opts;
    opts.opsPerCpu = 1500;
    opts.warmupOps = 300;
    opts.seed = 7;
    for (TopologyKind k : {TopologyKind::Hier, TopologyKind::Dir}) {
        const SystemConfig c = topoConfig(64, k);
        const RunResult r =
            simulateOnce(c, benchmarkByName("ocean"), opts);
        EXPECT_EQ(r.nodes, 64u);
        EXPECT_GT(r.requestsTotal, 0u);
        EXPECT_GT(r.localResolves + r.interChipBroadcasts, 0u);
    }
}

// ---------------------------------------------------------------------
// CSV topology columns.

TEST(Topology, CsvTopologyColumnsAppendAfterHistoricalFormat)
{
    std::ostringstream base, topo;
    writeSweepCsvHeader(base, false, false);
    writeSweepCsvHeader(topo, false, true);
    // The historical 16-column header is a strict prefix.
    const std::string b = base.str(), t = topo.str();
    EXPECT_EQ(t.rfind(b.substr(0, b.size() - 1), 0), 0u);
    EXPECT_NE(t.find(",topology,nodes,local_resolves,"
                     "interchip_broadcasts"),
              std::string::npos);

    RunResult r;
    r.workload = "tpc-w";
    r.topology = "hier";
    r.nodes = 16;
    r.localResolves = 10;
    r.interChipBroadcasts = 3;
    std::ostringstream row;
    writeSweepCsvRow(row, r, false, true);
    EXPECT_NE(row.str().find(",hier,16,10,3"), std::string::npos);
}

// ---------------------------------------------------------------------
// Golden 16-node tpc-w pins (tests/golden.hpp): the traffic split of the
// flat bus, the hierarchy and the directory at 40000 ops per CPU.

constexpr std::uint64_t kPinOps = 40000;

std::uint64_t
fnv1a(const std::uint8_t *p, std::size_t n)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

/** 16 CPUs of the default machine; CGCT with 512 B regions unless bus. */
SystemConfig
pinConfig(TopologyKind kind)
{
    SystemConfig c = makeDefaultConfig();
    c.topology.numCpus = 16;
    if (kind != TopologyKind::Bus)
        c = c.withCgct(512);
    c.interconnect.topology = kind;
    c.validate();
    return c;
}

RunResult
pinRun(const SystemConfig &config, const char *bench = "tpc-w")
{
    RunOptions opts;
    opts.opsPerCpu = kPinOps;
    opts.warmupOps = kPinOps / 5;
    opts.seed = 20050609;
    return simulateOnce(config, benchmarkByName(bench), opts);
}

RunResult
pinRun(TopologyKind kind)
{
    return pinRun(pinConfig(kind));
}

std::uint64_t
statsDigest(const RunResult &r)
{
    const std::vector<std::uint8_t> bytes = encoded(r);
    return fnv1a(bytes.data(), bytes.size());
}

TEST(TopologyPin, Hier16TpcwStatsDigest)
{
    const std::uint64_t digest = statsDigest(pinRun(TopologyKind::Hier));
    std::printf("hier16 tpc-w stats digest: %016llx\n",
                static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, golden::kHier16TpcwStatsFnv);
    EXPECT_EQ(statsDigest(pinRun(TopologyKind::Hier)), digest)
        << "a repeated run must reproduce the digest";
}

// tpc-h's migratory merge phase makes the most broadcasts per op, so it
// is the cell that leans hardest on the oracle and on the snoop fan-out.
TEST(TopologyPin, Hier16TpchStatsDigest)
{
    const std::uint64_t digest =
        statsDigest(pinRun(pinConfig(TopologyKind::Hier), "tpc-h"));
    std::printf("hier16 tpc-h stats digest: %016llx\n",
                static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, golden::kHier16TpchStatsFnv);
}

TEST(TopologyPin, Dir16TpchStatsDigest)
{
    const std::uint64_t digest =
        statsDigest(pinRun(pinConfig(TopologyKind::Dir), "tpc-h"));
    std::printf("dir16 tpc-h stats digest: %016llx\n",
                static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, golden::kDir16TpchStatsFnv);
}

TEST(TopologyPin, Hier16SharedRcaTpcwStatsDigest)
{
    SystemConfig c = pinConfig(TopologyKind::Hier);
    c.cgct.sharedPerChip = true;
    c.validate();
    const std::uint64_t digest = statsDigest(pinRun(c));
    std::printf("hier16 shared-RCA tpc-w stats digest: %016llx\n",
                static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, golden::kHier16SharedRcaTpcwStatsFnv);
}

TEST(TopologyPin, Hier16TpcwSweepCsvDigest)
{
    SweepSpec spec;
    spec.profiles = {&benchmarkByName("tpc-w")};
    spec.regionSizes = {0, 512};
    spec.seedsPerCell = 1;
    spec.opts.opsPerCpu = kPinOps / 8;
    spec.opts.warmupOps = kPinOps / 40;
    spec.baseConfig = pinConfig(TopologyKind::Bus);
    spec.baseConfig.interconnect.topology = TopologyKind::Hier;
    const auto csvAt = [&spec](unsigned jobs) {
        std::ostringstream os;
        writeSweepCsvHeader(os, /*sampled=*/false, /*topo=*/true);
        SweepRunner runner(spec, jobs);
        runner.run([&os](const SweepCell &, const RunResult &r) {
            writeSweepCsvRow(os, r, /*sampled=*/false, /*topo=*/true);
        });
        return os.str();
    };
    const std::string csv = csvAt(1);
    const std::uint64_t digest =
        fnv1a(reinterpret_cast<const std::uint8_t *>(csv.data()),
              csv.size());
    std::printf("hier16 tpc-w sweep CSV digest: %016llx\n",
                static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, golden::kHier16TpcwSweepCsvFnv);
    EXPECT_EQ(csvAt(4), csv) << "--jobs 4 must emit the --jobs 1 bytes";
}

TEST(TopologyPin, Hier16TpcwTrafficRatios)
{
    const RunResult bus = pinRun(TopologyKind::Bus);
    const RunResult hier = pinRun(TopologyKind::Hier);
    const RunResult dir = pinRun(TopologyKind::Dir);

    // The flat bus has no local tier: every grant snoops every chip.
    EXPECT_EQ(bus.localResolves, 0u);
    EXPECT_EQ(bus.interChipBroadcasts, 271902u);
    EXPECT_EQ(hier.localResolves, 36090u);
    EXPECT_EQ(hier.interChipBroadcasts, 31500u);
    EXPECT_EQ(dir.localResolves, 36169u);
    EXPECT_EQ(dir.interChipBroadcasts, 31689u);

    const auto bypass = [](const RunResult &r) {
        return static_cast<double>(r.localResolves) /
               static_cast<double>(r.localResolves + r.interChipBroadcasts);
    };
    const auto reduction = [&bus](const RunResult &r) {
        return 1.0 - static_cast<double>(r.interChipBroadcasts) /
                         static_cast<double>(bus.interChipBroadcasts);
    };
    std::printf("hier16 tpc-w bypass / inter-chip reduction: hier %.4f / "
                "%.4f, dir %.4f / %.4f\n",
                bypass(hier), reduction(hier), bypass(dir), reduction(dir));
    EXPECT_NEAR(bypass(hier), 0.5340, 5e-5);
    EXPECT_NEAR(reduction(hier), 0.8841, 5e-5);
    EXPECT_NEAR(bypass(dir), 0.5330, 5e-5);
    EXPECT_NEAR(reduction(dir), 0.8835, 5e-5);
}

// ---------------------------------------------------------------------
// Golden `--stats` text (tests/golden.hpp): System::dumpStats of the pin
// cells, every component's counters under their registered names and
// descriptions, beyond what a RunResult carries.

/**
 * Run @p config on the pin's tpc-w stream through the harness `cgct_sim
 * --stats` uses, put the RunResult in @p result and @return the
 * FNV-1a-64 of the dumpStats text.
 */
std::uint64_t
dumpStatsDigest(const SystemConfig &config, RunResult &result)
{
    RunOptions opts;
    opts.opsPerCpu = kPinOps;
    opts.warmupOps = kPinOps / 5;
    opts.seed = 20050609;
    std::ostringstream os;
    result = simulateOnce(config, benchmarkByName("tpc-w"), opts, &os);
    const std::string text = os.str();
    const std::uint64_t digest = fnv1a(
        reinterpret_cast<const std::uint8_t *>(text.data()), text.size());
    std::printf("%s %u-node dumpStats digest: %016llx\n",
                topologyKindName(config.interconnect.topology),
                config.topology.numCpus,
                static_cast<unsigned long long>(digest));
    return digest;
}

TEST(StatsTextPin, Hier16Tpcw)
{
    RunResult r;
    EXPECT_EQ(dumpStatsDigest(pinConfig(TopologyKind::Hier), r),
              golden::kHier16TpcwDumpStatsFnv);
    EXPECT_EQ(statsDigest(r), golden::kHier16TpcwStatsFnv)
        << "not the TopologyPin cell";
}

TEST(StatsTextPin, Dir16Tpcw)
{
    RunResult r;
    EXPECT_EQ(dumpStatsDigest(pinConfig(TopologyKind::Dir), r),
              golden::kDir16TpcwDumpStatsFnv);
    EXPECT_EQ(r.localResolves, 36169u) << "not the TopologyPin cell";
    EXPECT_EQ(r.interChipBroadcasts, 31689u);
}

TEST(StatsTextPin, Bus4Tpcw512)
{
    SystemConfig c = makeDefaultConfig().withCgct(512);
    c.validate();
    RunResult r;
    EXPECT_EQ(dumpStatsDigest(c, r), golden::kBus4Tpcw512DumpStatsFnv);
}

// ---------------------------------------------------------------------
// Invariants F/G: presence / sharer coverage, and injected corruption.

class TopologyInvariants : public ::testing::Test
{
  protected:
    void
    run(TopologyKind kind)
    {
        config_ = topoConfig(16, kind);
        // Small caches so regions accumulate cached lines quickly.
        config_.l1i = CacheParams{4 * 1024, 2, 64, 1};
        config_.l1d = CacheParams{8 * 1024, 2, 64, 1};
        config_.l2 = CacheParams{64 * 1024, 2, 64, 12};
        config_.obs.checkInvariants = true;
        config_.validate();
        workload_ = std::make_unique<SyntheticWorkload>(
            benchmarkByName("tpc-w"), config_.topology.numCpus, 4000,
            4242);
        sys_ = std::make_unique<System>(config_, *workload_);
        sys_->start();
        sys_->eq().run();
        ASSERT_TRUE(sys_->allCoresFinished());
        checker_ = sys_->invariantChecker();
        ASSERT_NE(checker_, nullptr);
    }

    /** Region address of a valid RCA entry with cached lines. */
    Addr
    populatedRegion()
    {
        for (unsigned cpu = 0; cpu < sys_->numCpus(); ++cpu) {
            auto *ctrl = dynamic_cast<CgctController *>(
                sys_->node(cpu).tracker());
            if (!ctrl)
                continue;
            Addr region = 0;
            ctrl->rca().forEachValid([&](const RegionEntry &e) {
                if (region == 0 && e.lineCount > 0)
                    region = e.regionAddr;
            });
            if (region != 0)
                return region;
        }
        return 0;
    }

    SystemConfig config_;
    std::unique_ptr<SyntheticWorkload> workload_;
    std::unique_ptr<System> sys_;
    InvariantChecker *checker_ = nullptr;
};

TEST_F(TopologyInvariants, HierCleanRunPasses)
{
    run(TopologyKind::Hier);
    EXPECT_EQ(checker_->checkAll(), "");
    EXPECT_GT(checker_->checksRun(), 0u);
}

TEST_F(TopologyInvariants, DirCleanRunPasses)
{
    run(TopologyKind::Dir);
    EXPECT_EQ(checker_->checkAll(), "");
    EXPECT_GT(checker_->checksRun(), 0u);
}

TEST_F(TopologyInvariants, DetectsCorruptedPresenceMap)
{
    run(TopologyKind::Hier);
    const Addr region = populatedRegion();
    ASSERT_NE(region, 0u) << "no populated region after the run";
    ASSERT_EQ(checker_->checkCoverage(region), "");

    auto *router = dynamic_cast<HierRouter *>(&sys_->bus());
    ASSERT_NE(router, nullptr);
    router->corruptPresenceForTest(region, 0);

    const std::string err = checker_->checkCoverage(region);
    EXPECT_NE(err, "");
    EXPECT_NE(err.find("presence"), std::string::npos) << err;
}

TEST_F(TopologyInvariants, DetectsCorruptedSharerVector)
{
    run(TopologyKind::Dir);
    const Addr region = populatedRegion();
    ASSERT_NE(region, 0u) << "no populated region after the run";
    ASSERT_EQ(checker_->checkCoverage(region), "");

    auto *dir = dynamic_cast<DirectoryInterconnect *>(&sys_->bus());
    ASSERT_NE(dir, nullptr);
    dir->corruptSharersForTest(region, 0);

    const std::string err = checker_->checkCoverage(region);
    EXPECT_NE(err, "");
    EXPECT_NE(err.find("directory"), std::string::npos) << err;
}

} // namespace
} // namespace cgct
