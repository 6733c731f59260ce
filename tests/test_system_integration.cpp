/**
 * @file
 * Whole-system property tests: run real workloads through complete
 * four-processor systems (baseline and every paper region size) and check
 * global invariants afterwards — single-writer coherence, L1/L2 and
 * RCA/L2 inclusion, exact per-region line counts, and routing safety.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <tuple>

#include "check_all.hpp"
#include "sim/system.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"

namespace cgct {
namespace {

/** Runs one system to completion and verifies every invariant. */
class SystemSweep
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::uint64_t>>
{
  protected:
    static SystemConfig
    configFor(std::uint64_t region_bytes)
    {
        SystemConfig c = makeDefaultConfig();
        // Shrink caches so evictions and RCA pressure actually happen in
        // a short run.
        c.l1i = CacheParams{4 * 1024, 2, 64, 1};
        c.l1d = CacheParams{8 * 1024, 2, 64, 1};
        c.l2 = CacheParams{64 * 1024, 2, 64, 12};
        if (region_bytes > 0) {
            c.cgct.enabled = true;
            c.cgct.regionBytes = region_bytes;
            c.cgct.rcaSets = 256;
            c.cgct.rcaWays = 2;
        }
        c.validate();
        return c;
    }
};

TEST_P(SystemSweep, InvariantsHoldAfterRealWorkload)
{
    const auto &[bench, region_bytes] = GetParam();
    const SystemConfig config = configFor(region_bytes);
    SyntheticWorkload workload(benchmarkByName(bench),
                               config.topology.numCpus, 6000, 7777);
    System sys(config, workload);
    sys.start();
    sys.eq().run();
    ASSERT_TRUE(sys.allCoresFinished());

    // 1. L1 inclusion and the region invariants A-E (checkAll).
    EXPECT_EQ(checkAll(sys), "");

    // 2. Global single-writer: for every line cached anywhere, at most
    //    one node holds it in a writable or dirty-owner state, and a
    //    dirty copy forbids writable copies elsewhere.
    std::map<Addr, int> writable_holders;
    std::map<Addr, int> valid_holders;
    for (unsigned i = 0; i < sys.numCpus(); ++i) {
        sys.node(i).l2().array().forEachValid(
            [&](const CacheLine &line) {
                ++valid_holders[line.lineAddr];
                if (isWritable(line.state) ||
                    line.state == LineState::Owned) {
                    ++writable_holders[line.lineAddr];
                }
            });
    }
    for (const auto &[addr, holders] : writable_holders) {
        EXPECT_LE(holders, 1) << "line 0x" << std::hex << addr
                              << " has multiple owners";
        if (holders == 1) {
            // An M/E/O copy coexists only with Shared copies, and an
            // M/E copy coexists with none at all.
            for (unsigned i = 0; i < sys.numCpus(); ++i) {
                const CacheLine *line = sys.node(i).l2().peek(addr);
                if (!line)
                    continue;
                if (isWritable(line->state))
                    EXPECT_EQ(valid_holders[addr], 1)
                        << "writable copy of 0x" << std::hex << addr
                        << " coexists with other copies";
            }
        }
    }

    // 3. Work conservation: every CPU executed its whole stream.
    for (unsigned i = 0; i < sys.numCpus(); ++i)
        EXPECT_EQ(workload.opsDrawn(static_cast<CpuId>(i)), 6000u);

    // 4. Request accounting.
    std::uint64_t requests = 0, broadcasts = 0, directs = 0, locals = 0;
    for (unsigned i = 0; i < sys.numCpus(); ++i) {
        const auto &s = sys.node(i).stats();
        requests += s.requestsTotal;
        broadcasts += s.broadcasts;
        directs += s.directs;
        locals += s.localCompletes;
    }
    EXPECT_EQ(requests, broadcasts + directs + locals);
    EXPECT_EQ(sys.bus().stats().broadcasts, broadcasts);
    if (region_bytes == 0) {
        EXPECT_EQ(directs, 0u);
        EXPECT_EQ(locals, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    BenchmarksAndRegionSizes, SystemSweep,
    ::testing::Combine(
        ::testing::Values("ocean", "barnes", "specint2000rate", "tpc-b",
                          "tpc-h"),
        ::testing::Values(0ULL, 256ULL, 512ULL, 1024ULL)),
    [](const auto &info) {
        std::string name = std::get<0>(info.param);
        for (auto &ch : name)
            if (ch == '-')
                ch = '_';
        const auto region = std::get<1>(info.param);
        return name + (region ? "_r" + std::to_string(region)
                              : "_baseline");
    });

TEST(SystemIntegration, EightCpuTopologyRuns)
{
    SystemConfig c = makeDefaultConfig();
    c.topology.numCpus = 8;
    c.l2 = CacheParams{64 * 1024, 2, 64, 12};
    c.cgct.enabled = true;
    c.validate();
    SyntheticWorkload workload(benchmarkByName("ocean"), 8, 3000, 5);
    System sys(c, workload);
    sys.start();
    sys.eq().run();
    EXPECT_TRUE(sys.allCoresFinished());
    EXPECT_EQ(checkAll(sys), "");
}

TEST(SystemIntegration, ThreeStateProtocolRuns)
{
    SystemConfig c = makeDefaultConfig().withCgct(512);
    c.cgct.threeStateProtocol = true;
    c.l2 = CacheParams{64 * 1024, 2, 64, 12};
    SyntheticWorkload workload(benchmarkByName("tpc-b"), 4, 6000, 3);
    System sys(c, workload);
    sys.start();
    sys.eq().run();
    EXPECT_TRUE(sys.allCoresFinished());
    EXPECT_EQ(checkAll(sys), "");
    for (unsigned i = 0; i < 4; ++i) {
        // Only the three permitted states may appear.
        if (auto *cgct_ctrl = dynamic_cast<CgctController *>(
                sys.node(i).tracker())) {
            cgct_ctrl->rca().forEachValid(
                [](const RegionEntry &e) {
                    EXPECT_TRUE(e.state == RegionState::DirtyInvalid ||
                                e.state == RegionState::DirtyDirty)
                        << regionStateName(e.state);
                });
        }
    }
}

TEST(SystemIntegration, SelfInvalidationOffStillCorrect)
{
    SystemConfig c = makeDefaultConfig().withCgct(512);
    c.cgct.selfInvalidation = false;
    c.l2 = CacheParams{64 * 1024, 2, 64, 12};
    SyntheticWorkload workload(benchmarkByName("barnes"), 4, 6000, 11);
    System sys(c, workload);
    sys.start();
    sys.eq().run();
    EXPECT_TRUE(sys.allCoresFinished());
    EXPECT_EQ(checkAll(sys), "");
}

TEST(SystemIntegration, StatsDumpProducesOutput)
{
    SystemConfig c = makeDefaultConfig().withCgct(512);
    SyntheticWorkload workload(benchmarkByName("ocean"), 4, 2000, 1);
    System sys(c, workload);
    sys.start();
    sys.eq().run();
    std::ostringstream os;
    sys.dumpStats(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("system.bus.broadcasts"), std::string::npos);
    EXPECT_NE(out.find("cpu0.requests_total"), std::string::npos);
    EXPECT_NE(out.find("cpu3.rca.hits"), std::string::npos);
}

} // namespace
} // namespace cgct
