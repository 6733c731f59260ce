/**
 * @file
 * Tests for the paper driver (sim/paper.hpp) that need no simulation:
 * which profiles a Sweep reads, how the §5.1 table builds tpc-h's two
 * phases, and where the sec51 and fig2 claims draw their bounds. The
 * claims are fed made-up rows placed just inside and just outside each
 * bound, so a claim that could never fail shows here. The measured
 * blocks themselves are compared with EXPERIMENTS.md in
 * test_sweep_identity.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "sim/paper.hpp"
#include "workload/benchmarks.hpp"

namespace cgct {
namespace {

std::uint64_t
perMille(double percent)
{
    return static_cast<std::uint64_t>(std::lround(percent * 10.0));
}

/**
 * sec51's sweep with made-up rows: at 512 B the scan phase avoids @p scan
 * and the merge phase @p merge percent of requests, and @p c2c percent
 * of each phase's baseline reads come cache to cache.
 */
paper::SweepData
sec51Rows(double scan, double merge, double c2c)
{
    paper::SweepData d{paper::findTable("sec51")->sweeps[0], {}, {}};
    d.runs.resize(d.sweep.profiles.size() * d.sweep.regions.size() *
                  d.sweep.seeds);
    for (std::size_t p = 0; p < d.sweep.profiles.size(); ++p) {
        for (std::uint64_t region : d.sweep.regions) {
            for (unsigned s = 0; s < d.sweep.seeds; ++s) {
                RunResult &r = d.runs[d.index(p, region, s)];
                r.cycles = region ? 900 : 1000;
                r.requestsTotal = 1000;
                r.directs = region ? perMille(p ? merge : scan) : 0;
                r.oracleTotal = 1000;
                r.oracleUnnecessary = 500;
                r.cacheToCache = perMille(c2c);
                r.memorySupplied = 1000 - r.cacheToCache;
            }
        }
    }
    return d;
}

bool
sec51Holds(double scan, double merge, double c2c)
{
    const paper::SweepData d = sec51Rows(scan, merge, c2c);
    const std::vector<paper::Claim> claims =
        paper::findTable("sec51")->claims({&d});
    EXPECT_EQ(claims.size(), 1u);
    EXPECT_STREQ(claims.at(0).name, "sec51-phases");
    return claims.at(0).holds;
}

/** fig2's claim `fig2-tpch-best-case` when the oracle finds @p tpch
 *  percent of tpc-h's broadcasts unnecessary (67 % elsewhere). */
bool
fig2TpchHolds(double tpch)
{
    const paper::Table &table = *paper::findTable("fig2");
    paper::SweepData d{table.sweeps[0], {}, {}};
    const auto &bench = standardBenchmarks();
    d.runs.resize(bench.size() * d.sweep.regions.size() * d.sweep.seeds);
    for (std::size_t p = 0; p < bench.size(); ++p) {
        for (std::uint64_t region : d.sweep.regions) {
            for (unsigned s = 0; s < d.sweep.seeds; ++s) {
                RunResult &r = d.runs[d.index(p, region, s)];
                r.oracleTotal = 1000;
                r.oracleUnnecessary =
                    perMille(bench[p].name == "tpc-h" ? tpch : 67.0);
            }
        }
    }
    for (const paper::Claim &c : table.claims({&d}))
        if (std::string(c.name) == "fig2-tpch-best-case")
            return c.holds;
    ADD_FAILURE() << "fig2 has no claim fig2-tpch-best-case";
    return false;
}

TEST(PaperSweep, EmptyProfilesMeanTheNineTable4Profiles)
{
    paper::Sweep sweep;
    sweep.regions = {0};
    const SweepSpec nine = paper::toSpec(sweep);
    ASSERT_EQ(nine.profiles.size(), standardBenchmarks().size());
    for (std::size_t i = 0; i < nine.profiles.size(); ++i)
        EXPECT_EQ(nine.profiles[i], &standardBenchmarks()[i]);

    sweep.profiles = {benchmarkByName("ocean")};
    const SweepSpec own = paper::toSpec(sweep);
    ASSERT_EQ(own.profiles.size(), 1u);
    EXPECT_EQ(own.profiles[0], &sweep.profiles[0]);
}

TEST(PaperSweep, Sec51RunsTpchScanAndMergePhasesAlone)
{
    const paper::Sweep &sweep = paper::findTable("sec51")->sweeps.at(0);
    EXPECT_EQ(sweep.regions, (std::vector<std::uint64_t>{0, 512}));
    EXPECT_EQ(sweep.seeds, 3u);
    EXPECT_EQ(sweep.ops, 120000u);

    const WorkloadProfile &tpch = benchmarkByName("tpc-h");
    ASSERT_GT(tpch.phases.size(), 1u);
    ASSERT_EQ(sweep.profiles.size(), 2u);
    const struct {
        const char *name;
        const PhaseSpec &phase;
    } expected[] = {{"tpc-h-scan", tpch.phases.front()},
                    {"tpc-h-merge", tpch.phases.back()}};
    for (std::size_t i = 0; i < 2; ++i) {
        const WorkloadProfile &p = sweep.profiles[i];
        const PhaseSpec &want = expected[i].phase;
        SCOPED_TRACE(expected[i].name);
        EXPECT_EQ(p.name, expected[i].name);
        EXPECT_EQ(p.commercial, tpch.commercial);
        EXPECT_EQ(p.privateBytes, tpch.privateBytes);
        EXPECT_EQ(p.sharedROBytes, tpch.sharedROBytes);
        EXPECT_EQ(p.rwObjects, tpch.rwObjects);
        EXPECT_EQ(p.rwObjectBytes, tpch.rwObjectBytes);
        ASSERT_EQ(p.phases.size(), 1u);
        const PhaseSpec &got = p.phases[0];
        EXPECT_EQ(got.fraction, 1.0);
        EXPECT_EQ(got.pIfetch, want.pIfetch);
        EXPECT_EQ(got.pSharedRO, want.pSharedRO);
        EXPECT_EQ(got.pSharedRW, want.pSharedRW);
        EXPECT_EQ(got.pStorePrivate, want.pStorePrivate);
        EXPECT_EQ(got.pStoreSharedRO, want.pStoreSharedRO);
        EXPECT_EQ(got.pStoreOwned, want.pStoreOwned);
        EXPECT_EQ(got.pMigrate, want.pMigrate);
        EXPECT_EQ(got.pDcbzBurst, want.pDcbzBurst);
        EXPECT_EQ(got.pDcbf, want.pDcbf);
        EXPECT_EQ(got.pDependent, want.pDependent);
    }
}

TEST(PaperClaims, Sec51PhasesHoldsInsideItsBounds)
{
    EXPECT_TRUE(sec51Holds(86.0, 5.9, 87.4));
    EXPECT_TRUE(sec51Holds(50.1, 9.9, 50.1));
}

TEST(PaperClaims, Sec51PhasesFailsWhenScanAvoidsHalfOrLess)
{
    EXPECT_FALSE(sec51Holds(50.0, 5.9, 87.4));
    EXPECT_FALSE(sec51Holds(20.0, 5.9, 87.4));
}

TEST(PaperClaims, Sec51PhasesFailsWhenMergeAvoidsTenPercentOrMore)
{
    EXPECT_FALSE(sec51Holds(86.0, 10.0, 87.4));
    EXPECT_FALSE(sec51Holds(86.0, 80.0, 87.4));
}

TEST(PaperClaims, Sec51PhasesFailsWhenMergeReadsComeFromMemory)
{
    EXPECT_FALSE(sec51Holds(86.0, 5.9, 50.0));
    EXPECT_FALSE(sec51Holds(86.0, 5.9, 10.0));
}

TEST(PaperClaims, Fig2TpchBestCaseHoldsWithinTwoPointsOf15)
{
    EXPECT_TRUE(fig2TpchHolds(14.0));
    EXPECT_TRUE(fig2TpchHolds(13.1));
    EXPECT_TRUE(fig2TpchHolds(16.9));
    EXPECT_FALSE(fig2TpchHolds(12.9));
    EXPECT_FALSE(fig2TpchHolds(17.1));
    EXPECT_FALSE(fig2TpchHolds(67.0));
}

TEST(PaperBlocks, FailedClaimRendersCrossAndClearsFlag)
{
    const paper::Table &table = *paper::findTable("sec51");
    const paper::SweepData good = sec51Rows(86.0, 5.9, 87.4);
    bool hold = true;
    const std::string passed = paper::renderBlock(table, {&good}, &hold);
    EXPECT_TRUE(hold);
    EXPECT_NE(passed.find("\n- ✅ `sec51-phases`: "), std::string::npos)
        << passed;

    const paper::SweepData bad = sec51Rows(40.0, 5.9, 87.4);
    const std::string failed = paper::renderBlock(table, {&bad}, &hold);
    EXPECT_FALSE(hold);
    EXPECT_NE(failed.find("\n- ❌ `sec51-phases`: "), std::string::npos)
        << failed;
    EXPECT_NE(failed.find("| tpc-h-scan | 50.0 | 40.0 | 87.4 | 10.0 |"),
              std::string::npos)
        << failed;
}

} // namespace
} // namespace cgct
