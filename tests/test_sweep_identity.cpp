/**
 * @file
 * Contract row 4 (docs/CONTRACTS.md): the frozen default sweep. The full
 * default matrix — every standard benchmark x regions {0,256,512,1024}
 * x 3 seeds at 120000 ops — is run in process at --jobs 1 and its CSV
 * hashed with a self-contained SHA-256; the digest must equal
 * golden::kDefaultSweepSha256 (tests/golden.hpp). snapshot_resume checks
 * the same digest through cgct_sweep at --jobs 0, so tier-1 runs the
 * matrix twice. The run also renders the Figure 2/7/8/10 tables from its
 * rows (sim/paper.hpp), checks them against EXPERIMENTS.md byte for byte
 * and asserts their paper claims, so no other case runs the matrix. The
 * analytic Table 1/2/3 and Figure 6 blocks are compared on their own, and
 * the §5.1 block with its claim from its own 12 runs.
 * Sanitizer builds skip the full matrix. Labels: sanitize_hotpath, and
 * contract on the digest case.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "golden.hpp"
#include "sha256.hpp"
#include "sim/paper.hpp"
#include "sim/sweep.hpp"
#include "snapshot/journal.hpp"
#include "workload/benchmarks.hpp"

namespace cgct {
namespace {

SweepSpec
defaultSweepSpec()
{
    // Exactly what `cgct_sweep` with no arguments runs (tools/cgct_sweep).
    SweepSpec spec;
    for (const auto &p : standardBenchmarks())
        spec.profiles.push_back(&p);
    spec.regionSizes = {0, 256, 512, 1024};
    spec.seedsPerCell = 3;
    spec.baseSeed = 20050609;
    spec.opts.opsPerCpu = 120000;
    spec.opts.warmupOps = 120000 / 5;
    spec.baseConfig = makeDefaultConfig();
    return spec;
}

std::string
runToCsv(const SweepSpec &spec, unsigned jobs,
         std::vector<RunResult> *results = nullptr)
{
    std::ostringstream os;
    writeSweepCsvHeader(os);
    SweepRunner runner(spec, jobs);
    std::vector<RunResult> runs =
        runner.run([&os](const SweepCell &, const RunResult &r) {
            writeSweepCsvRow(os, r);
        });
    if (results)
        *results = std::move(runs);
    return os.str();
}

std::string
experimentsText()
{
    std::ifstream in(CGCT_SOURCE_DIR "/EXPERIMENTS.md");
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

constexpr std::string_view kBlockOpen = "<!-- cgct_paper ";

/** EXPERIMENTS.md's block between `<!-- cgct_paper NAME -->` and the
 *  end marker. */
std::string
experimentsBlock(const std::string &name)
{
    const std::string doc = experimentsText();
    const std::string open = std::string(kBlockOpen) + name + " -->\n";
    const std::size_t begin = doc.find(open);
    if (begin == std::string::npos)
        return "(no " + open + " block in EXPERIMENTS.md)";
    const std::size_t body = begin + open.size();
    return doc.substr(body, doc.find("<!-- /cgct_paper -->", body) - body);
}

TEST(SweepIdentity, Sha256KnownAnswer)
{
    // FIPS 180-4 test vector: "abc".
    EXPECT_EQ(sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(sha256Hex(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
}

TEST(SweepIdentity, DefaultSweepDigestAndPaperClaimsAtJobs1)
{
    if (CGCT_SANITIZED)
        GTEST_SKIP() << "full default sweep is too slow under "
                        "sanitizers; the normal-build leg asserts the "
                        "digest";
    std::vector<RunResult> results;
    EXPECT_EQ(sha256Hex(runToCsv(defaultSweepSpec(), 1, &results)),
              golden::kDefaultSweepSha256)
        << "default sweep output changed — a refactor must be "
           "byte-identical (or the digest in tests/golden.hpp needs a "
           "deliberate, documented update)";

    for (const char *name : {"fig2", "fig7", "fig8", "fig10"}) {
        const paper::Table &table = *paper::findTable(name);
        ASSERT_EQ(table.sweeps.size(), 1u) << name;
        const paper::Sweep &sweep = table.sweeps[0];
        ASSERT_EQ(sweep.cell, paper::Sweep::Cell::Run) << name;
        ASSERT_EQ(sweepFingerprint(paper::toSpec(sweep)),
                  sweepFingerprint(defaultSweepSpec()))
            << name << " reads other rows than the default sweep";
        const paper::SweepData matrix{sweep, results, {}};
        const paper::Data data{&matrix};
        EXPECT_EQ(paper::renderBlock(table, data), experimentsBlock(name))
            << "EXPERIMENTS.md differs from `cgct_paper " << name << "`";
        for (const paper::Claim &claim : table.claims(data))
            EXPECT_TRUE(claim.holds) << claim.name << ": " << claim.text;
    }
}

TEST(PaperBlocks, AnalyticTablesMatchExperiments)
{
    for (const char *name : {"table1", "table2", "table3", "fig6"}) {
        const paper::Table *table = paper::findTable(name);
        ASSERT_NE(table, nullptr) << name;
        ASSERT_TRUE(table->sweeps.empty()) << name << " runs a sweep";
        EXPECT_EQ(paper::renderBlock(*table, {}), experimentsBlock(name))
            << "EXPERIMENTS.md differs from `cgct_paper " << name << "`";
    }
}

TEST(PaperBlocks, Sec51PhasesMatchExperimentsAndClaim)
{
    const paper::Table &table = *paper::findTable("sec51");
    ASSERT_EQ(table.sweeps.size(), 1u);
    const paper::SweepData phases = paper::runSweep(table.sweeps[0], 0);
    ASSERT_EQ(phases.runs.size(), 12u);
    const paper::Data data{&phases};
    EXPECT_EQ(paper::renderBlock(table, data), experimentsBlock("sec51"))
        << "EXPERIMENTS.md differs from `cgct_paper sec51`";
    for (const paper::Claim &claim : table.claims(data))
        EXPECT_TRUE(claim.holds) << claim.name << ": " << claim.text;
}

TEST(PaperBlocks, TableNamesMatchExperimentsMarkers)
{
    // A table without a block, or a block no table renders any more,
    // leaves EXPERIMENTS.md out of step with `cgct_paper`.
    std::set<std::string> tables;
    for (const paper::Table &t : paper::tables())
        tables.insert(t.name);
    // A marker starts its line; the prose quotes the marker syntax.
    const std::string doc = "\n" + experimentsText();
    const std::string open = "\n" + std::string(kBlockOpen);
    std::set<std::string> markers;
    for (std::size_t at = doc.find(open); at != std::string::npos;
         at = doc.find(open, at + 1)) {
        const std::size_t name = at + open.size();
        markers.insert(doc.substr(name, doc.find(' ', name) - name));
    }
    EXPECT_EQ(markers, tables);
}

} // namespace
} // namespace cgct
