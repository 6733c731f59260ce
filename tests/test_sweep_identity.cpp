/**
 * @file
 * Byte-identity regression for the default sweep: the hot-path storage
 * rewrite (SoA tag arrays, open-addressed MSHR, allocation-free request
 * chain) must not change simulated behavior by even one bit. The full
 * default matrix — every standard benchmark x regions {0,256,512,1024}
 * x 3 seeds at 120000 ops — is run in process and its CSV hashed with a
 * self-contained SHA-256; the digest must equal golden::kDefaultSweepSha256
 * (tests/golden.hpp), at --jobs 1 and at --jobs 0 (hardware concurrency).
 * The jobs-1 run also renders the Figure 2/7/8/10 tables from its rows
 * (sim/paper.hpp), checks them against EXPERIMENTS.md byte for byte and
 * asserts their paper claims; a separate case would cost a third full
 * matrix, since each case runs in its own process.
 *
 * Under sanitizers the full matrix is too slow, so those builds run a
 * reduced matrix and assert jobs-count identity only (the full digest
 * is asserted by the normal-build CI leg). Label: sanitize_hotpath.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

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

/** EXPERIMENTS.md's block between `<!-- cgct_paper NAME -->` and the
 *  end marker. */
std::string
experimentsBlock(const std::string &name)
{
    std::ifstream in(CGCT_SOURCE_DIR "/EXPERIMENTS.md");
    std::stringstream text;
    text << in.rdbuf();
    const std::string doc = text.str();
    const std::string open = "<!-- cgct_paper " + name + " -->\n";
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

TEST(SweepIdentity, DefaultSweepDigestAtJobs0)
{
    if (CGCT_SANITIZED)
        GTEST_SKIP() << "full default sweep is too slow under "
                        "sanitizers; the normal-build leg asserts the "
                        "digest";
    EXPECT_EQ(sha256Hex(runToCsv(defaultSweepSpec(), 0)),
              golden::kDefaultSweepSha256)
        << "default sweep output differs at hardware-concurrency jobs";
}

TEST(SweepIdentity, ReducedMatrixIdenticalAcrossJobs)
{
    // Cheap enough for sanitizer builds: identity across job counts on
    // a 2-benchmark x 2-region x 2-seed matrix.
    SweepSpec spec;
    spec.profiles = {&benchmarkByName("ocean"),
                     &benchmarkByName("tpc-w")};
    spec.regionSizes = {0, 512};
    spec.seedsPerCell = 2;
    spec.baseSeed = 20050609;
    spec.opts.opsPerCpu = 6000;
    spec.opts.warmupOps = 1200;
    spec.baseConfig = makeDefaultConfig();

    const std::string serial = runToCsv(spec, 1);
    EXPECT_EQ(serial, runToCsv(spec, 0));
    EXPECT_EQ(serial, runToCsv(spec, 3));
}

} // namespace
} // namespace cgct
