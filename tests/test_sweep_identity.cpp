/**
 * @file
 * Byte-identity regression for the default sweep: the hot-path storage
 * rewrite (SoA tag arrays, open-addressed MSHR, allocation-free request
 * chain) must not change simulated behavior by even one bit. The full
 * default matrix — every standard benchmark x regions {0,256,512,1024}
 * x 3 seeds at 120000 ops — is run in process and its CSV hashed with a
 * self-contained SHA-256; the digest must equal the recorded value in
 * BENCH_sweep.json, at --jobs 1 and at --jobs 0 (hardware concurrency).
 *
 * Under sanitizers the full matrix is too slow, so those builds run a
 * reduced matrix and assert jobs-count identity only (the full digest
 * is asserted by the normal-build CI leg). Label: sanitize_hotpath.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sha256.hpp"
#include "sim/sweep.hpp"
#include "workload/benchmarks.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CGCT_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CGCT_SANITIZED 1
#endif
#endif
#ifndef CGCT_SANITIZED
#define CGCT_SANITIZED 0
#endif

namespace cgct {
namespace {

/** The digest recorded in BENCH_sweep.json (and docs/PERF.md). */
constexpr const char *kDefaultSweepSha256 =
    "a4fe05cba1939a49ca6e5f165c6df01b4b2d32cdfb1a80dc9d94d42f7950246e";

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
runToCsv(const SweepSpec &spec, unsigned jobs)
{
    std::ostringstream os;
    writeSweepCsvHeader(os);
    SweepRunner runner(spec, jobs);
    runner.run([&os](const SweepCell &, const RunResult &r) {
        writeSweepCsvRow(os, r);
    });
    return os.str();
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

TEST(SweepIdentity, DefaultSweepDigestAtJobs1)
{
    if (CGCT_SANITIZED)
        GTEST_SKIP() << "full default sweep is too slow under "
                        "sanitizers; the normal-build leg asserts the "
                        "digest";
    EXPECT_EQ(sha256Hex(runToCsv(defaultSweepSpec(), 1)),
              kDefaultSweepSha256)
        << "default sweep output changed — the hot-path rewrite must be "
           "byte-identical (or the digest in BENCH_sweep.json needs a "
           "deliberate, documented update)";
}

TEST(SweepIdentity, DefaultSweepDigestAtJobs0)
{
    if (CGCT_SANITIZED)
        GTEST_SKIP() << "full default sweep is too slow under "
                        "sanitizers; the normal-build leg asserts the "
                        "digest";
    EXPECT_EQ(sha256Hex(runToCsv(defaultSweepSpec(), 0)),
              kDefaultSweepSha256)
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
