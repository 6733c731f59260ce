/**
 * @file
 * Tests for the deterministic RNG: reproducibility, range correctness,
 * rough distribution shape for the geometric and Zipf helpers, and the
 * prebuilt GeometricDist / ZipfDist draws against the per-call formulas
 * they replaced, bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/random.hpp"
#include "workload/benchmarks.hpp"

namespace cgct {
namespace {

TEST(Rng, DeterministicFromSeed)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
        for (int i = 0; i < 1000; ++i)
            ASSERT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowCoversRange)
{
    Rng rng(11);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++seen[rng.nextBelow(8)];
    for (int count : seen)
        EXPECT_GT(count, 700); // ~1000 expected each.
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.nextRange(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo = saw_lo || v == -3;
        saw_hi = saw_hi || v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleUnitInterval)
{
    Rng rng(5);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, GeometricMean)
{
    Rng rng(17);
    // Mean of geometric with success probability p is 1/p.
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextGeometric(0.125));
    EXPECT_NEAR(sum / n, 8.0, 0.5);
}

TEST(Rng, GeometricAlwaysAtLeastOne)
{
    Rng rng(19);
    for (int i = 0; i < 1000; ++i)
        ASSERT_GE(rng.nextGeometric(0.99), 1u);
}

TEST(Rng, ZipfInRange)
{
    Rng rng(23);
    for (int i = 0; i < 5000; ++i)
        ASSERT_LT(rng.nextZipf(100, 0.8), 100u);
}

TEST(Rng, ZipfSkewsTowardZero)
{
    Rng rng(29);
    std::uint64_t low = 0, high = 0;
    for (int i = 0; i < 20000; ++i) {
        const auto v = rng.nextZipf(1000, 0.9);
        if (v < 100)
            ++low;
        if (v >= 900)
            ++high;
    }
    // A 0.9-exponent Zipf puts far more mass on the first decile.
    EXPECT_GT(low, high * 3);
}

TEST(Rng, ZipfDegenerateN)
{
    Rng rng(31);
    EXPECT_EQ(rng.nextZipf(1, 0.9), 0u);
    EXPECT_EQ(rng.nextZipf(0, 0.9), 0u);
}

TEST(Rng, ForkDecorrelates)
{
    Rng parent(41);
    Rng child_a = parent.fork(1);
    Rng child_b = parent.fork(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += child_a.next() == child_b.next();
    EXPECT_LT(same, 3);
}

// The per-call formulas GeometricDist and ZipfDist hoisted their
// constants out of, kept verbatim as the reference.

std::uint64_t
referenceGeometric(Rng &rng, double p)
{
    if (p >= 1.0)
        return 1;
    if (p <= 0.0)
        p = 1e-9;
    const double u = 1.0 - rng.nextDouble();
    const double k = std::ceil(std::log(u) / std::log1p(-p));
    return k < 1.0 ? 1 : static_cast<std::uint64_t>(k);
}

std::uint64_t
referenceZipf(Rng &rng, std::uint64_t n, double s)
{
    if (n <= 1)
        return 0;
    const double u = rng.nextDouble();
    double x;
    if (std::abs(s - 1.0) < 1e-9) {
        x = std::exp(u * std::log(static_cast<double>(n)));
    } else {
        const double one_minus_s = 1.0 - s;
        const double hn = (std::pow(static_cast<double>(n), one_minus_s) -
                           1.0) / one_minus_s;
        x = std::pow(u * hn * one_minus_s + 1.0, 1.0 / one_minus_s);
    }
    auto idx = static_cast<std::uint64_t>(x);
    if (idx >= n)
        idx = n - 1;
    return idx;
}

/** Draws per family (geometric, Zipf), split evenly over its parameters. */
constexpr std::size_t kEquivalenceDraws = 1000000;

TEST(Rng, PrebuiltDrawsMatchReferenceFormulas)
{
    // Every parameter the workload generator and the DMA engine draw
    // with, plus the edge cases of each formula.
    std::set<double> ps = {1.0, 1.5, 0.0, -0.5, 1e-12,
                           1.0 / static_cast<double>(
                                     DmaParams{}.meanInterval)};
    std::set<std::pair<std::uint64_t, double>> zipfs = {
        {0, 0.6}, {1, 0.6}, {2, 0.6}, {1000, 1.0}, {1000, 1.0 + 1e-12},
        {1000, 0.0}, {1000, 2.5}};
    for (const WorkloadProfile &p : standardBenchmarks()) {
        ps.insert(1.0 / p.refsPerLine);
        ps.insert(1.0 / p.codeRefsPerLine);
        ps.insert(1.0 / p.seqRunLines);
        ps.insert(1.0 / (p.avgGap + 1.0));
        const auto chunks = [](std::uint64_t bytes) {
            return std::max<std::uint64_t>(1, bytes / 4096);
        };
        zipfs.insert({chunks(p.codeBytes), p.codeZipf});
        zipfs.insert({chunks(p.sharedROBytes), p.zipf});
        zipfs.insert({chunks(p.privateBytes), p.zipf});
        zipfs.insert({p.rwObjects, p.zipf});
    }

    const std::size_t geo_draws = kEquivalenceDraws / ps.size() + 1;
    for (const double p : ps) {
        const GeometricDist dist(p);
        Rng ref(7), pre(7), call(7);
        for (std::size_t i = 0; i < geo_draws; ++i) {
            const std::uint64_t want = referenceGeometric(ref, p);
            ASSERT_EQ(dist(pre), want) << "p " << p << " draw " << i;
            ASSERT_EQ(call.nextGeometric(p), want) << "p " << p;
        }
        // Each consumed exactly as many raw draws.
        const std::uint64_t after = ref.next();
        EXPECT_EQ(pre.next(), after) << "p " << p;
        EXPECT_EQ(call.next(), after) << "p " << p;
    }
    const std::size_t zipf_draws = kEquivalenceDraws / zipfs.size() + 1;
    for (const auto &[n, s] : zipfs) {
        const ZipfDist dist(n, s);
        Rng ref(11), pre(11), call(11);
        for (std::size_t i = 0; i < zipf_draws; ++i) {
            const std::uint64_t want = referenceZipf(ref, n, s);
            ASSERT_EQ(dist(pre), want) << "n " << n << " s " << s;
            ASSERT_EQ(call.nextZipf(n, s), want) << "n " << n << " s " << s;
        }
        const std::uint64_t after = ref.next();
        EXPECT_EQ(pre.next(), after) << "n " << n << " s " << s;
        EXPECT_EQ(call.next(), after) << "n " << n << " s " << s;
    }
}

} // namespace
} // namespace cgct
