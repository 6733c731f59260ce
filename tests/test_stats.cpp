/**
 * @file
 * Tests for the statistics framework: the components' counter lists,
 * StatGroup rendering, histograms, and the Figure 10 interval traffic
 * tracker.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/stats.hpp"
#include "core/regionscout.hpp"
#include "cpu/core_model.hpp"
#include "sim/dma.hpp"
#include "sim/node.hpp"
#include "sim/oracle.hpp"

namespace cgct {
namespace {

/** Each counter of @p S once: the words its list visits tile the struct. */
template <typename S>
void
expectListCoversEveryMember(const char *name)
{
    S s{};
    const auto *base = reinterpret_cast<const char *>(&s);
    std::vector<std::ptrdiff_t> offsets;
    S::visit(
        [&](const char *, const char *, const std::uint64_t &v) {
            offsets.push_back(reinterpret_cast<const char *>(&v) - base);
        },
        s);
    ASSERT_EQ(offsets.size(), sizeof(S) / sizeof(std::uint64_t)) << name;
    std::sort(offsets.begin(), offsets.end());
    for (std::size_t i = 0; i < offsets.size(); ++i)
        EXPECT_EQ(offsets[i], static_cast<std::ptrdiff_t>(
                                  i * sizeof(std::uint64_t)))
            << name << " word " << i;
}

TEST(Counters, ListCoversEveryMember)
{
    // A counter left off its list would drop out of the checkpoint,
    // --stats and the run totals.
    expectListCoversEveryMember<Node::Stats>("Node");
    expectListCoversEveryMember<Cache::Stats>("Cache");
    expectListCoversEveryMember<RegionCoherenceArray::Stats>("RCA");
    expectListCoversEveryMember<StreamPrefetcher::Stats>("StreamPrefetcher");
    expectListCoversEveryMember<MemoryController::Stats>("MemoryController");
    expectListCoversEveryMember<CoreModel::Stats>("CoreModel");
    expectListCoversEveryMember<DataNetwork::Stats>("DataNetwork");
    expectListCoversEveryMember<DmaEngine::Stats>("DmaEngine");
    expectListCoversEveryMember<RegionScout::Stats>("RegionScout");
    expectListCoversEveryMember<Interconnect::Stats>("Interconnect");
    expectListCoversEveryMember<Oracle::Stats>("Oracle");
}

TEST(Counters, SumAndTextWalkTheList)
{
    Cache::Stats a, b;
    a.hits = 1;
    a.invalidations = 2;
    b.hits = 10;
    b.fills = 20;
    a += b;
    EXPECT_EQ(a.hits, 11u);
    EXPECT_EQ(a.fills, 20u);
    EXPECT_EQ(a.invalidations, 2u);
    EXPECT_EQ(b.hits, 10u);

    // Named counters print under the prefix; unnamed ones do not.
    RegionCoherenceArray::Stats rs;
    rs.evictedEmpty = 5;
    rs.lineCountSum = 9;
    StatGroup g("grp");
    g.addCounters(rs, "x.");
    std::ostringstream os;
    g.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("grp.x.rca.evicted_empty"), std::string::npos);
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 9);
}

TEST(StatGroup, RendersScalarsAndDerived)
{
    std::uint64_t counter = 7;
    StatGroup g("grp");
    g.addScalar("count", "a counter", &counter);
    g.addDerived("twice", "derived", [&counter] {
        return static_cast<double>(counter) * 2.0;
    });
    std::ostringstream os;
    g.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("grp.count"), std::string::npos);
    EXPECT_NE(out.find("7"), std::string::npos);
    EXPECT_NE(out.find("grp.twice"), std::string::npos);
    EXPECT_NE(out.find("14.0"), std::string::npos);
    EXPECT_NE(out.find("a counter"), std::string::npos);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(10, 5); // Buckets [0,10) ... [40,50) plus overflow.
    h.record(0);
    h.record(9);
    h.record(10);
    h.record(49);
    h.record(50);   // overflow
    h.record(1000); // overflow
    EXPECT_EQ(h.samples(), 6u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(4), 1u);
    EXPECT_EQ(h.bucketCount(5), 2u); // overflow bucket
}

TEST(Histogram, MeanAndSum)
{
    Histogram h(1, 100);
    h.record(2);
    h.record(4);
    h.record(6, 2); // weighted
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_EQ(h.sum(), 18u);
    EXPECT_DOUBLE_EQ(h.mean(), 4.5);
}

TEST(Histogram, Reset)
{
    Histogram h(10, 10);
    h.record(5);
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.bucketCount(0), 0u);
}

TEST(IntervalTracker, CountsTotalAndPeak)
{
    IntervalTracker t(100);
    // Window 0: 3 events; window 1: 1 event; window 2: 5 events.
    t.note(10);
    t.note(20);
    t.note(30);
    t.note(150);
    for (Tick x = 200; x < 250; x += 10)
        t.note(x);
    EXPECT_EQ(t.total(), 9u);
    EXPECT_EQ(t.peakWindowCount(), 5u);
}

TEST(IntervalTracker, AveragePerWindow)
{
    IntervalTracker t(100);
    for (Tick x = 0; x < 1000; x += 10)
        t.note(x); // 100 events over 10 windows
    EXPECT_DOUBLE_EQ(t.averagePerWindow(1000), 10.0);
    EXPECT_DOUBLE_EQ(t.averagePerWindow(2000), 5.0);
}

TEST(IntervalTracker, PeakIncludesCurrentWindow)
{
    IntervalTracker t(100);
    t.note(5);
    t.note(6);
    EXPECT_EQ(t.peakWindowCount(), 2u);
}

TEST(IntervalTracker, ResetRestartsElapsedTime)
{
    IntervalTracker t(100);
    t.note(50);
    t.reset(1000);
    EXPECT_EQ(t.total(), 0u);
    EXPECT_EQ(t.peakWindowCount(), 0u);
    t.note(1050);
    t.note(1060);
    EXPECT_EQ(t.total(), 2u);
    // Elapsed measured from the reset point.
    EXPECT_DOUBLE_EQ(t.averagePerWindow(1100), 2.0);
}

TEST(IntervalTracker, ZeroElapsedIsZeroAverage)
{
    IntervalTracker t(100);
    EXPECT_EQ(t.averagePerWindow(0), 0.0);
}

} // namespace
} // namespace cgct
