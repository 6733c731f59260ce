/**
 * @file
 * Tests for the statistics framework: StatGroup rendering, histograms, and
 * the Figure 10 interval traffic tracker.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/stats.hpp"

namespace cgct {
namespace {

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
