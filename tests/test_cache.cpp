/**
 * @file
 * Tests for the Cache wrapper: probe statistics, fills with eviction
 * accounting, and miss-ratio computation.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <utility>

#include "cache/cache.hpp"

namespace cgct {
namespace {

CacheParams
tinyCache()
{
    CacheParams p;
    p.sizeBytes = 8 * 1024; // 128 lines.
    p.associativity = 2;
    p.lineBytes = 64;
    p.latency = 12;
    return p;
}

TEST(Cache, ProbeCountsHitsAndMisses)
{
    Cache c("l2", tinyCache());
    EXPECT_EQ(c.probe(0x1000, 1), nullptr);
    Eviction ev;
    c.fill(0x1000, LineState::Shared, 1, 1, ev);
    EXPECT_NE(c.probe(0x1000, 2), nullptr);
    EXPECT_EQ(c.stats().hits, 1u);
    EXPECT_EQ(c.stats().misses, 1u);
    EXPECT_DOUBLE_EQ(c.missRatio(), 0.5);
}

TEST(Cache, LookupHasNoStatSideEffects)
{
    Cache c("l2", tinyCache());
    Eviction ev;
    c.fill(0x1000, LineState::Shared, 1, 1, ev);
    c.lookup(0x1000);
    std::as_const(c).lookup(0x2000);
    EXPECT_EQ(c.stats().hits, 0u);
    EXPECT_EQ(c.stats().misses, 0u);
}

TEST(Cache, FillSetsStateAndReadyTick)
{
    Cache c("l2", tinyCache());
    Eviction ev;
    CacheLine *line = c.fill(0x2000, LineState::Modified, 5, 100, ev);
    EXPECT_EQ(line->state, LineState::Modified);
    EXPECT_EQ(line->readyTick, 100u);
    EXPECT_EQ(line->lastUse, 5u);
    EXPECT_EQ(c.stats().fills, 1u);
}

TEST(Cache, EvictionAccounting)
{
    CacheParams p = tinyCache();
    p.sizeBytes = 128; // One set of two lines.
    Cache c("l2", p);
    Eviction ev;
    c.fill(0x0000, LineState::Shared, 1, 1, ev);
    c.fill(0x1000, LineState::Modified, 2, 2, ev);
    c.fill(0x2000, LineState::Shared, 3, 3, ev); // Evicts clean 0x0000.
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(c.stats().evictionsClean, 1u);
    c.fill(0x3000, LineState::Shared, 4, 4, ev); // Evicts dirty 0x1000.
    EXPECT_EQ(ev.state, LineState::Modified);
    EXPECT_EQ(c.stats().evictionsDirty, 1u);
}

TEST(Cache, InvalidateLine)
{
    Cache c("l2", tinyCache());
    Eviction ev;
    c.fill(0x1000, LineState::Owned, 1, 1, ev);
    EXPECT_EQ(c.invalidateLine(0x1000), LineState::Owned);
    EXPECT_EQ(c.stats().invalidations, 1u);
    EXPECT_EQ(c.invalidateLine(0x1000), LineState::Invalid);
    EXPECT_EQ(c.stats().invalidations, 1u); // Misses don't count.
}

TEST(Cache, ResetStats)
{
    Cache c("l2", tinyCache());
    c.probe(0x0, 1);
    c.resetStats();
    EXPECT_EQ(c.stats().misses, 0u);
    EXPECT_DOUBLE_EQ(c.missRatio(), 0.0);
}

TEST(Cache, StatsRegistration)
{
    Cache c("l2", tinyCache());
    StatGroup g("cpu0");
    c.addStats(g);
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("cpu0.l2.misses"), std::string::npos);
    EXPECT_NE(os.str().find("cpu0.l2.miss_ratio"), std::string::npos);
}

} // namespace
} // namespace cgct
