/**
 * @file
 * Frozen bytes of the three RunResult encodings: the JSON object
 * (toJson), the sweep CSV header and row with the sampled and topology
 * columns on, and the encoded record (encodeRunResult). One result sets
 * every member to a distinct value, the sampling block included, so a
 * field that moves, drops out or changes format changes a digest.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "golden.hpp"
#include "sim/json_stats.hpp"
#include "sim/sweep.hpp"
#include "snapshot/result_codec.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {
namespace {

RunResult
distinctResult()
{
    RunResult r;
    r.workload = "pin-w";
    r.regionBytes = 768;
    r.seed = 2005060901;
    r.cycles = 3000017;
    r.instructions = 4000037;
    r.requestsTotal = 100003;
    r.broadcasts = 40009;
    r.directs = 50021;
    r.locals = 9973;
    r.writebacks = 7001;
    for (std::size_t c = 0; c < kNumCategories; ++c) {
        r.broadcastsByCat[c] = 1100 + c;
        r.directsByCat[c] = 1200 + c;
        r.localsByCat[c] = 1300 + c;
        r.oracleTotalByCat[c] = 1400 + c;
        r.oracleUnnecessaryByCat[c] = 1500 + c;
    }
    r.oracleTotal = 60013;
    r.oracleUnnecessary = 27017;
    r.avgBroadcastsPer100k = 1234.56789;
    r.peakBroadcastsPer100k = 2345.0;
    r.topology = "hier";
    r.nodes = 16;
    r.localResolves = 811;
    r.interChipBroadcasts = 823;
    r.l2MissRatio = 0.0123456789;
    r.avgMissLatency = 217.123456;
    r.cacheToCache = 4409;
    r.memorySupplied = 5807;
    r.rcaEvictedEmpty = 101;
    r.rcaEvictedOne = 103;
    r.rcaEvictedTwo = 107;
    r.rcaEvictedMore = 109;
    r.rcaSelfInvalidations = 113;
    r.inclusionWritebacks = 127;
    r.avgLinesPerEvictedRegion = 1.53125;

    HistogramSnapshot miss;
    miss.name = "node.miss_latency";
    miss.desc = "demand miss latency distribution (cycles)";
    miss.bucketWidth = 50;
    miss.samples = 9;
    miss.sum = 1450;
    miss.buckets = {2, 3, 0, 4};
    r.histograms.push_back(miss);
    HistogramSnapshot lines;
    lines.name = "rca.lines_at_eviction";
    lines.desc = "lines cached per region at eviction";
    lines.bucketWidth = 1;
    lines.samples = 6;
    lines.sum = 11;
    lines.buckets = {1, 2, 1, 1, 0, 1};
    r.histograms.push_back(lines);
    DistributionSnapshot life;
    life.name = "rca.region_lifetime";
    life.desc = "allocation-to-eviction region lifetime (cycles)";
    life.samples = 5;
    life.min = 12.5;
    life.max = 98765.25;
    life.mean = 4321.0625;
    life.stddev = 987.654321;
    r.distributions.push_back(life);

    auto s = std::make_shared<SamplingInfo>();
    s->windows = 7;
    s->windowOps = 2011;
    s->warmMode = "functional";
    s->spanOps = 96001;
    s->sampledOps = 14077;
    s->scale = 96001.0 / 14077.0;
    RunSummary *sums[] = {&s->cycles, &s->avgMissLatency, &s->l2MissRatio,
                          &s->avoidedFraction, &s->avgBroadcastsPer100k};
    double base = 10.0;
    for (RunSummary *sum : sums) {
        sum->mean = base + 0.125;
        sum->stddev = base / 7.0;
        sum->ci95Half = base / 13.0;
        sum->count = 7;
        base *= 3.0;
    }
    r.sampling = std::move(s);
    return r;
}

std::uint64_t
digest(const std::string &bytes)
{
    return xxhash64(bytes.data(), bytes.size());
}

void
print(const char *what, std::uint64_t d)
{
    std::printf("%s xxhash64 0x%016llx\n", what,
                static_cast<unsigned long long>(d));
}

TEST(ResultFormatPin, Json)
{
    const std::uint64_t d = digest(toJson(distinctResult()));
    print("json", d);
    EXPECT_EQ(d, golden::kResultJsonXxh64);
}

TEST(ResultFormatPin, SampledTopologyCsv)
{
    std::ostringstream os;
    writeSweepCsvHeader(os, /*sampled=*/true, /*topo=*/true);
    writeSweepCsvRow(os, distinctResult(), /*sampled=*/true,
                     /*topo=*/true);
    const std::uint64_t d = digest(os.str());
    print("csv", d);
    EXPECT_EQ(d, golden::kResultCsvXxh64);
}

TEST(ResultFormatPin, EncodedRecord)
{
    Serializer s;
    encodeRunResult(s, distinctResult());
    const std::uint64_t d = xxhash64(s.buffer().data(), s.size());
    print("encoded record", d);
    EXPECT_EQ(d, golden::kResultRecordXxh64);
}

} // namespace
} // namespace cgct
