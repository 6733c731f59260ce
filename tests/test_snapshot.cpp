/**
 * @file
 * Snapshot serialization unit tests: the XXH64 digest, primitive and
 * section round trips, image framing, corruption detection, the config
 * fingerprint, the RunResult codec, the load-side checks that turn
 * crafted counts and indices into clean exits, and a seeded loop of
 * mutated images that must load or exit cleanly. Label: snapshot.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "common/config.hpp"
#include "common/random.hpp"
#include "golden.hpp"
#include "core/rca.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "sim/system.hpp"
#include "snapshot/result_codec.hpp"
#include "snapshot/serializer.hpp"
#include "snapshot/snapshot.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"

using namespace cgct;

// A load must size nothing from a count it has not checked against the
// bytes left. While g_allocBound is nonzero (only ever in a forked
// SnapshotMutation child), a larger request ends the process with exit
// code 3 instead of allocating.
namespace {
std::size_t g_allocBound = 0;

void *
boundedAlloc(std::size_t n)
{
    if (g_allocBound && n > g_allocBound) {
        std::fprintf(stderr, "unchecked allocation of %zu bytes\n", n);
        std::_Exit(3);
    }
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t n) { return boundedAlloc(n); }
void *operator new[](std::size_t n) { return boundedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace {

TEST(XxHash64, ReferenceVectors)
{
    // The canonical empty-input digest from the xxHash specification.
    EXPECT_EQ(xxhash64("", 0), 0xEF46DB3751D8E999ULL);
    // Seed participates.
    EXPECT_NE(xxhash64("", 0, 1), 0xEF46DB3751D8E999ULL);
}

/** The pinned digests' input: @p n bytes of a fixed multiplicative
 *  pattern that does not repeat every 256 bytes. */
std::vector<std::uint8_t>
pinBytes(std::size_t n)
{
    std::vector<std::uint8_t> data(n);
    for (std::size_t i = 0; i < n; ++i)
        data[i] = static_cast<std::uint8_t>((i * 2654435761ULL) >> 13);
    return data;
}

/** Lengths around every branch of the digest: the < 32-byte tail-only
 *  path, one stripe exactly, a stripe plus a tail, and 1 MiB. */
constexpr std::size_t kPinLengths[] = {0, 3, 31, 32, 33, 100, 1 << 20};

TEST(XxHash64, PinnedDigests)
{
    // {length, seed 0, seed 1}; frozen, so every digest a snapshot or
    // trace file stores keeps its value.
    struct Pin {
        std::size_t len;
        std::uint64_t seed0;
        std::uint64_t seed1;
    };
    constexpr Pin kPins[] = {
        {0, 0xEF46DB3751D8E999ULL, 0xD5AFBA1336A3BE4BULL},
        {3, 0x28823E205E353F69ULL, 0x3FB466E74886F9A4ULL},
        {31, 0xB74BAA9042B94DEEULL, 0x8B424A4A7C7BD029ULL},
        {32, 0x4E13111CED6F735DULL, 0x1F66A39093BFFF8BULL},
        {33, 0xF7B9FAF20B3BCE63ULL, 0x9FF3A5A0588CCD02ULL},
        {100, 0xD61EA92C5AE13676ULL, 0x1EF08D59A2AF8D8AULL},
        {1 << 20, 0xAE5BA942A34ABDCFULL, 0x8C913575959E3DFCULL},
    };
    for (const Pin &pin : kPins) {
        const std::vector<std::uint8_t> data = pinBytes(pin.len);
        const std::uint64_t d0 = xxhash64(data.data(), data.size(), 0);
        const std::uint64_t d1 = xxhash64(data.data(), data.size(), 1);
        std::printf("len %zu: {0x%016llxULL, 0x%016llxULL}\n", pin.len,
                    static_cast<unsigned long long>(d0),
                    static_cast<unsigned long long>(d1));
        EXPECT_EQ(d0, pin.seed0) << "length " << pin.len;
        EXPECT_EQ(d1, pin.seed1) << "length " << pin.len;
    }
}

TEST(XxHash64, StreamChunkingsMatchOneShot)
{
    for (const std::size_t len : kPinLengths) {
        const std::vector<std::uint8_t> data = pinBytes(len);
        for (const std::uint64_t seed : {0ULL, 1ULL}) {
            const std::uint64_t want = xxhash64(data.data(), len, seed);
            for (const std::size_t chunk :
                 {std::size_t(1), std::size_t(7), std::size_t(31),
                  std::size_t(32), std::size_t(33), std::size_t(4096)}) {
                Xxh64Stream stream(seed);
                for (std::size_t off = 0; off < len; off += chunk)
                    stream.update(data.data() + off,
                                  std::min(chunk, len - off));
                EXPECT_EQ(stream.digest(), want)
                    << "length " << len << " seed " << seed << " chunk "
                    << chunk;
                EXPECT_EQ(stream.totalBytes(), len);
            }
        }
    }
}

TEST(XxHash64, SensitiveToEveryByte)
{
    std::vector<std::uint8_t> data(300);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7 + 1);
    const std::uint64_t base = xxhash64(data.data(), data.size());
    for (std::size_t i : {std::size_t(0), std::size_t(31), std::size_t(32),
                          std::size_t(250), data.size() - 1}) {
        data[i] ^= 0x40;
        EXPECT_NE(xxhash64(data.data(), data.size()), base)
            << "flip at byte " << i << " went undetected";
        data[i] ^= 0x40;
    }
    EXPECT_EQ(xxhash64(data.data(), data.size()), base);
    // Length participates too.
    EXPECT_NE(xxhash64(data.data(), data.size() - 1), base);
}

TEST(Serializer, PrimitiveRoundTrip)
{
    Serializer s;
    s.u8(0xAB);
    s.u32(0xDEADBEEFu);
    s.u64(0x0123456789ABCDEFULL);
    s.b(true);
    s.b(false);
    s.f64(3.141592653589793);
    s.f64(-0.0);
    s.str("hello");
    s.str("");

    SectionReader r(s.buffer().data(), s.buffer().data() + s.size(),
                    "test");
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    EXPECT_EQ(r.f64(), 3.141592653589793);
    const double nz = r.f64();
    EXPECT_EQ(nz, 0.0);
    EXPECT_TRUE(std::signbit(nz)); // Bit-exact, not value-exact.
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.atEnd());
}

TEST(Serializer, LittleEndianLayout)
{
    Serializer s;
    s.u32(0x04030201u);
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(s.buffer()[0], 1);
    EXPECT_EQ(s.buffer()[3], 4);
}

TEST(SnapshotFile, SectionRoundTripThroughBytes)
{
    Serializer s;
    s.beginSection("alpha");
    s.u64(7);
    s.str("payload");
    s.endSection();
    s.beginSection("beta");
    s.u32(9);
    s.endSection();

    Deserializer d;
    ASSERT_EQ(d.openBytes(makeSnapshotFile(0xF00D, s), "roundtrip"), "");
    EXPECT_EQ(d.version(), kSnapshotVersion);
    EXPECT_EQ(d.fingerprint(), 0xF00DULL);

    SectionReader a = d.section("alpha");
    EXPECT_EQ(a.u64(), 7u);
    EXPECT_EQ(a.str(), "payload");
    EXPECT_TRUE(a.atEnd());
    SectionReader b = d.section("beta");
    EXPECT_EQ(b.u32(), 9u);
}

TEST(SnapshotFile, DetectsCorruptionAndTruncation)
{
    Serializer s;
    s.beginSection("data");
    for (int i = 0; i < 64; ++i)
        s.u64(static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ULL);
    s.endSection();
    const std::vector<std::uint8_t> good = makeSnapshotFile(1, s);

    // Flip one payload byte: the section checksum must catch it.
    std::vector<std::uint8_t> bad = good;
    bad[bad.size() / 2] ^= 0x01;
    Deserializer d1;
    EXPECT_NE(d1.openBytes(bad, "corrupt"), "");

    // Truncate mid-section: framing must catch it.
    std::vector<std::uint8_t> torn(good.begin(),
                                   good.end() - good.size() / 3);
    Deserializer d2;
    EXPECT_NE(d2.openBytes(torn, "torn"), "");

    // Wrong magic.
    std::vector<std::uint8_t> wrong = good;
    wrong[0] ^= 0xFF;
    Deserializer d3;
    EXPECT_NE(d3.openBytes(wrong, "wrong magic"), "");

    // And the pristine bytes still open.
    Deserializer d4;
    EXPECT_EQ(d4.openBytes(good, "good"), "");
}

TEST(SnapshotFile, RefusesAVersion2File)
{
    // v2 stored every tag-array frame's last tag, each set's way hint
    // and each array's valid count; v3 reads none of them, so a v2
    // header is refused before any section.
    Serializer s;
    s.beginSection("data");
    s.u64(1);
    s.endSection();
    std::vector<std::uint8_t> bytes = makeSnapshotFile(1, s);
    storeLe<std::uint32_t>(&bytes[sizeof(kSnapshotMagic)], 2);
    Deserializer d;
    EXPECT_EQ(d.openBytes(std::move(bytes), "old.ckpt"),
              "old.ckpt: unsupported snapshot format version 2 (this "
              "build reads version 3)");
}

TEST(SnapshotFile, CraftedLengthsCannotWrapBoundsChecks)
{
    Serializer s;
    s.beginSection("data");
    s.u64(1);
    s.endSection();
    const std::vector<std::uint8_t> good = makeSnapshotFile(1, s);
    const std::size_t name_len_at = sizeof(kSnapshotMagic) + 4 + 8;
    const std::size_t payload_len_at = name_len_at + 4 + 4; // "data"

    // name_len near UINT32_MAX: `name_len + 8` wraps to a small value
    // in 32-bit arithmetic, so a naive check would pass and read out of
    // bounds. Must be rejected as a torn header instead.
    std::vector<std::uint8_t> bad = good;
    for (int i = 0; i < 4; ++i)
        bad[name_len_at + i] = 0xFF;
    Deserializer d1;
    EXPECT_NE(d1.openBytes(bad, "wrapped name"), "");

    // payload_len = 2^64 - 8: `payload_len + 8` wraps to zero, which
    // would pass a naive check and underflow the section range.
    bad = good;
    bad[payload_len_at] = 0xF8;
    for (int i = 1; i < 8; ++i)
        bad[payload_len_at + i] = 0xFF;
    Deserializer d2;
    EXPECT_NE(d2.openBytes(bad, "wrapped payload"), "");
}

TEST(Fingerprint, CoversConfigAndRunIdentity)
{
    const SystemConfig base = makeDefaultConfig();
    RunOptions opts;
    const std::uint64_t fp = snapshotFingerprint(base, "tpc-w", opts, 0);
    EXPECT_EQ(snapshotFingerprint(base, "tpc-w", opts, 0), fp);

    SystemConfig cgct = base.withCgct(512);
    EXPECT_NE(snapshotFingerprint(cgct, "tpc-w", opts, 0), fp);
    cgct = base.withCgct(256);
    EXPECT_NE(snapshotFingerprint(base.withCgct(512), "tpc-w", opts, 0),
              snapshotFingerprint(cgct, "tpc-w", opts, 0));

    EXPECT_NE(snapshotFingerprint(base, "barnes", opts, 0), fp);
    RunOptions other = opts;
    other.seed = opts.seed + 1;
    EXPECT_NE(snapshotFingerprint(base, "tpc-w", other, 0), fp);
    EXPECT_NE(snapshotFingerprint(base, "tpc-w", opts, 10000), fp);

    // Observability knobs never affect behavior, so they must not
    // affect the fingerprint: a plain image restores under --trace and
    // --check-invariants (contract row 8).
    SystemConfig traced = base;
    traced.obs.trace = true;
    traced.obs.checkInvariants = true;
    EXPECT_EQ(snapshotFingerprint(traced, "tpc-w", opts, 0), fp);

    // maxEvents is a runaway guard, not part of the experiment.
    RunOptions capped = opts;
    capped.maxEvents = 123456;
    EXPECT_EQ(snapshotFingerprint(base, "tpc-w", capped, 0), fp);
}

TEST(Fingerprint, CoversEveryConfigField)
{
    // One change to each settable, behaviour-affecting SystemConfig
    // field (ConfigPin.CanonicalBytes pins the constants' slots). A field
    // added to SystemConfig belongs here and in canonicalizeConfig.
    using Change = void (*)(SystemConfig &);
#define CGCT_SET(field, value) \
    std::pair<const char *, Change> { \
        #field, [](SystemConfig &c) { c.field = value; } \
    }
    const std::pair<const char *, Change> changes[] = {
        CGCT_SET(topology.numCpus, 8),
        CGCT_SET(topology.cpusPerChip, 1),
        CGCT_SET(topology.chipsPerSwitch, 1),
        CGCT_SET(topology.switchesPerBoard, 1),
        CGCT_SET(core.robEntries, 128),
        CGCT_SET(core.lsqEntries, 64),
        CGCT_SET(core.maxOutstandingMisses, 16),
        CGCT_SET(l1i.sizeBytes, 128 * 1024),
        CGCT_SET(l1i.associativity, 8),
        CGCT_SET(l1i.lineBytes, 128),
        CGCT_SET(l1i.latency, 2),
        CGCT_SET(l1d.sizeBytes, 128 * 1024),
        CGCT_SET(l1d.associativity, 8),
        CGCT_SET(l1d.lineBytes, 128),
        CGCT_SET(l1d.latency, 2),
        CGCT_SET(l2.sizeBytes, 2048 * 1024),
        CGCT_SET(l2.associativity, 4),
        CGCT_SET(l2.lineBytes, 128),
        CGCT_SET(l2.latency, 13),
        CGCT_SET(prefetch.enabled, false),
        CGCT_SET(interconnect.topology, TopologyKind::Hier),
        CGCT_SET(cgct.enabled, false),
        CGCT_SET(cgct.regionBytes, 256),
        CGCT_SET(cgct.rcaSets, 4096),
        CGCT_SET(cgct.rcaWays, 4),
        CGCT_SET(cgct.selfInvalidation, false),
        CGCT_SET(cgct.favorEmptyRegions, false),
        CGCT_SET(cgct.threeStateProtocol, true),
        CGCT_SET(cgct.sharedPerChip, true),
        CGCT_SET(dma.enabled, true),
        CGCT_SET(dma.meanInterval, 4000),
        CGCT_SET(dma.bufferBytes, 1024),
        CGCT_SET(dma.readFraction, 0.25),
        CGCT_SET(dma.targetBase, 0x10000000),
        CGCT_SET(dma.targetBytes, 32ULL << 20),
    };
    const std::pair<const char *, Change> unchanged[] = {
        CGCT_SET(obs.trace, true),
        CGCT_SET(obs.checkInvariants, true),
    };
#undef CGCT_SET

    const SystemConfig base = makeDefaultConfig().withCgct(512);
    const RunOptions opts;
    const auto fingerprint = [&opts](const SystemConfig &c) {
        return snapshotFingerprint(c, "tpc-w", opts, 0);
    };
    std::map<std::uint64_t, const char *> seen{{fingerprint(base), "base"}};
    for (const auto &[field, change] : changes) {
        SystemConfig c = base;
        change(c);
        const auto [it, fresh] = seen.emplace(fingerprint(c), field);
        EXPECT_TRUE(fresh) << field << " gives the fingerprint of "
                           << it->second;
    }
    for (const auto &[field, change] : unchanged) {
        SystemConfig c = base;
        change(c);
        EXPECT_EQ(fingerprint(c), fingerprint(base)) << field;
    }
}

TEST(Fingerprint, MismatchRefusesRestore)
{
    // An image saved under 512 B regions, restored through restoreImage
    // into a 1024 B system that checks its own fingerprint: refused, with
    // both fingerprints named, before any section is read.
    const WorkloadProfile &profile = benchmarkByName("tpc-w");
    RunOptions opts;
    opts.opsPerCpu = 6000;
    opts.warmupOps = 0;
    const auto drained = [&](const SystemConfig &config) {
        SyntheticWorkload workload(profile, config.topology.numCpus,
                                   opts.opsPerCpu, opts.seed);
        System sys(config, workload);
        workload.setPauseAt(3000);
        runPhase(sys, /*resume=*/false, opts.maxEvents);
        std::size_t image_bytes = 0;
        return saveImage(
            sys, workload,
            snapshotFingerprint(config, profile.name, opts, 3000),
            image_bytes);
    };
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    const std::vector<std::uint8_t> image = drained(config);

    const SystemConfig other = makeDefaultConfig().withCgct(1024);
    SyntheticWorkload workload(profile, other.topology.numCpus,
                               opts.opsPerCpu, opts.seed);
    System sys(other, workload);
    EXPECT_EXIT(restoreImage(sys, workload, std::vector<std::uint8_t>(image),
                             snapshotFingerprint(other, profile.name, opts,
                                                 3000),
                             "512 B image"),
                ::testing::ExitedWithCode(1),
                "512 B image belongs to another run");
}

TEST(Rng, SerializeRoundTripContinuesStream)
{
    Rng a(12345);
    for (int i = 0; i < 100; ++i)
        a.next();
    Serializer s;
    Archive save(s);
    a.transfer(save);
    Rng b(1);
    SectionReader r(s.buffer().data(), s.buffer().data() + s.size(),
                    "rng");
    Archive load(r);
    b.transfer(load);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

RunResult
makeSampleResult()
{
    RunResult r;
    r.workload = "sample";
    r.regionBytes = 512;
    r.seed = 99;
    r.cycles = 123456;
    r.instructions = 777;
    r.requestsTotal = 1000;
    r.broadcasts = 600;
    r.directs = 300;
    r.locals = 100;
    r.writebacks = 55;
    for (std::size_t c = 0; c < kNumCategories; ++c) {
        r.broadcastsByCat[c] = 10 + c;
        r.directsByCat[c] = 20 + c;
        r.localsByCat[c] = 30 + c;
        r.oracleTotalByCat[c] = 40 + c;
        r.oracleUnnecessaryByCat[c] = 5 + c;
    }
    r.oracleTotal = 600;
    r.oracleUnnecessary = 123;
    r.avgBroadcastsPer100k = 1234.5;
    r.peakBroadcastsPer100k = 2000.0;
    r.l2MissRatio = 0.125;
    r.avgMissLatency = 217.75;
    r.cacheToCache = 42;
    r.memorySupplied = 58;
    r.rcaEvictedEmpty = 1;
    r.rcaEvictedOne = 2;
    r.rcaEvictedTwo = 3;
    r.rcaEvictedMore = 4;
    r.rcaSelfInvalidations = 5;
    r.inclusionWritebacks = 6;
    r.avgLinesPerEvictedRegion = 1.5;
    HistogramSnapshot h;
    h.name = "h";
    h.desc = "a histogram";
    h.bucketWidth = 8;
    h.samples = 3;
    h.sum = 24;
    h.buckets = {1, 0, 2};
    r.histograms.push_back(h);
    DistributionSnapshot d;
    d.name = "d";
    d.desc = "a distribution";
    d.samples = 4;
    d.min = 1.0;
    d.max = 9.0;
    d.mean = 4.25;
    d.stddev = 3.0;
    r.distributions.push_back(d);
    return r;
}

TEST(RunResultCodec, RoundTripsEveryField)
{
    const RunResult in = makeSampleResult();
    Serializer s;
    encodeRunResult(s, in);
    SectionReader r(s.buffer().data(), s.buffer().data() + s.size(),
                    "result");
    const RunResult out = decodeRunResult(r);
    EXPECT_TRUE(r.atEnd());

    Serializer again;
    encodeRunResult(again, out);
    ASSERT_EQ(again.size(), s.size());
    EXPECT_EQ(std::memcmp(again.buffer().data(), s.buffer().data(),
                          s.size()),
              0);
    EXPECT_EQ(out.workload, in.workload);
    EXPECT_EQ(out.cycles, in.cycles);
    ASSERT_EQ(out.histograms.size(), 1u);
    EXPECT_EQ(out.histograms[0].buckets, in.histograms[0].buckets);
    ASSERT_EQ(out.distributions.size(), 1u);
    EXPECT_EQ(out.distributions[0].mean, in.distributions[0].mean);
}

/** makeSampleResult's encoding with the @p len bytes at @p offset
 *  into the first copy of @p needle set to all ones. */
std::vector<std::uint8_t>
craftedResult(const std::vector<std::uint8_t> &needle, std::size_t offset,
              std::size_t len)
{
    Serializer s;
    encodeRunResult(s, makeSampleResult());
    std::vector<std::uint8_t> bytes = s.buffer();
    const auto at =
        std::search(bytes.begin(), bytes.end(), needle.begin(), needle.end());
    EXPECT_NE(at, bytes.end());
    if (at != bytes.end())
        std::fill_n(at + static_cast<std::ptrdiff_t>(offset), len, 0xFF);
    return bytes;
}

/** Decode @p bytes as one record, with any allocation above 1 MiB
 *  ending the process with exit code 3; run inside EXPECT_EXIT. */
void
decodeBounded(const std::vector<std::uint8_t> &bytes)
{
    SectionReader r(bytes.data(), bytes.data() + bytes.size(), "crafted");
    g_allocBound = std::size_t{1} << 20;
    decodeRunResult(r);
    std::exit(0);
}

TEST(SnapshotDecoderDeath, CraftedHistogramCountExitsCleanly)
{
    // The histogram count (u32 1) directly precedes histogram "h".
    const std::vector<std::uint8_t> bytes =
        craftedResult({1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 'h'}, 0, 4);
    EXPECT_EXIT(decodeBounded(bytes), ::testing::ExitedWithCode(1),
                "crafted: histograms 4294967295 exceeds");
}

TEST(SnapshotDecoderDeath, CraftedBucketCountExitsCleanly)
{
    // The bucket count (u64 3) directly precedes buckets {1, 0, 2}.
    std::vector<std::uint8_t> needle(32, 0);
    needle[0] = 3;
    needle[8] = 1;
    needle[24] = 2;
    const std::vector<std::uint8_t> bytes = craftedResult(needle, 0, 8);
    EXPECT_EXIT(decodeBounded(bytes), ::testing::ExitedWithCode(1),
                "crafted: histogram buckets 18446744073709551615 exceeds");
}

TEST(SnapshotDecoderDeath, CraftedDistributionCountExitsCleanly)
{
    // The distribution count (u32 1) directly precedes distribution "d".
    const std::vector<std::uint8_t> bytes =
        craftedResult({1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 'd'}, 0, 4);
    EXPECT_EXIT(decodeBounded(bytes), ::testing::ExitedWithCode(1),
                "crafted: distributions 4294967295 exceeds");
}

TEST(SnapshotDecoderDeath, TruncatedResultExitsCleanly)
{
    Serializer s;
    encodeRunResult(s, makeSampleResult());
    std::vector<std::uint8_t> bytes = s.buffer();
    // Whole record decodes; one byte short names the reader and stops.
    EXPECT_EXIT(decodeBounded(bytes), ::testing::ExitedWithCode(0), "");
    bytes.pop_back();
    EXPECT_EXIT(decodeBounded(bytes), ::testing::ExitedWithCode(1),
                "crafted: read past end");
}

// ---------------------------------------------------------------------------
// Seeded CGCTSNAP mutation loop: bit flips, truncations, section-length
// and count-field edits of two small images, saveImage's of a drained
// generated run on the two-level hierarchy (whose mask tables are stored
// behind a count) and on the bus. Half the mutants are resealed, so they
// pass the section checksums and reach Archive's count / index / expect
// checks. Each mutant that passes the framing is loaded by restoreImage
// in a forked child: it must load, or exit 1 with one [fatal] line,
// never crash, trip a sanitizer or allocate from an unchecked count.

/** A small 4-CPU machine, so an image is tens of KB. */
SystemConfig
mutationConfig(TopologyKind topology)
{
    SystemConfig c = makeDefaultConfig().withCgct(512, 64, 2);
    c.l1i = CacheParams{2 * 1024, 2, 64, 1};
    c.l1d = CacheParams{2 * 1024, 2, 64, 1};
    c.l2 = CacheParams{16 * 1024, 4, 64, 12};
    c.interconnect.topology = topology;
    return c;
}

RunOptions
mutationRun()
{
    RunOptions opts;
    opts.opsPerCpu = 1200;
    opts.warmupOps = 0;
    opts.seed = 5;
    return opts;
}

/** One section's framing: nameLen u32, name, payloadLen u64, payload,
 *  xxhash64 u64. */
struct SectionAt {
    std::size_t lenAt = 0; ///< payloadLen field.
    std::size_t payloadAt = 0;
    std::uint64_t payloadLen = 0;
};

/** The sections of @p b up to the first torn one. */
std::vector<SectionAt>
sectionsOf(const std::vector<std::uint8_t> &b)
{
    std::vector<SectionAt> out;
    std::size_t off = 8 + 4 + 8;
    while (off <= b.size() && b.size() - off >= 4) {
        const std::uint64_t name_len = loadLe<std::uint32_t>(&b[off]);
        if (name_len > b.size() - off - 4 ||
            b.size() - off - 4 - name_len < 8)
            break;
        SectionAt sec;
        sec.lenAt = off + 4 + name_len;
        sec.payloadAt = sec.lenAt + 8;
        sec.payloadLen = loadLe<std::uint64_t>(&b[sec.lenAt]);
        if (sec.payloadLen > b.size() - sec.payloadAt ||
            b.size() - sec.payloadAt - sec.payloadLen < 8)
            break;
        out.push_back(sec);
        off = sec.payloadAt + sec.payloadLen + 8;
    }
    return out;
}

/** Recompute the checksum of every intact section of @p b. */
void
resealSections(std::vector<std::uint8_t> &b)
{
    for (const SectionAt &sec : sectionsOf(b))
        storeLe<std::uint64_t>(&b[sec.payloadAt + sec.payloadLen],
                               xxhash64(&b[sec.payloadAt], sec.payloadLen));
}

/** A stored count: its offset and width in bytes. */
struct CountAt {
    std::size_t at = 0;
    unsigned width = 0;
};

/**
 * The counts of trailing arrays in @p b: each u32 or u64 whose value
 * times an item size (8, 12 or 16 bytes) is exactly the bytes after it
 * in its section. That finds the hierarchy's mask-table count.
 */
std::vector<CountAt>
countsOf(const std::vector<std::uint8_t> &b,
         const std::vector<SectionAt> &secs)
{
    std::vector<CountAt> out;
    for (const SectionAt &sec : secs) {
        const std::size_t end = sec.payloadAt + sec.payloadLen;
        for (unsigned width : {4u, 8u}) {
            for (std::size_t at = sec.payloadAt; at + width <= end; ++at) {
                const std::uint64_t v =
                    width == 4 ? loadLe<std::uint32_t>(&b[at])
                               : loadLe<std::uint64_t>(&b[at]);
                const std::size_t after = end - at - width;
                for (std::uint64_t item : {8u, 12u, 16u})
                    if (v <= after && v * item == after) {
                        out.push_back({at, width});
                        break;
                    }
            }
        }
    }
    return out;
}

/** Apply one seeded mutation to @p b, whose unmutated sections are
 *  @p secs and trailing-array counts @p counts. */
void
mutateSnapshot(std::vector<std::uint8_t> &b,
               const std::vector<SectionAt> &secs,
               const std::vector<CountAt> &counts, Rng &rng)
{
    const SectionAt &sec = secs[rng.nextBelow(secs.size())];
    switch (rng.nextBelow(4)) {
      case 0: // Bit flips anywhere.
        for (std::uint64_t k = 1 + rng.nextBelow(3); k > 0; --k)
            b[rng.nextBelow(b.size())] ^=
                static_cast<std::uint8_t>(1u << rng.nextBelow(8));
        break;
      case 1: // Truncation, possibly to nothing.
        b.resize(rng.nextBelow(b.size()));
        break;
      case 2: { // A section's length field, absolute or nudged.
        const std::uint64_t edits[] = {0, 1, b.size(), UINT64_MAX,
                                       UINT64_MAX - 7, rng.next()};
        storeLe<std::uint64_t>(
            &b[sec.lenAt],
            rng.chance(0.5) ? edits[rng.nextBelow(std::size(edits))]
                            : sec.payloadLen + rng.nextRange(-9, 9));
        break;
      }
      default: { // A trailing-array count, or any u32 of a payload.
        CountAt field{sec.payloadAt + rng.nextBelow(sec.payloadLen - 3), 4};
        if (rng.chance(0.5))
            field = counts[rng.nextBelow(counts.size())];
        const std::uint64_t v = field.width == 4
                                    ? loadLe<std::uint32_t>(&b[field.at])
                                    : loadLe<std::uint64_t>(&b[field.at]);
        const std::uint64_t edits[] = {0, v + 1, v - 1, v << 16,
                                       0x7FFFFFFF, UINT32_MAX, UINT64_MAX,
                                       rng.next()};
        const std::uint64_t edit = edits[rng.nextBelow(std::size(edits))];
        if (field.width == 4)
            storeLe<std::uint32_t>(&b[field.at],
                                   static_cast<std::uint32_t>(edit));
        else
            storeLe<std::uint64_t>(&b[field.at], edit);
        break;
      }
    }
}

/** The drain point of a mutation seed, in ops per CPU. */
constexpr std::uint64_t kMutationDrainOps = 400;

/** A mutation seed: an image and the machine it loads into. */
struct SnapshotSeed {
    SystemConfig config;
    std::vector<std::uint8_t> bytes;

    std::uint64_t
    fingerprint() const
    {
        return snapshotFingerprint(config, "tpc-w", mutationRun(),
                                   kMutationDrainOps);
    }
};

/** The seed of @p config: its image at the drain point. */
SnapshotSeed
drainedSeed(const SystemConfig &config)
{
    const RunOptions opts = mutationRun();
    SnapshotSeed seed{config, {}};
    SyntheticWorkload workload(benchmarkByName("tpc-w"),
                               config.topology.numCpus, opts.opsPerCpu,
                               opts.seed);
    System sys(config, workload);
    workload.setPauseAt(kMutationDrainOps);
    runPhase(sys, /*resume=*/false, opts.maxEvents);
    std::size_t image_bytes = 0;
    seed.bytes = saveImage(sys, workload, seed.fingerprint(), image_bytes);
    return seed;
}

/** Load @p bytes into a fresh system as the sampler's windows do. */
void
loadImage(const SnapshotSeed &seed, std::vector<std::uint8_t> bytes)
{
    const RunOptions opts = mutationRun();
    SyntheticWorkload workload(benchmarkByName("tpc-w"),
                               seed.config.topology.numCpus, opts.opsPerCpu,
                               opts.seed);
    System sys(seed.config, workload);
    restoreImage(sys, workload, std::move(bytes), seed.fingerprint(),
                 "mutant");
}

/** How one forked load ended: its exit code (-1 on a signal) and what
 *  it wrote to stderr. */
struct LoadOutcome {
    int code = -1;
    std::string err;
};

LoadOutcome
loadInChild(const SnapshotSeed &seed, const std::vector<std::uint8_t> &bytes)
{
    int pipe_fd[2];
    EXPECT_EQ(::pipe(pipe_fd), 0);
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::dup2(pipe_fd[1], STDERR_FILENO);
        ::close(pipe_fd[0]);
        g_allocBound = std::size_t{64} << 20;
        loadImage(seed, bytes);
        std::_Exit(0);
    }
    ::close(pipe_fd[1]);
    LoadOutcome out;
    char buf[512];
    ssize_t got;
    while ((got = ::read(pipe_fd[0], buf, sizeof buf)) > 0)
        out.err.append(buf, static_cast<std::size_t>(got));
    ::close(pipe_fd[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (WIFEXITED(status))
        out.code = WEXITSTATUS(status);
    return out;
}

TEST(SnapshotMutation, SeededMutantsLoadOrExitCleanly)
{
    const SnapshotSeed hier = drainedSeed(mutationConfig(TopologyKind::Hier));
    const SnapshotSeed bus = drainedSeed(mutationConfig(TopologyKind::Bus));

    Rng rng(0x5eed5a7);
    unsigned framing = 0, rejected = 0, loaded = 0;
    for (const SnapshotSeed *seed : {&hier, &bus}) {
        const std::vector<SectionAt> secs = sectionsOf(seed->bytes);
        ASSERT_GT(secs.size(), 10u);
        const std::vector<CountAt> counts = countsOf(seed->bytes, secs);
        ASSERT_FALSE(counts.empty());
        const LoadOutcome intact = loadInChild(*seed, seed->bytes);
        ASSERT_EQ(intact.code, 0) << intact.err;

        for (int m = 0; m < 1000; ++m) {
            std::vector<std::uint8_t> b = seed->bytes;
            mutateSnapshot(b, secs, counts, rng);
            if (rng.chance(0.5))
                resealSections(b);
            Deserializer d;
            if (!d.openBytes(b, "mutant").empty()) {
                ++framing;
                continue;
            }
            const LoadOutcome out = loadInChild(*seed, b);
            const bool clean_fatal =
                out.code == 1 && out.err.rfind("[fatal] ", 0) == 0 &&
                out.err.find('\n') + 1 == out.err.size();
            EXPECT_TRUE(out.code == 0 || clean_fatal)
                << "mutant " << m << " exited " << out.code << ":\n"
                << out.err;
            if (out.code == 0)
                ++loaded;
            else
                ++rejected;
        }
    }
    std::printf("framing errors %u, load errors %u, loaded %u of 2000\n",
                framing, rejected, loaded);
    // The loop reaches every layer: the framing and checksums, the
    // load-side checks behind them, and mutants that still load.
    EXPECT_GT(framing, 1000u);
    EXPECT_GT(rejected, 100u);
    EXPECT_GT(loaded, 100u);
}

// Decoders fed checksum-valid but crafted bytes must exit with a message
// naming what was wrong — no abort, no allocation sized by the crafted
// field, no out-of-bounds index (these run under the sanitize preset).

/** Save @p from raw, let @p patch edit the bytes, load them into @p to;
 *  @p args follow the archive in each transfer() call. */
template <class T, class Patch, class... Args>
void
reload(T &from, T &to, Patch patch, Args... args)
{
    Serializer s;
    Archive save(s);
    from.transfer(save, args...);
    std::vector<std::uint8_t> bytes = s.buffer();
    patch(bytes);
    SectionReader r(bytes.data(), bytes.data() + bytes.size(), "patched");
    Archive load(r);
    to.transfer(load, args...);
}

TEST(SnapshotDecoderDeath, MshrSlotsMustBeDistinctAndInRange)
{
    MshrFile saved(4);
    MshrFile loaded(4);
    // Layout: capacity u32, then the four free-slot ids as u32.
    EXPECT_EXIT(reload(saved, loaded,
                       [](std::vector<std::uint8_t> &b) { b[4] = 9; }),
                ::testing::ExitedWithCode(1),
                "patched: MSHR free slot 9 out of range \\(bound 4\\)");
    EXPECT_EXIT(reload(saved, loaded,
                       [](std::vector<std::uint8_t> &b) { b[8] = b[4]; }),
                ::testing::ExitedWithCode(1),
                "patched: MSHR free slot 3 listed twice");
}

/** A 4-set, 2-way cache of 64 B lines. */
const CacheParams kFourSetCache{4 * 2 * 64, 2, 64, 1};

/** The memory-controller count the RCA cases load against. */
constexpr unsigned kMemCtrls = 4;

// A tag array's layout (SetAssocArray::transfer) follows its owner's
// geometry: one u64 occupancy mask per set, then every frame's entry in
// set-major, way-minor order. A cache frame is its line address u64,
// state byte, ready tick u64 and LRU tick u64: 25 bytes.
constexpr std::size_t kCacheMasks = 16;
constexpr std::size_t kCacheFrames = kCacheMasks + 4 * 8;
constexpr std::size_t kCacheFrameBytes = 25;

TEST(SnapshotDecoderDeath, CacheOccupancyStaysInsideTheSet)
{
    Cache saved("l2", kFourSetCache);
    Cache loaded("l2", kFourSetCache);
    EXPECT_EXIT(reload(saved, loaded,
                       [&](std::vector<std::uint8_t> &b) {
                           b[kCacheMasks] = 0x04;
                       }),
                ::testing::ExitedWithCode(1),
                "patched: occupancy mask 0000000000000004 names a way at "
                "or above 2");
}

TEST(SnapshotDecoderDeath, OccupiedFrameHoldsAValidBlockOfItsSet)
{
    Cache saved("l2", kFourSetCache);
    Cache loaded("l2", kFourSetCache);
    Eviction ev;
    saved.fill(0x1040, LineState::Shared, 0, 0, ev); // set 1, way 0
    const std::size_t frame = kCacheFrames + 2 * kCacheFrameBytes;
    const auto store = [frame](std::uint64_t addr) {
        return [frame, addr](std::vector<std::uint8_t> &b) {
            std::memcpy(&b[frame], &addr, sizeof addr);
        };
    };
    EXPECT_EXIT(reload(saved, loaded, store(0x1041)),
                ::testing::ExitedWithCode(1),
                "patched: way 0 of set 1 holds misaligned address "
                "0000000000001041");
    // Line 0x1080 is block 0x42, which maps to set 2.
    EXPECT_EXIT(reload(saved, loaded, store(0x1080)),
                ::testing::ExitedWithCode(1),
                "patched: way 0 of set 1 holds address 0000000000001080 "
                "of set 2");
    EXPECT_EXIT(reload(saved, loaded,
                       [frame](std::vector<std::uint8_t> &b) {
                           b[frame + 8] = 0; // LineState::Invalid
                       }),
                ::testing::ExitedWithCode(1),
                "patched: occupied way 0 of set 1 holds an invalid entry");
    // Another block of set 1 loads in its place.
    reload(saved, loaded, store(0x1140));
    EXPECT_NE(std::as_const(loaded).lookup(0x1140), nullptr);
    EXPECT_EQ(std::as_const(loaded).lookup(0x1040), nullptr);
}

TEST(SnapshotDecoderDeath, SetHoldsEachBlockInOneWay)
{
    // Line 0x1040 in both ways of set 1: a lookup would find way 0, and
    // invalidating it would leave way 1 to reappear.
    Cache saved("l2", kFourSetCache);
    Cache loaded("l2", kFourSetCache);
    Eviction ev;
    saved.fill(0x1040, LineState::Shared, 0, 0, ev); // set 1, way 0
    const std::size_t way0 = kCacheFrames + 2 * kCacheFrameBytes;
    EXPECT_EXIT(reload(saved, loaded,
                       [way0](std::vector<std::uint8_t> &b) {
                           b[kCacheMasks + 8] = 0b11;
                           std::memcpy(&b[way0 + kCacheFrameBytes],
                                       &b[way0], kCacheFrameBytes);
                       }),
                ::testing::ExitedWithCode(1),
                "patched: set 1 holds block 0000000000001040 in ways 0 "
                "and 1");
}

TEST(SnapshotDecoderDeath, EmptyFrameStoresAddressZero)
{
    Cache saved("l2", kFourSetCache);
    Cache loaded("l2", kFourSetCache);
    EXPECT_EXIT(reload(saved, loaded,
                       [](std::vector<std::uint8_t> &b) {
                           b[kCacheFrames + kCacheFrameBytes] = 0x40;
                       }),
                ::testing::ExitedWithCode(1),
                "patched: empty way 1 of set 0 stores address "
                "0000000000000040");
}

TEST(SnapshotDecoder, RestoredValidCountIsTheOccupiedFrames)
{
    // A cache section written field by field: geometry, the four masks,
    // the eight frames, then the six statistics. Sets 0 and 1 hold
    // three lines between them; no count is stored.
    const std::uint64_t masks[4] = {0b01, 0b11, 0, 0};
    const Addr lines[8] = {0x1000, 0, 0x1040, 0x2040, 0, 0, 0, 0};
    Serializer s;
    s.u64(4);
    s.u32(2);
    s.u32(64);
    for (std::uint64_t m : masks)
        s.u64(m);
    for (Addr line : lines) {
        s.u64(line);
        s.u8(line ? static_cast<std::uint8_t>(LineState::Shared) : 0);
        s.u64(0);
        s.u64(line ? 7 : 0);
    }
    for (int stat = 0; stat < 6; ++stat)
        s.u64(0);
    const std::vector<std::uint8_t> bytes = s.buffer();

    // The loading cache held five other lines, some of them in way 1,
    // which the load must clear.
    Cache loaded("l2", kFourSetCache);
    Eviction ev;
    for (Addr a : {0x3000, 0x3100, 0x3040, 0x3140, 0x3080})
        loaded.fill(a, LineState::Modified, 0, 0, ev);
    SectionReader r(bytes.data(), bytes.data() + bytes.size(), "crafted");
    Archive load(r);
    loaded.transfer(load);
    EXPECT_TRUE(r.atEnd());

    EXPECT_EQ(loaded.array().countValid(), 3u);
    for (Addr a : {0x1000, 0x1040, 0x2040})
        EXPECT_NE(loaded.lookup(a), nullptr) << std::hex << a;
    EXPECT_EQ(loaded.lookup(0x3000), nullptr);
    Serializer again;
    Archive save(again);
    loaded.transfer(save);
    EXPECT_EQ(again.buffer(), bytes);
}

TEST(SnapshotDecoderDeath, CacheLineStateIsALineState)
{
    Cache saved("l2", kFourSetCache);
    Cache loaded("l2", kFourSetCache);
    // Layout: frame 0's line address u64, then its state byte.
    const std::size_t state = kCacheFrames + 8;
    EXPECT_EXIT(reload(saved, loaded,
                       [&](std::vector<std::uint8_t> &b) {
                           b[state] = 5; // one past Modified
                       }),
                ::testing::ExitedWithCode(1),
                "patched: cache line state 5 out of range \\(bound 5\\)");
}

TEST(SnapshotDecoderDeath, RegionStateIsARegionState)
{
    RegionCoherenceArray saved(4, 2, 512, true);
    RegionCoherenceArray loaded(4, 2, 512, true);
    // Layout: 20 geometry bytes, 4 masks, then entry 0: region address
    // u64 and the state byte.
    const std::size_t state = 20 + 4 * 8 + 8;
    EXPECT_EXIT(reload(saved, loaded,
                       [&](std::vector<std::uint8_t> &b) {
                           b[state] = 0xFF;
                       },
                       kMemCtrls),
                ::testing::ExitedWithCode(1),
                "patched: region state 255 out of range \\(bound 7\\)");
}

TEST(SnapshotDecoderDeath, RcaMemCtrlIsAController)
{
    RegionCoherenceArray saved(4, 2, 512, true);
    RegionCoherenceArray loaded(4, 2, 512, true);
    // Layout: 20 geometry bytes, 4 masks, then entry 0: region address
    // u64, state byte, line count u32 and the memory controller u64 (all
    // ones for none).
    const std::size_t mc = 20 + 4 * 8 + 8 + 1 + 4;
    const auto store = [mc](std::uint64_t v) {
        return [mc, v](std::vector<std::uint8_t> &b) {
            std::memcpy(&b[mc], &v, sizeof v);
        };
    };
    EXPECT_EXIT(reload(saved, loaded, store(kMemCtrls), kMemCtrls),
                ::testing::ExitedWithCode(1),
                "patched: RCA memory controller 4 out of range "
                "\\(bound 4\\)");
    EXPECT_EXIT(reload(saved, loaded, store(~std::uint64_t{1}), kMemCtrls),
                ::testing::ExitedWithCode(1),
                "patched: RCA memory controller 18446744073709551614 out of "
                "range");
    // The last controller, and none at all, both load.
    reload(saved, loaded, store(kMemCtrls - 1), kMemCtrls);
    reload(saved, loaded, store(~std::uint64_t{0}), kMemCtrls);
}

TEST(SweepFingerprintTest, TracksSpecDefinition)
{
    SweepSpec spec;
    spec.profiles.push_back(&benchmarkByName("tpc-w"));
    spec.regionSizes = {0, 512};
    spec.baseConfig = makeDefaultConfig();
    const std::uint64_t fp = sweepFingerprint(spec);
    EXPECT_EQ(sweepFingerprint(spec), fp);

    SweepSpec more = spec;
    more.regionSizes.push_back(1024);
    EXPECT_NE(sweepFingerprint(more), fp);
    SweepSpec seeds = spec;
    seeds.seedsPerCell += 1;
    EXPECT_NE(sweepFingerprint(seeds), fp);
    SweepSpec ops = spec;
    ops.opts.opsPerCpu += 1;
    EXPECT_NE(sweepFingerprint(ops), fp);
}

/** A two-profile, two-region spec on the default configuration. */
SweepSpec
fingerprintSpec()
{
    SweepSpec spec;
    spec.profiles = {&benchmarkByName("tpc-w"), &benchmarkByName("ocean")};
    spec.regionSizes = {0, 512};
    spec.baseConfig = makeDefaultConfig();
    return spec;
}

TEST(SweepFingerprintTest, CoversProfilesAndTheirOrder)
{
    // cgct_paper dedupes sweeps by fingerprint: a reordered matrix has
    // other rows in each position, so it is another sweep.
    const SweepSpec spec = fingerprintSpec();
    SweepSpec swapped = spec;
    std::swap(swapped.profiles[0], swapped.profiles[1]);
    EXPECT_NE(sweepFingerprint(swapped), sweepFingerprint(spec));
    SweepSpec other = spec;
    other.profiles[1] = &benchmarkByName("barnes");
    EXPECT_NE(sweepFingerprint(other), sweepFingerprint(spec));
    SweepSpec regions = spec;
    regions.regionSizes = {512, 0};
    EXPECT_NE(sweepFingerprint(regions), sweepFingerprint(spec));
}

TEST(SweepFingerprintTest, CoversTheBaseConfiguration)
{
    const SweepSpec spec = fingerprintSpec();
    SweepSpec topo = spec;
    topo.baseConfig.interconnect.topology = TopologyKind::Hier;
    EXPECT_NE(sweepFingerprint(topo), sweepFingerprint(spec));
    SweepSpec rca = spec;
    rca.baseConfig.cgct.rcaSets /= 2;
    EXPECT_NE(sweepFingerprint(rca), sweepFingerprint(spec));
}

TEST(SweepFingerprintTest, CoversBaseSeedAndWarmup)
{
    const SweepSpec spec = fingerprintSpec();
    SweepSpec seed = spec;
    seed.baseSeed += 1;
    EXPECT_NE(sweepFingerprint(seed), sweepFingerprint(spec));
    SweepSpec warm = spec;
    warm.opts.warmupOps += 1;
    EXPECT_NE(sweepFingerprint(warm), sweepFingerprint(spec));
}

TEST(SweepFingerprintTest, CoversSamplingGeometry)
{
    SweepSpec spec = fingerprintSpec();
    const std::uint64_t full = sweepFingerprint(spec);
    spec.sampling.windows = 8;
    const std::uint64_t sampled = sweepFingerprint(spec);
    EXPECT_NE(sampled, full);
    SweepSpec windows = spec;
    windows.sampling.windows += 1;
    EXPECT_NE(sweepFingerprint(windows), sampled);
    SweepSpec window_ops = spec;
    window_ops.sampling.windowOps += 1;
    EXPECT_NE(sweepFingerprint(window_ops), sampled);
    SweepSpec warm = spec;
    warm.sampling.warmMode = WarmMode::Detailed;
    EXPECT_NE(sweepFingerprint(warm), sampled);
    // A full-detail sweep carries no sampling geometry to key on.
    SweepSpec unused = fingerprintSpec();
    unused.sampling.windowOps += 1;
    EXPECT_EQ(sweepFingerprint(unused), full);
}

TEST(SweepFingerprintTest, LeavesOutTheSimulateHook)
{
    // Documented on SweepSpec::simulate: a caller that keys sweeps by
    // fingerprint keys the hook itself.
    const SweepSpec spec = fingerprintSpec();
    SweepSpec hooked = spec;
    hooked.simulate = [](const SweepCell &, const SystemConfig &config,
                         const RunOptions &opts) {
        return simulateOnce(config, benchmarkByName("tpc-w"), opts);
    };
    EXPECT_EQ(sweepFingerprint(hooked), sweepFingerprint(spec));
}

} // namespace
