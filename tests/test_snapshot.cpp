/**
 * @file
 * Snapshot serialization unit tests: the XXH64 digest, primitive and
 * section round trips, file framing, corruption detection, the config
 * fingerprint, RunResult journal encoding, the sweep resume journal's
 * crash semantics (torn-tail truncation, fingerprint refusal, a seeded
 * loop of torn and bit-flipped journals), the frozen bytes of a journal
 * file, the load-side checks that turn crafted counts and indices into
 * clean exits, and a seeded loop of mutated checkpoint files that must
 * load or exit cleanly. Label: snapshot.
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
#include "snapshot/journal.hpp"
#include "snapshot/serializer.hpp"
#include "snapshot/snapshot.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"
#include "workload/trace_replay.hpp"

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

std::string
tempPath(const char *stem)
{
    return std::string(::testing::TempDir()) + stem;
}

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
    // {length, seed 0, seed 1}; frozen, so every digest a snapshot,
    // journal or trace file stores keeps its value.
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

TEST(SnapshotFile, SectionRoundTripThroughDisk)
{
    Serializer s;
    s.beginSection("alpha");
    s.u64(7);
    s.str("payload");
    s.endSection();
    s.beginSection("beta");
    s.u32(9);
    s.endSection();

    const std::string path = tempPath("snap_roundtrip.bin");
    ASSERT_EQ(writeFileAtomic(path, makeSnapshotFile(0xF00D, s)), "");

    Deserializer d;
    ASSERT_EQ(d.open(path), "");
    EXPECT_EQ(d.version(), kSnapshotVersion);
    EXPECT_EQ(d.fingerprint(), 0xF00DULL);

    SectionReader a = d.section("alpha");
    EXPECT_EQ(a.u64(), 7u);
    EXPECT_EQ(a.str(), "payload");
    EXPECT_TRUE(a.atEnd());
    SectionReader b = d.section("beta");
    EXPECT_EQ(b.u32(), 9u);
    std::remove(path.c_str());
}

TEST(SnapshotFile, DetectsCorruptionAndTruncation)
{
    Serializer s;
    s.beginSection("data");
    for (int i = 0; i < 64; ++i)
        s.u64(static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ULL);
    s.endSection();
    const std::vector<std::uint8_t> good = makeSnapshotFile(1, s);
    const std::string path = tempPath("snap_corrupt.bin");

    // Flip one payload byte: the section checksum must catch it.
    std::vector<std::uint8_t> bad = good;
    bad[bad.size() / 2] ^= 0x01;
    ASSERT_EQ(writeFileAtomic(path, bad), "");
    Deserializer d1;
    EXPECT_NE(d1.open(path), "");

    // Truncate mid-section: framing must catch it.
    std::vector<std::uint8_t> torn(good.begin(),
                                   good.end() - good.size() / 3);
    ASSERT_EQ(writeFileAtomic(path, torn), "");
    Deserializer d2;
    EXPECT_NE(d2.open(path), "");

    // Wrong magic.
    std::vector<std::uint8_t> wrong = good;
    wrong[0] ^= 0xFF;
    ASSERT_EQ(writeFileAtomic(path, wrong), "");
    Deserializer d3;
    EXPECT_NE(d3.open(path), "");

    // And the pristine bytes still open.
    ASSERT_EQ(writeFileAtomic(path, good), "");
    Deserializer d4;
    EXPECT_EQ(d4.open(path), "");
    std::remove(path.c_str());
}

TEST(SnapshotFile, CraftedLengthsCannotWrapBoundsChecks)
{
    Serializer s;
    s.beginSection("data");
    s.u64(1);
    s.endSection();
    const std::vector<std::uint8_t> good = makeSnapshotFile(1, s);
    const std::string path = tempPath("snap_wrap.bin");
    const std::size_t name_len_at = sizeof(kSnapshotMagic) + 4 + 8;
    const std::size_t payload_len_at = name_len_at + 4 + 4; // "data"

    // name_len near UINT32_MAX: `name_len + 8` wraps to a small value
    // in 32-bit arithmetic, so a naive check would pass and read out of
    // bounds. Must be rejected as a torn header instead.
    std::vector<std::uint8_t> bad = good;
    for (int i = 0; i < 4; ++i)
        bad[name_len_at + i] = 0xFF;
    ASSERT_EQ(writeFileAtomic(path, bad), "");
    Deserializer d1;
    EXPECT_NE(d1.open(path), "");

    // payload_len = 2^64 - 8: `payload_len + 8` wraps to zero, which
    // would pass a naive check and underflow the section range.
    bad = good;
    bad[payload_len_at] = 0xF8;
    for (int i = 1; i < 8; ++i)
        bad[payload_len_at + i] = 0xFF;
    ASSERT_EQ(writeFileAtomic(path, bad), "");
    Deserializer d2;
    EXPECT_NE(d2.open(path), "");
    std::remove(path.c_str());
}

TEST(SnapshotFile, MissingFileIsAnError)
{
    Deserializer d;
    EXPECT_NE(d.open(tempPath("does_not_exist.bin")), "");
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
    // affect the fingerprint — that's what lets `--restore` add
    // --trace / --check-invariants for time-travel debugging.
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
    // One change to each behaviour-affecting SystemConfig field. A field
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
        CGCT_SET(topology.interleaveBytes, 8192),
        CGCT_SET(core.commitWidth, 8),
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
        CGCT_SET(prefetch.streams, 4),
        CGCT_SET(prefetch.runahead, 6),
        CGCT_SET(prefetch.exclusivePrefetch, false),
        CGCT_SET(interconnect.topology, TopologyKind::Hier),
        // No default latency is 7 cycles.
        CGCT_SET(interconnect.localSnoopLatency, 7),
        CGCT_SET(interconnect.dirLookupLatency, 7),
        CGCT_SET(interconnect.snoopLatency, 7),
        CGCT_SET(interconnect.dramLatency, 7),
        CGCT_SET(interconnect.dramOverlappedExtra, 7),
        CGCT_SET(interconnect.xferOwnChip, 7),
        CGCT_SET(interconnect.xferSameSwitch, 7),
        CGCT_SET(interconnect.xferSameBoard, 7),
        CGCT_SET(interconnect.xferRemote, 7),
        CGCT_SET(interconnect.directOwnChip, 7),
        CGCT_SET(interconnect.directSameSwitch, 7),
        CGCT_SET(interconnect.directSameBoard, 7),
        CGCT_SET(interconnect.directRemote, 7),
        CGCT_SET(interconnect.busSlot, 7),
        CGCT_SET(interconnect.snoopTagOccupancy, 7),
        CGCT_SET(interconnect.memCtrlSlot, 7),
        CGCT_SET(interconnect.dataBytesPerSystemCycle, 32),
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
    const SystemConfig config = makeDefaultConfig().withCgct(512);
    const WorkloadProfile &profile = benchmarkByName("tpc-w");
    RunOptions opts;
    opts.opsPerCpu = 6000;
    opts.warmupOps = 0;
    CheckpointOptions ckpt;
    ckpt.everyOps = 3000;
    ckpt.writePrefix = tempPath("fp_mismatch");
    simulateCheckpointed(config, profile, opts, ckpt);

    CheckpointOptions restore;
    restore.restorePath = ckpt.writePrefix + ".3000";
    const SystemConfig other = makeDefaultConfig().withCgct(1024);
    EXPECT_DEATH(simulateCheckpointed(other, profile, opts, restore),
                 "fingerprint");
    // Same config, different workload: refused with the workload named.
    EXPECT_DEATH(simulateCheckpointed(config, benchmarkByName("barnes"),
                                      opts, restore),
                 "workload");
    std::remove((ckpt.writePrefix + ".3000").c_str());
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
    for (std::size_t c = 0; c < RunResult::kNumCat; ++c) {
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

TEST(SweepJournalTest, AppendReloadAndTornTailTruncation)
{
    const std::string path = tempPath("journal_torn.bin");
    std::remove(path.c_str());
    const RunResult sample = makeSampleResult();

    {
        SweepJournal j;
        ASSERT_EQ(j.open(path, 0xABCD), "");
        j.append(0, sample);
        j.append(5, sample); // Work stealing: indices need not be dense.
        j.append(2, sample);
        EXPECT_EQ(j.appendCount(), 3u);
    }

    // Simulate a crash mid-append: chop bytes off the last record.
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        const long sz = std::ftell(f);
        ASSERT_EQ(ftruncate(fileno(f), sz - 7), 0);
        std::fclose(f);
    }

    SweepJournal j2;
    ASSERT_EQ(j2.open(path, 0xABCD), "");
    EXPECT_EQ(j2.completed().size(), 2u);
    EXPECT_TRUE(j2.completed().count(0));
    EXPECT_TRUE(j2.completed().count(5));
    EXPECT_FALSE(j2.completed().count(2)); // The torn record.
    EXPECT_EQ(j2.completed().at(5).cycles, sample.cycles);

    // The torn tail was truncated, so appending and reloading is clean.
    j2.append(2, sample);
    SweepJournal j3;
    ASSERT_EQ(j3.open(path, 0xABCD), "");
    EXPECT_EQ(j3.completed().size(), 3u);
    std::remove(path.c_str());
}

TEST(SweepJournalTest, RefusesForeignJournal)
{
    const std::string path = tempPath("journal_foreign.bin");
    std::remove(path.c_str());
    {
        SweepJournal j;
        ASSERT_EQ(j.open(path, 111), "");
        j.append(0, makeSampleResult());
    }
    SweepJournal other;
    const std::string err = other.open(path, 222);
    EXPECT_NE(err, "");
    EXPECT_NE(err.find("different sweep"), std::string::npos);
    std::remove(path.c_str());
}

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return bytes;
    std::uint8_t chunk[4096];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0)
        bytes.insert(bytes.end(), chunk, chunk + got);
    std::fclose(f);
    return bytes;
}

void
writeBytes(const std::string &path, const std::vector<std::uint8_t> &b)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::size_t put = std::fwrite(b.data(), 1, b.size(), f);
    std::fclose(f);
    ASSERT_EQ(put, b.size());
}

constexpr std::uint64_t kJournalSeedFingerprint = 0x5EEDF00DULL;

/** Record @p k of the seed journals: cell 3k, its own cycle count. */
RunResult
journalRecord(std::uint64_t k)
{
    RunResult r = makeSampleResult();
    r.cycles += k;
    return r;
}

/** A CGCTJRNL file of @p records records, as SweepJournal writes it. */
std::vector<std::uint8_t>
makeJournalBytes(const std::string &path, std::uint64_t records)
{
    std::remove(path.c_str());
    {
        SweepJournal j;
        EXPECT_EQ(j.open(path, kJournalSeedFingerprint), "");
        for (std::uint64_t k = 0; k < records; ++k)
            j.append(3 * k, journalRecord(k));
    }
    std::vector<std::uint8_t> bytes = readBytes(path);
    std::remove(path.c_str());
    return bytes;
}

TEST(JournalPin, FileBytes)
{
    // Frozen: header, then two records (length, payload, checksum).
    // Prints the digest.
    const std::vector<std::uint8_t> bytes =
        makeJournalBytes(tempPath("journal_pin.bin"), 2);
    const std::uint64_t digest = xxhash64(bytes.data(), bytes.size());
    std::printf("journal file xxhash64 0x%016llx (%zu bytes)\n",
                static_cast<unsigned long long>(digest), bytes.size());
    EXPECT_EQ(digest, golden::kJournalFileXxh64);
}

// Seeded torn-journal loop: truncations, bit flips and length-field edits
// of a three-record journal, none resealed. open() must either refuse the
// header or keep exactly the records before the first damaged byte and
// truncate the file there.
TEST(JournalMutation, SeededMutantsKeepTheIntactPrefix)
{
    const std::string path = tempPath("journal_mutant.bin");
    const std::vector<std::uint8_t> seed = makeJournalBytes(path, 3);
    constexpr std::size_t kHeader = 8 + 4 + 8;
    // ends[k]: the file size with records 0..k-1 intact.
    std::vector<std::size_t> ends = {kHeader};
    for (std::uint64_t k = 0; k < 3; ++k) {
        Serializer payload;
        payload.u64(3 * k);
        encodeRunResult(payload, journalRecord(k));
        ends.push_back(ends.back() + 8 + payload.size() + 8);
    }
    ASSERT_EQ(ends.back(), seed.size());

    Rng rng(0x70a4e1);
    unsigned header_errors = 0;
    unsigned kept_count[3] = {};
    for (int m = 0; m < 1000; ++m) {
        std::vector<std::uint8_t> b = seed;
        switch (rng.nextBelow(3)) {
          case 0: // Truncation, possibly to nothing.
            b.resize(rng.nextBelow(b.size()));
            break;
          case 1: { // Bit flips, one in eight confined to the header.
            const std::size_t span = rng.chance(0.125) ? kHeader : b.size();
            for (std::uint64_t k = 1 + rng.nextBelow(3); k > 0; --k)
                b[rng.nextBelow(span)] ^=
                    static_cast<std::uint8_t>(1u << rng.nextBelow(8));
            break;
          }
          default: { // One record's length field, absolute or nudged.
            const std::size_t at = ends[rng.nextBelow(3)];
            std::uint64_t len;
            std::memcpy(&len, &b[at], 8);
            const std::uint64_t edits[] = {0,
                                           7,
                                           8,
                                           64ULL << 20,
                                           (64ULL << 20) + 1,
                                           UINT64_MAX,
                                           UINT64_MAX - 7,
                                           rng.next()};
            len = rng.chance(0.5) ? edits[rng.nextBelow(std::size(edits))]
                                  : len + rng.nextRange(-9, 9);
            std::memcpy(&b[at], &len, 8);
            break;
          }
        }
        std::size_t first_damaged = std::min(b.size(), seed.size());
        for (std::size_t i = 0; i < first_damaged; ++i)
            if (b[i] != seed[i]) {
                first_damaged = i;
                break;
            }
        if (first_damaged == seed.size())
            continue; // The edit wrote back what was there.
        writeBytes(path, b);

        SweepJournal j;
        const std::string err = j.open(path, kJournalSeedFingerprint);
        if (first_damaged < kHeader) {
            EXPECT_NE(err, "") << "mutant " << m;
            EXPECT_TRUE(err.find("not a cgct_sweep resume journal") !=
                            std::string::npos ||
                        err.find("unsupported journal version") !=
                            std::string::npos ||
                        err.find("different sweep") != std::string::npos)
                << "mutant " << m << ": " << err;
            ++header_errors;
            continue;
        }
        ASSERT_EQ(err, "") << "mutant " << m;
        std::size_t kept = 0;
        while (kept < 3 && ends[kept + 1] <= first_damaged)
            ++kept;
        ASSERT_EQ(j.completed().size(), kept) << "mutant " << m;
        for (std::uint64_t k = 0; k < kept; ++k) {
            ASSERT_TRUE(j.completed().count(3 * k)) << "mutant " << m;
            Serializer want, got;
            encodeRunResult(want, journalRecord(k));
            encodeRunResult(got, j.completed().at(3 * k));
            EXPECT_EQ(got.buffer(), want.buffer()) << "mutant " << m;
        }
        EXPECT_EQ(readBytes(path).size(), ends[kept]) << "mutant " << m;
        ++kept_count[kept];
    }
    std::remove(path.c_str());
    std::printf("header errors %u, kept 0/1/2 records: %u/%u/%u\n",
                header_errors, kept_count[0], kept_count[1],
                kept_count[2]);
    // Every outcome occurs: header refusals and each intact prefix.
    EXPECT_GT(header_errors, 20u);
    for (unsigned n : kept_count)
        EXPECT_GT(n, 20u);
}

// ---------------------------------------------------------------------------
// Seeded CGCTSNAP mutation loop: bit flips, truncations, section-length
// and count-field edits of two small checkpoints, a generated run's on
// the two-level hierarchy (whose mask tables are stored behind a count)
// and a trace replay's on the bus (whose "replay" section carries the
// retired slots that must load as 0). Half the mutants are resealed, so
// they pass the section checksums and reach Archive's count / index /
// expect checks. Each mutant that passes the framing is loaded in a
// forked child: it must load, or exit 1 with one [fatal] line, never
// crash, trip a sanitizer or allocate from an unchecked count.

/** A small 4-CPU machine, so a checkpoint is tens of KB. */
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
 * in its section. That finds the hierarchy's mask-table count and the
 * replay section's retired held-lock and banked-signal counts.
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

/** A mutation seed: a checkpoint and what it loads against. */
struct SnapshotSeed {
    SystemConfig config;
    std::string trace; ///< The replayed trace, or "" for a generated run.
    std::vector<std::uint8_t> bytes;
};

/**
 * Load @p bytes the way a restore does, minus the run-identity checks:
 * the harness fields (HarnessState's layout in snapshot.cpp), the
 * workload section, then every System section.
 */
void
loadCheckpoint(const SnapshotSeed &seed, std::vector<std::uint8_t> bytes)
{
    const RunOptions opts = mutationRun();
    Deserializer d;
    if (!d.openBytes(std::move(bytes), "mutant").empty())
        std::_Exit(2);
    Archive ar(d);
    ar.section("harness", [&] {
        std::string profile;
        std::uint64_t u = 0;
        bool warmup_done = false;
        ar.str(profile);
        for (int i = 0; i < 6; ++i)
            ar.u64(u);
        ar.b(warmup_done);
    });
    if (seed.trace.empty()) {
        SyntheticWorkload workload(benchmarkByName("tpc-w"),
                                   seed.config.topology.numCpus,
                                   opts.opsPerCpu, opts.seed);
        System sys(seed.config, workload);
        ar.section("workload", [&] { workload.transfer(ar); });
        sys.transfer(ar);
    } else {
        TraceReplay replay(seed.trace);
        System sys(seed.config, replay);
        ar.section("replay", [&] { replay.transfer(ar); });
        sys.transfer(ar);
    }
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
        loadCheckpoint(seed, bytes);
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
    SnapshotSeed generated{mutationConfig(TopologyKind::Hier), "", {}};
    SnapshotSeed replayed{mutationConfig(TopologyKind::Bus),
                          tempPath("mutation_seed.trace"), {}};
    CheckpointOptions ckpt;
    ckpt.everyOps = 400;
    ckpt.writePrefix = tempPath("mutation_gen");
    simulateCheckpointed(generated.config, benchmarkByName("tpc-w"),
                         mutationRun(), ckpt);
    generated.bytes = readBytes(ckpt.writePrefix + ".400");
    RunOptions live = mutationRun();
    live.capturePath = replayed.trace;
    simulateOnce(replayed.config, benchmarkByName("tpc-w"), live);
    ckpt.writePrefix = tempPath("mutation_rep");
    simulateCheckpointed(replayed.config, replayed.trace, mutationRun(),
                         ckpt);
    replayed.bytes = readBytes(ckpt.writePrefix + ".400");
    for (const char *stem : {"mutation_gen", "mutation_rep"})
        for (const char *at : {".400", ".800"})
            std::remove((tempPath(stem) + at).c_str());

    Rng rng(0x5eed5a7);
    unsigned framing = 0, rejected = 0, loaded = 0;
    for (const SnapshotSeed *seed : {&generated, &replayed}) {
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
    std::remove(replayed.trace.c_str());
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

TEST(SnapshotDecoderDeath, CraftedJournalCountExitsCleanly)
{
    Serializer payload;
    payload.u64(0); // cell index
    encodeRunResult(payload, makeSampleResult());
    std::vector<std::uint8_t> bytes = payload.buffer();

    // The histogram count (u32 1) directly precedes histogram "h".
    const std::uint8_t count_then_name[] = {1, 0, 0, 0, 1, 0, 0, 0,
                                            0, 0, 0, 0, 'h'};
    const auto at = std::search(bytes.begin(), bytes.end(),
                                std::begin(count_then_name),
                                std::end(count_then_name));
    ASSERT_NE(at, bytes.end());
    std::fill(at, at + 4, 0xFF);

    // xxhash64 is unkeyed, so the crafted record carries a valid checksum.
    Serializer file;
    file.bytes("CGCTJRNL", 8);
    file.u32(1);
    file.u64(0xABCD);
    file.u64(bytes.size());
    file.bytes(bytes.data(), bytes.size());
    file.u64(xxhash64(bytes.data(), bytes.size()));
    const std::string path = tempPath("journal_crafted.bin");
    ASSERT_EQ(writeFileAtomic(path, file.buffer()), "");

    EXPECT_EXIT(
        {
            SweepJournal j;
            j.open(path, 0xABCD);
        },
        ::testing::ExitedWithCode(1),
        "journal_crafted.bin: record at byte 20: histograms 4294967295 "
        "exceeds");
    std::remove(path.c_str());
}

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

TEST(SnapshotDecoderDeath, CacheMruHintAndOccupancyStayInsideTheSet)
{
    Cache saved("l2", kFourSetCache);
    Cache loaded("l2", kFourSetCache);
    // Layout: sets u64, ways u32, line bytes u32, 8 tags, 4 occupancy
    // masks, then 4 one-byte MRU hints.
    const std::size_t occupancy = 16 + 8 * 8;
    const std::size_t hints = occupancy + 4 * 8;
    EXPECT_EXIT(reload(saved, loaded,
                       [&](std::vector<std::uint8_t> &b) {
                           b[hints] = 200;
                       }),
                ::testing::ExitedWithCode(1),
                "patched: MRU way hint 200 out of range \\(bound 2\\)");
    EXPECT_EXIT(reload(saved, loaded,
                       [&](std::vector<std::uint8_t> &b) {
                           b[occupancy] = 0x04;
                       }),
                ::testing::ExitedWithCode(1),
                "patched: occupancy mask 0000000000000004 names a way at "
                "or above 2");
}

TEST(SnapshotDecoderDeath, RcaMruHintStaysInsideTheSet)
{
    RegionCoherenceArray saved(4, 2, 512, true);
    RegionCoherenceArray loaded(4, 2, 512, true);
    // Layout: sets u64, ways u32, region bytes u64, 8 tags, 4 masks.
    const std::size_t hints = 20 + 8 * 8 + 4 * 8;
    EXPECT_EXIT(reload(saved, loaded,
                       [&](std::vector<std::uint8_t> &b) {
                           b[hints + 3] = 64;
                       },
                       kMemCtrls),
                ::testing::ExitedWithCode(1),
                "patched: MRU way hint 64 out of range \\(bound 2\\)");
}

TEST(SnapshotDecoderDeath, CacheEntryAddressIsItsFramesTag)
{
    Cache saved("l2", kFourSetCache);
    Cache loaded("l2", kFourSetCache);
    Eviction ev;
    saved.fill(0x1040, LineState::Shared, 0, 0, ev); // set 1, way 0
    // Layout: 16 geometry bytes, 8 tags, 4 masks, 4 hints, then 25-byte
    // frames that open with their line address u64.
    const std::size_t frames = 16 + 8 * 8 + 4 * 8 + 4;
    const std::size_t set1_way0 = frames + 2 * 25;
    EXPECT_EXIT(reload(saved, loaded,
                       [&](std::vector<std::uint8_t> &b) {
                           b[frames] = 0x40; // an empty frame
                       }),
                ::testing::ExitedWithCode(1),
                "patched: way 0 of set 0 stores address "
                "0000000000000040, not 0000000000000000");
    EXPECT_EXIT(reload(saved, loaded,
                       [&](std::vector<std::uint8_t> &b) {
                           b[set1_way0] = 0x80;
                       }),
                ::testing::ExitedWithCode(1),
                "patched: way 0 of set 1 stores address "
                "0000000000001080, not 0000000000001040");
}

TEST(SnapshotDecoderDeath, CacheTagSurvivesTheBlockShift)
{
    Cache saved("l2", kFourSetCache);
    Cache loaded("l2", kFourSetCache);
    // Layout: 16 geometry bytes, then frame 0's tag u64. A 64 B block
    // leaves a tag 58 bits.
    const auto tag = [](std::uint64_t v) {
        return [v](std::vector<std::uint8_t> &b) {
            std::memcpy(&b[16], &v, sizeof v);
        };
    };
    EXPECT_EXIT(reload(saved, loaded, tag(std::uint64_t{1} << 58)),
                ::testing::ExitedWithCode(1),
                "patched: tag 0400000000000000 does not fit a 58-bit "
                "block number");
    // The largest 58-bit tag loads: an empty frame keeps it.
    reload(saved, loaded, tag((std::uint64_t{1} << 58) - 1));
}

TEST(SnapshotDecoderDeath, CacheLineStateIsALineState)
{
    Cache saved("l2", kFourSetCache);
    Cache loaded("l2", kFourSetCache);
    // Layout: 16 geometry bytes, 8 tags, 4 masks, 4 hints, then frame 0:
    // line address u64 and the state byte.
    const std::size_t state = 16 + 8 * 8 + 4 * 8 + 4 + 8;
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
    // Layout: 20 geometry bytes, 8 tags, 4 masks, 4 hints, then entry 0:
    // region address u64 and the state byte.
    const std::size_t state = 20 + 8 * 8 + 4 * 8 + 4 + 8;
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
    // Layout: 20 geometry bytes, 8 tags, 4 masks, 4 hints, then entry 0:
    // region address u64, state byte, line count u32 and the memory
    // controller u64 (all ones for none).
    const std::size_t mc = 20 + 8 * 8 + 4 * 8 + 4 + 8 + 1 + 4;
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

} // namespace
