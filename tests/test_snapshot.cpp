/**
 * @file
 * Snapshot serialization unit tests: the XXH64 digest, primitive and
 * section round trips, file framing, corruption detection, the config
 * fingerprint, RunResult journal encoding, the sweep resume journal's
 * crash semantics (torn-tail truncation, fingerprint refusal), and the
 * load-side checks that turn crafted counts and indices into clean
 * exits. Label: snapshot.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "common/config.hpp"
#include "common/random.hpp"
#include "core/rca.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "snapshot/journal.hpp"
#include "snapshot/serializer.hpp"
#include "snapshot/snapshot.hpp"
#include "workload/benchmarks.hpp"

using namespace cgct;

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
    s.u16(0xBEEF);
    s.u32(0xDEADBEEFu);
    s.u64(0x0123456789ABCDEFULL);
    s.i64(-42);
    s.b(true);
    s.b(false);
    s.f64(3.141592653589793);
    s.f64(-0.0);
    s.str("hello");
    s.str("");

    SectionReader r(s.buffer().data(), s.buffer().data() + s.size(),
                    "test");
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u16(), 0xBEEF);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
    EXPECT_EQ(r.i64(), -42);
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
    EXPECT_TRUE(d.hasSection("alpha"));
    EXPECT_TRUE(d.hasSection("beta"));
    EXPECT_FALSE(d.hasSection("gamma"));

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
