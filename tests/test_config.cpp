/**
 * @file
 * Tests for the Table 3 configuration: default values, derived helpers,
 * topology distance classes, validation, and config derivation helpers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "common/config.hpp"
#include "golden.hpp"
#include "snapshot/serializer.hpp"
#include "snapshot/snapshot.hpp"

namespace cgct {
namespace {

TEST(Config, Table3Defaults)
{
    const SystemConfig c = makeDefaultConfig();
    EXPECT_EQ(c.topology.numCpus, 4u);
    EXPECT_EQ(c.topology.cpusPerChip, 2u);
    EXPECT_EQ(c.topology.chipsPerSwitch, 2u);
    EXPECT_EQ(c.core.commitWidth, 4u);
    EXPECT_EQ(c.core.robEntries, 64u);
    EXPECT_EQ(c.core.lsqEntries, 32u);
    EXPECT_EQ(c.core.maxOutstandingMisses, 8u);
    EXPECT_EQ(c.l1i.sizeBytes, 32u * 1024);
    EXPECT_EQ(c.l1i.associativity, 4u);
    EXPECT_EQ(c.l1d.sizeBytes, 64u * 1024);
    EXPECT_EQ(c.l2.sizeBytes, 1024u * 1024);
    EXPECT_EQ(c.l2.associativity, 2u);
    EXPECT_EQ(c.l2.lineBytes, 64u);
    EXPECT_EQ(c.l2.latency, 12u);
    EXPECT_EQ(c.prefetch.streams, 8u);
    EXPECT_EQ(c.prefetch.runahead, 5u);
    EXPECT_EQ(c.dma.bufferBytes, 512u);
}

TEST(Config, Table3Latencies)
{
    const SystemConfig c = makeDefaultConfig();
    // 106 ns at 1.5 GHz = 160 CPU cycles (16 system cycles).
    EXPECT_EQ(c.interconnect.snoopLatency, 160u);
    EXPECT_EQ(c.interconnect.dramLatency, 160u);
    EXPECT_EQ(c.interconnect.dramOverlappedExtra, 70u);
    EXPECT_EQ(c.interconnect.xferSameSwitch, 30u);
    EXPECT_EQ(c.interconnect.xferSameBoard, 70u);
    EXPECT_EQ(c.interconnect.xferRemote, 120u);
    EXPECT_EQ(c.interconnect.directOwnChip, 1u);
    EXPECT_EQ(c.interconnect.directSameSwitch, 20u);
    EXPECT_EQ(c.interconnect.directSameBoard, 40u);
    EXPECT_EQ(c.interconnect.directRemote, 60u);
    EXPECT_EQ(c.interconnect.dataBytesPerSystemCycle, 16u);
}

TEST(Config, CacheDerivedGeometry)
{
    const SystemConfig c = makeDefaultConfig();
    EXPECT_EQ(c.l2.numLines(), 16384u);
    EXPECT_EQ(c.l2.numSets(), 8192u);
    EXPECT_EQ(c.l1d.numSets(), 256u);
}

TEST(Config, RcaDefaultsMatchL2Tags)
{
    const SystemConfig c = makeDefaultConfig();
    // Table 3: RCA has the same organization as the L2 tags.
    EXPECT_EQ(c.cgct.rcaSets, c.l2.numSets());
    EXPECT_EQ(c.cgct.rcaWays, c.l2.associativity);
    EXPECT_EQ(c.cgct.rcaEntries(), 16384u);
    EXPECT_FALSE(c.cgct.enabled);
    EXPECT_TRUE(c.cgct.selfInvalidation);
    EXPECT_TRUE(c.cgct.favorEmptyRegions);
}

TEST(Config, LatencyByDistance)
{
    const InterconnectParams p;
    EXPECT_EQ(p.xferLatency(Distance::OwnChip), p.xferOwnChip);
    EXPECT_EQ(p.xferLatency(Distance::SameSwitch), p.xferSameSwitch);
    EXPECT_EQ(p.xferLatency(Distance::SameBoard), p.xferSameBoard);
    EXPECT_EQ(p.xferLatency(Distance::Remote), p.xferRemote);
    EXPECT_EQ(p.directLatency(Distance::OwnChip), p.directOwnChip);
    EXPECT_EQ(p.directLatency(Distance::Remote), p.directRemote);
}

TEST(Config, TopologyDistances)
{
    TopologyParams t;
    t.numCpus = 16;
    t.cpusPerChip = 2;
    t.chipsPerSwitch = 2;
    t.switchesPerBoard = 2;
    // CPU 0 lives on chip 0, switch 0, board 0.
    EXPECT_EQ(t.distanceCpuToChip(0, 0), Distance::OwnChip);
    EXPECT_EQ(t.distanceCpuToChip(1, 0), Distance::OwnChip);
    EXPECT_EQ(t.distanceCpuToChip(0, 1), Distance::SameSwitch);
    EXPECT_EQ(t.distanceCpuToChip(0, 2), Distance::SameBoard);
    EXPECT_EQ(t.distanceCpuToChip(0, 3), Distance::SameBoard);
    EXPECT_EQ(t.distanceCpuToChip(0, 4), Distance::Remote);
    EXPECT_EQ(t.distanceCpuToChip(0, 7), Distance::Remote);
}

TEST(Config, DefaultFourCpuTopology)
{
    const SystemConfig c = makeDefaultConfig();
    EXPECT_EQ(c.topology.numChips(), 2u);
    EXPECT_EQ(c.topology.numMemCtrls(), 2u);
    EXPECT_EQ(c.topology.chipOfCpu(0), 0u);
    EXPECT_EQ(c.topology.chipOfCpu(1), 0u);
    EXPECT_EQ(c.topology.chipOfCpu(2), 1u);
    EXPECT_EQ(c.topology.chipOfCpu(3), 1u);
    // Both chips hang off the same data switch.
    EXPECT_EQ(c.topology.distanceCpuToChip(0, 1), Distance::SameSwitch);
}

TEST(Config, BaselineAndWithCgct)
{
    const SystemConfig c = makeDefaultConfig();
    const SystemConfig base = c.withCgct(512).baseline();
    EXPECT_FALSE(base.cgct.enabled);
    const SystemConfig on = c.withCgct(1024, 4096, 2);
    EXPECT_TRUE(on.cgct.enabled);
    EXPECT_EQ(on.cgct.regionBytes, 1024u);
    EXPECT_EQ(on.cgct.rcaSets, 4096u);
}

TEST(Config, ValidatePassesDefaults)
{
    SystemConfig c = makeDefaultConfig();
    c.validate();
    c = c.withCgct(256);
    c.validate();
    c = c.withCgct(1024);
    c.validate();
    SUCCEED();
}

TEST(ConfigDeath, RejectsBadRegionSize)
{
    SystemConfig c = makeDefaultConfig().withCgct(768);
    EXPECT_DEATH(c.validate(), "power of two");
}

TEST(ConfigDeath, RejectsRegionSmallerThanLine)
{
    SystemConfig c = makeDefaultConfig().withCgct(32);
    EXPECT_DEATH(c.validate(), "region size");
}

TEST(ConfigDeath, RejectsRegionLargerThanInterleave)
{
    SystemConfig c = makeDefaultConfig().withCgct(8192);
    EXPECT_DEATH(c.validate(), "interleave");
}

TEST(ConfigDeath, RejectsZeroCpus)
{
    SystemConfig c = makeDefaultConfig();
    c.topology.numCpus = 0;
    EXPECT_DEATH(c.validate(), "numCpus");
}

TEST(ConfigDeath, RejectsMoreControllersThanTheRcaIdHolds)
{
    SystemConfig c = makeDefaultConfig();
    c.topology.cpusPerChip = 1;
    c.topology.numCpus = 32767; // one controller per chip: the last fit
    c.validate();
    c.topology.numCpus = 32768;
    EXPECT_DEATH(c.validate(), "32768 memory controllers");
}

TEST(ConfigDeath, RejectsMismatchedLineSizes)
{
    SystemConfig c = makeDefaultConfig();
    c.l1d.lineBytes = 32;
    EXPECT_DEATH(c.validate(), "line sizes");
}

TEST(Config, PrintMentionsKeyParameters)
{
    std::ostringstream os;
    makeDefaultConfig().withCgct(512).print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("1.5 GHz"), std::string::npos);
    EXPECT_NE(out.find("MOESI"), std::string::npos);
    EXPECT_NE(out.find("512"), std::string::npos);
    EXPECT_NE(out.find("8192"), std::string::npos);
}

/** xxhash64 of canonicalizeConfig's bytes for @p c. */
std::uint64_t
canonicalDigest(const SystemConfig &c)
{
    Serializer s;
    canonicalizeConfig(s, c);
    return xxhash64(s.buffer().data(), s.size());
}

/** @p c on @p nodes processors and topology @p kind. */
SystemConfig
onTopology(SystemConfig c, unsigned nodes, TopologyKind kind)
{
    c.topology.numCpus = nodes;
    c.interconnect.topology = kind;
    return c;
}

TEST(ConfigPin, CanonicalBytes)
{
    // The fingerprint of every snapshot and sweep journal hashes these
    // bytes: a change to any slot invalidates every stored file.
    SystemConfig dir16_dma =
        onTopology(makeDefaultConfig().withCgct(512), 16, TopologyKind::Dir);
    dir16_dma.dma.enabled = true;
    const std::pair<const char *, std::pair<SystemConfig, std::uint64_t>>
        pins[] = {
            {"default", {makeDefaultConfig(), golden::kDefaultConfigXxh64}},
            {"cgct512",
             {makeDefaultConfig().withCgct(512), golden::kCgct512ConfigXxh64}},
            {"hier16",
             {onTopology(makeDefaultConfig().withCgct(512), 16,
                         TopologyKind::Hier),
              golden::kHier16ConfigXxh64}},
            {"dir16-dma", {dir16_dma, golden::kDir16DmaConfigXxh64}},
        };
    for (const auto &[name, pin] : pins) {
        const std::uint64_t got = canonicalDigest(pin.first);
        std::printf("%-10s %016llx\n", name,
                    static_cast<unsigned long long>(got));
        EXPECT_EQ(got, pin.second) << name;
    }
}

} // namespace
} // namespace cgct
