/**
 * @file
 * Tests for OpFeed, functional warming's op stream drawn on a producer
 * thread: segment by segment it hands over the ops an inline round-robin
 * draw makes, in the same order, and leaves the workload where the
 * inline draw would; and destroying it returns wherever the producer is
 * blocked.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "snapshot/serializer.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"
#include "workload/op_feed.hpp"

namespace cgct {
namespace {

constexpr std::uint64_t kOpsPerCpu = 3001;
constexpr std::uint64_t kSeed = 20050609;

/** Appends one op to @p h, field by field (no struct padding). */
void
hashOp(Xxh64Stream &h, CpuId cpu, const CpuOp &op)
{
    const auto kind = static_cast<std::uint8_t>(op.kind);
    const auto dependent = static_cast<std::uint8_t>(op.dependent);
    h.update(&cpu, sizeof cpu);
    h.update(&kind, sizeof kind);
    h.update(&op.addr, sizeof op.addr);
    h.update(&op.gap, sizeof op.gap);
    h.update(&dependent, sizeof dependent);
}

/** The generator's checkpoint bytes: RNGs, cursors, ownership table. */
std::vector<std::uint8_t>
workloadBytes(SyntheticWorkload &workload)
{
    Serializer s;
    Archive ar(s);
    workload.transfer(ar);
    return s.buffer();
}

/** One segment drawn inline, the way functional warming drew before the
 *  feed: round-robin, one op per CPU per pass. */
std::uint64_t
drawInline(SyntheticWorkload &workload, unsigned cpus,
           std::uint64_t pause_at, Xxh64Stream &h)
{
    workload.setPauseAt(pause_at);
    std::uint64_t drawn = 0;
    for (bool drew = true; drew;) {
        drew = false;
        for (unsigned cpu = 0; cpu < cpus; ++cpu) {
            CpuOp op;
            if (!workload.next(static_cast<CpuId>(cpu), op))
                continue;
            drew = true;
            ++drawn;
            hashOp(h, static_cast<CpuId>(cpu), op);
        }
    }
    return drawn;
}

class OpFeedStream
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>>
{
};

TEST_P(OpFeedStream, SegmentsMatchInlineRoundRobin)
{
    const auto &[name, cpus] = GetParam();
    const WorkloadProfile &profile = benchmarkByName(name);
    SyntheticWorkload inline_wl(profile, cpus, kOpsPerCpu, kSeed);
    SyntheticWorkload fed_wl(profile, cpus, kOpsPerCpu, kSeed);
    OpFeed feed(fed_wl, cpus);

    // An empty first segment; one that ends mid-chunk; an empty repeat;
    // 512 ops per CPU, a whole number of chunks at 4 and 16 CPUs; the
    // rest of the stream; a pause past its end.
    const std::uint64_t pauses[] = {0, 700, 700, 1212, kOpsPerCpu, 5000};
    static_assert(512 * 4 % OpFeed::kChunkOps == 0);
    for (const std::uint64_t pause : pauses) {
        Xxh64Stream want;
        Xxh64Stream got;
        const std::uint64_t want_ops = drawInline(inline_wl, cpus, pause,
                                                  want);
        std::uint64_t got_ops = 0;
        feed.draw(pause);
        for (auto ops = feed.take(); !ops.empty(); ops = feed.take()) {
            EXPECT_LE(ops.size(), OpFeed::kChunkOps);
            for (const OpFeed::Op &o : ops)
                hashOp(got, o.cpu, o.op);
            got_ops += ops.size();
        }
        SCOPED_TRACE("pause at " + std::to_string(pause));
        EXPECT_EQ(got_ops, want_ops);
        EXPECT_EQ(got.digest(), want.digest());
        // The producer is parked, so the workload may be read here.
        EXPECT_EQ(workloadBytes(fed_wl), workloadBytes(inline_wl));
    }
    EXPECT_EQ(fed_wl.minOpsDrawn(), kOpsPerCpu);
}

INSTANTIATE_TEST_SUITE_P(
    OpFeed, OpFeedStream,
    ::testing::Combine(::testing::Values("tpc-w", "ocean", "specjbb2000"),
                       ::testing::Values(4u, 16u)),
    [](const auto &info) {
        std::string name = std::get<0>(info.param) + "_" +
                           std::to_string(std::get<1>(info.param)) + "cpu";
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(OpFeed, DestroyWhileParked)
{
    SyntheticWorkload workload(benchmarkByName("tpc-w"), 4, kOpsPerCpu,
                               kSeed);
    { OpFeed feed(workload, 4); }
    EXPECT_EQ(workload.minOpsDrawn(), 0u);
}

TEST(OpFeed, DestroyWhileProducerBlockedOnFullRing)
{
    // A segment far longer than the ring, of which only one chunk is
    // taken: the producer fills the rest of the ring and blocks. The
    // sleep only makes that state likely; the destructor must return
    // from any state the producer is in.
    SyntheticWorkload workload(benchmarkByName("tpc-w"), 4, 1000000,
                               kSeed);
    {
        OpFeed feed(workload, 4);
        feed.draw(1000000);
        EXPECT_EQ(feed.take().size(), OpFeed::kChunkOps);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    // The producer stopped at the full ring, far short of the pause.
    EXPECT_LE(workload.minOpsDrawn() * 4,
              OpFeed::kChunks * OpFeed::kChunkOps);
}

TEST(OpFeed, DestroyMidSegmentWithoutTaking)
{
    SyntheticWorkload workload(benchmarkByName("ocean"), 16, 1000000,
                               kSeed);
    {
        OpFeed feed(workload, 16);
        feed.draw(1000000);
    }
    EXPECT_LT(workload.minOpsDrawn(), 1000000u);
}

} // namespace
} // namespace cgct
