/**
 * @file
 * Tests for the workload layer: profile validation, the nine Table 4
 * benchmark definitions, generator determinism, op-stream composition
 * (mix fractions, DCBZ bursts, address-space segmentation), and phase
 * structure.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>

#include "golden.hpp"
#include "snapshot/serializer.hpp"
#include "workload/benchmarks.hpp"
#include "workload/generator.hpp"

namespace cgct {
namespace {

WorkloadProfile
simpleProfile()
{
    WorkloadProfile p;
    p.name = "test";
    p.privateBytes = 1 << 20;
    p.sharedROBytes = 1 << 20;
    p.codeBytes = 256 << 10;
    p.rwObjects = 32;
    p.rwObjectBytes = 512;
    return p;
}

TEST(Profile, ValidationAcceptsDefaults)
{
    simpleProfile().validate();
    SUCCEED();
}

TEST(ProfileDeath, RejectsBadPhaseFractions)
{
    WorkloadProfile p = simpleProfile();
    p.phases[0].fraction = 0.5;
    EXPECT_DEATH(p.validate(), "phase fractions");
}

TEST(ProfileDeath, RejectsOutOfRangeProbability)
{
    WorkloadProfile p = simpleProfile();
    p.phases[0].pIfetch = 1.5;
    EXPECT_DEATH(p.validate(), "probability");
}

TEST(ProfileDeath, RejectsOversubscribedSharing)
{
    WorkloadProfile p = simpleProfile();
    p.phases[0].pSharedRO = 0.6;
    p.phases[0].pSharedRW = 0.6;
    EXPECT_DEATH(p.validate(), "shared fractions");
}

TEST(Benchmarks, AllNinePresent)
{
    const auto &all = standardBenchmarks();
    ASSERT_EQ(all.size(), 9u);
    const char *expected[] = {"ocean",           "raytrace",
                              "barnes",          "specint2000rate",
                              "specweb99",       "specjbb2000",
                              "tpc-w",           "tpc-b",
                              "tpc-h"};
    for (std::size_t i = 0; i < 9; ++i)
        EXPECT_EQ(all[i].name, expected[i]);
}

TEST(Benchmarks, AllValidate)
{
    for (const auto &p : standardBenchmarks()) {
        p.validate();
        EXPECT_FALSE(p.description.empty()) << p.name;
    }
}

TEST(Benchmarks, CommercialFlagMatchesPaper)
{
    // Figure 8 averages "commercial workloads" separately: the web, OLTP
    // and DSS benchmarks.
    std::set<std::string> commercial;
    for (const auto &p : standardBenchmarks())
        if (p.commercial)
            commercial.insert(p.name);
    EXPECT_EQ(commercial, (std::set<std::string>{
                              "specweb99", "specjbb2000", "tpc-w", "tpc-b",
                              "tpc-h"}));
}

TEST(Benchmarks, LookupByName)
{
    EXPECT_EQ(benchmarkByName("barnes").name, "barnes");
    EXPECT_DEATH(benchmarkByName("nope"), "unknown benchmark");
}

TEST(Benchmarks, TpchHasTwoPhases)
{
    const auto &p = benchmarkByName("tpc-h");
    ASSERT_EQ(p.phases.size(), 2u);
    // Merge phase shares much more than the scan phase.
    EXPECT_GT(p.phases[1].pSharedRW, p.phases[0].pSharedRW * 5);
}

TEST(Generator, DeterministicForSameSeed)
{
    SyntheticWorkload a(simpleProfile(), 2, 1000, 42);
    SyntheticWorkload b(simpleProfile(), 2, 1000, 42);
    CpuOp oa, ob;
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(a.next(0, oa), b.next(0, ob));
        ASSERT_EQ(oa.kind, ob.kind);
        ASSERT_EQ(oa.addr, ob.addr);
        ASSERT_EQ(oa.gap, ob.gap);
    }
}

TEST(Generator, DifferentSeedsDiffer)
{
    SyntheticWorkload a(simpleProfile(), 2, 1000, 1);
    SyntheticWorkload b(simpleProfile(), 2, 1000, 2);
    CpuOp oa, ob;
    int same = 0;
    for (int i = 0; i < 200; ++i) {
        a.next(0, oa);
        b.next(0, ob);
        same += oa.addr == ob.addr;
    }
    EXPECT_LT(same, 100);
}

TEST(Generator, StreamEndsAtOpLimit)
{
    SyntheticWorkload wl(simpleProfile(), 2, 50, 7);
    CpuOp op;
    int count = 0;
    while (wl.next(0, op))
        ++count;
    EXPECT_EQ(count, 50);
    EXPECT_FALSE(wl.next(0, op));
    // The other CPU's stream is independent.
    EXPECT_TRUE(wl.next(1, op));
    EXPECT_EQ(wl.opsDrawn(0), 50u);
    EXPECT_EQ(wl.opsDrawn(1), 1u);
    EXPECT_EQ(wl.minOpsDrawn(), 1u);
}

TEST(Generator, PrivateAddressesAreDisjointPerCpu)
{
    WorkloadProfile p = simpleProfile();
    p.phases[0].pIfetch = 0.0; // Data only: all private.
    SyntheticWorkload wl(p, 4, 4000, 11);
    std::set<Addr> per_cpu[4];
    CpuOp op;
    for (CpuId cpu = 0; cpu < 4; ++cpu) {
        for (int i = 0; i < 4000; ++i) {
            ASSERT_TRUE(wl.next(cpu, op));
            per_cpu[cpu].insert(alignDown(op.addr, 64));
        }
    }
    for (int i = 0; i < 4; ++i) {
        for (int j = i + 1; j < 4; ++j) {
            for (Addr a : per_cpu[i])
                ASSERT_EQ(per_cpu[j].count(a), 0u)
                    << "cpu " << i << " and " << j << " share " << a;
        }
    }
}

TEST(Generator, SharedSegmentsOverlapAcrossCpus)
{
    WorkloadProfile p = simpleProfile();
    p.phases[0].pIfetch = 0.5; // Code is shared by all processors.
    SyntheticWorkload wl(p, 2, 5000, 13);
    std::set<Addr> code0, code1;
    CpuOp op;
    for (int i = 0; i < 5000; ++i) {
        wl.next(0, op);
        if (op.kind == CpuOpKind::Ifetch)
            code0.insert(alignDown(op.addr, 64));
        wl.next(1, op);
        if (op.kind == CpuOpKind::Ifetch)
            code1.insert(alignDown(op.addr, 64));
    }
    int shared = 0;
    for (Addr a : code0)
        shared += code1.count(a);
    EXPECT_GT(shared, 0);
}

TEST(Generator, MixRoughlyMatchesProbabilities)
{
    WorkloadProfile p = simpleProfile();
    p.phases[0].pIfetch = 0.2;
    p.phases[0].pStorePrivate = 0.4;
    SyntheticWorkload wl(p, 1, 20000, 17);
    std::map<CpuOpKind, int> counts;
    CpuOp op;
    while (wl.next(0, op))
        ++counts[op.kind];
    const double ifetch_frac = counts[CpuOpKind::Ifetch] / 20000.0;
    EXPECT_NEAR(ifetch_frac, 0.2, 0.03);
    const double store_frac =
        static_cast<double>(counts[CpuOpKind::Store]) /
        (counts[CpuOpKind::Store] + counts[CpuOpKind::Load]);
    EXPECT_NEAR(store_frac, 0.4, 0.05);
}

TEST(Generator, DcbzBurstsZeroWholePages)
{
    WorkloadProfile p = simpleProfile();
    p.phases[0].pDcbzBurst = 0.01;
    p.phases[0].pIfetch = 0.0;
    SyntheticWorkload wl(p, 1, 50000, 19);
    CpuOp op;
    int dcbz_run = 0;
    int max_run = 0;
    Addr prev = 0;
    while (wl.next(0, op)) {
        if (op.kind == CpuOpKind::Dcbz) {
            // Back-to-back bursts land on a different page: restart.
            if (dcbz_run > 0 && op.addr != prev + 64)
                dcbz_run = 0;
            ++dcbz_run;
            prev = op.addr;
            max_run = std::max(max_run, dcbz_run);
        } else {
            dcbz_run = 0;
        }
    }
    // A full 4 KB page is 64 consecutive sequential DCBZ ops.
    EXPECT_GE(max_run, 64);
    EXPECT_EQ(max_run % 64, 0);
}

TEST(Generator, TwoPhaseWorkloadShiftsBehavior)
{
    WorkloadProfile p = simpleProfile();
    PhaseSpec first;
    first.fraction = 0.5;
    first.pIfetch = 0.0;
    first.pSharedRW = 0.0;
    PhaseSpec second = first;
    second.pSharedRW = 0.9;
    p.phases = {first, second};
    SyntheticWorkload wl(p, 1, 10000, 23);
    CpuOp op;
    int shared_first = 0, shared_second = 0;
    for (int i = 0; i < 10000; ++i) {
        wl.next(0, op);
        const bool is_shared_rw = op.addr >= 0x20000000ULL &&
                                  op.addr < 0x40000000ULL;
        (i < 5000 ? shared_first : shared_second) += is_shared_rw;
    }
    EXPECT_LT(shared_first, 100);
    EXPECT_GT(shared_second, 3000);
}

TEST(Generator, GapsAveragedNearProfile)
{
    WorkloadProfile p = simpleProfile();
    p.avgGap = 5.0;
    SyntheticWorkload wl(p, 1, 20000, 29);
    CpuOp op;
    double total_gap = 0;
    int n = 0;
    while (wl.next(0, op)) {
        // DCBZ bursts force gap 0; skip them for the average.
        if (op.kind == CpuOpKind::Dcbz)
            continue;
        total_gap += op.gap;
        ++n;
    }
    EXPECT_NEAR(total_gap / n, 5.0, 0.8);
}

TEST(Generator, AddressesStayInMappedMemory)
{
    for (const auto &p : standardBenchmarks()) {
        SyntheticWorkload wl(p, 4, 2000, 31);
        CpuOp op;
        for (CpuId cpu = 0; cpu < 4; ++cpu) {
            for (int i = 0; i < 2000; ++i) {
                ASSERT_TRUE(wl.next(cpu, op));
                ASSERT_LT(op.addr, 1ULL << 32)
                    << p.name << " generated an out-of-range address";
            }
        }
    }
}

TEST(Workload, StreamPin)
{
    // Every generated op of every standard profile, drawn round-robin
    // (the shared-object owners make the CPUs' streams interdependent)
    // and serialized field by field, little-endian.
    constexpr unsigned kCpus = 4;
    constexpr std::uint64_t kOps = 100000;
    Xxh64Stream all;
    for (const auto &p : standardBenchmarks()) {
        SyntheticWorkload wl(p, kCpus, kOps, 20050609);
        Xxh64Stream one;
        CpuOp op;
        for (std::uint64_t i = 0; i < kOps; ++i) {
            for (CpuId cpu = 0; cpu < static_cast<CpuId>(kCpus); ++cpu) {
                ASSERT_TRUE(wl.next(cpu, op));
                std::uint8_t rec[14];
                rec[0] = static_cast<std::uint8_t>(op.kind);
                for (unsigned b = 0; b < 8; ++b)
                    rec[1 + b] = static_cast<std::uint8_t>(op.addr >> (8 * b));
                for (unsigned b = 0; b < 4; ++b)
                    rec[9 + b] = static_cast<std::uint8_t>(op.gap >> (8 * b));
                rec[13] = op.dependent;
                one.update(rec, sizeof rec);
                all.update(rec, sizeof rec);
            }
        }
        std::printf("%-16s %016llx\n", p.name.c_str(),
                    static_cast<unsigned long long>(one.digest()));
    }
    std::printf("%-16s %016llx\n", "all",
                static_cast<unsigned long long>(all.digest()));
    EXPECT_EQ(all.digest(), golden::kStandardStreamsXxh64);
}

} // namespace
} // namespace cgct
