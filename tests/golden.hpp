/**
 * @file
 * Golden results: the frozen digests of simulated output (and of the
 * CGCTSNAP image of a drained run) that a change must reproduce bit for
 * bit, in one table. Each constant names the test
 * that asserts it and the command that regenerates it; docs/PERF.md
 * ("Golden results") lists the same table and tools/check_docs.sh keeps
 * the two in step. The SamplingPin digests stay next to their configs in
 * test_sampling.cpp.
 *
 * Update a value only for a deliberate, documented change of simulated
 * behaviour, never to make a test pass.
 */

#pragma once

#include <cstdint>

// Golden runs are full size; sanitizer builds skip them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CGCT_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CGCT_SANITIZED 1
#endif
#endif
#ifndef CGCT_SANITIZED
#define CGCT_SANITIZED 0
#endif

namespace cgct::golden {

/**
 * SHA-256 of the default `cgct_sweep` CSV (every standard benchmark x
 * regions {0,256,512,1024} x 3 seeds at 120000 ops), at any --jobs.
 * Asserted by SweepIdentity.DefaultSweepDigestAndPaperClaimsAtJobs1
 * (--jobs 1): contract row 4 of docs/CONTRACTS.md. Regenerate:
 *   build/tools/cgct_sweep --jobs 1 --no-progress | sha256sum
 */
inline constexpr const char *kDefaultSweepSha256 =
    "a4fe05cba1939a49ca6e5f165c6df01b4b2d32cdfb1a80dc9d94d42f7950246e";

/**
 * FNV-1a-64 of encodeRunResult for 16-node tpc-w on the two-level
 * hierarchy with 512 B CGCT, 40000 ops per CPU, seed 20050609.
 * Asserted by TopologyPin.Hier16TpcwStatsDigest. Regenerate (prints it):
 *   build/tests/test_topology --gtest_filter='TopologyPin.*'
 */
inline constexpr std::uint64_t kHier16TpcwStatsFnv = 0x760a76b4c601f663ULL;

/**
 * The same digest for 16-node tpc-h on the hierarchy (the workload with
 * the most broadcasts per op). Asserted by TopologyPin.Hier16TpchStatsDigest;
 * regenerated by the same command.
 */
inline constexpr std::uint64_t kHier16TpchStatsFnv = 0x399b42c851e41267ULL;

/**
 * The same tpc-h digest on the full-map directory. Asserted by
 * TopologyPin.Dir16TpchStatsDigest; regenerated by the same command.
 */
inline constexpr std::uint64_t kDir16TpchStatsFnv = 0x17c06ffee19fdfd8ULL;

/**
 * The kHier16TpcwStatsFnv cell with one RCA per chip (`--shared-rca`).
 * Asserted by TopologyPin.Hier16SharedRcaTpcwStatsDigest; regenerated by
 * the same command.
 */
inline constexpr std::uint64_t kHier16SharedRcaTpcwStatsFnv = 0xb4485f05df7e0e66ULL;

/**
 * FNV-1a-64 of the topology-column CSV of a 16-node `--topology hier`
 * tpc-w sweep (regions {0,512}, 1 seed, 5000 ops), identical at --jobs 1
 * and 4. Asserted by TopologyPin.Hier16TpcwSweepCsvDigest. Regenerate
 * (prints it):
 *   build/tests/test_topology --gtest_filter='TopologyPin.*'
 */
inline constexpr std::uint64_t kHier16TpcwSweepCsvFnv = 0x90ab876a4cb843c5ULL;

/**
 * FNV-1a-64 of the System::dumpStats text (the `cgct_sim --stats` body)
 * of the kHier16TpcwStatsFnv cell: every component's counters under their
 * registered names and descriptions. Asserted by StatsTextPin.Hier16Tpcw.
 * Regenerate (prints it):
 *   build/tests/test_topology --gtest_filter='StatsTextPin.*'
 */
inline constexpr std::uint64_t kHier16TpcwDumpStatsFnv = 0x36fcd68d2eead17fULL;

/**
 * The same dumpStats digest for that cell on the full-map directory.
 * Asserted by StatsTextPin.Dir16Tpcw; regenerated by the same command.
 */
inline constexpr std::uint64_t kDir16TpcwDumpStatsFnv = 0x5a168c9137588f78ULL;

/**
 * The same dumpStats digest on the default 4-node bus with 512 B CGCT
 * (tpc-w, 40000 ops per CPU, seed 20050609). Asserted by
 * StatsTextPin.Bus4Tpcw512; regenerated by the same command.
 */
inline constexpr std::uint64_t kBus4Tpcw512DumpStatsFnv = 0xee31a0ea68cdc079ULL;

/**
 * FNV-1a-64 of encodeRunResult for cgct_paper's A4 cell shape: a whole
 * 4-node tpc-w run (no warmup) on the baseline configuration with
 * RegionScout trackers built through System, 40000 ops per CPU, seed
 * 20050609. Asserted by RegionScoutPin.Tpcw4. Regenerate (prints it):
 *   build/tests/test_regionscout --gtest_filter='RegionScoutPin.*'
 */
inline constexpr std::uint64_t kRegionScoutTpcw4StatsFnv = 0x24b568305837ba84ULL;

/**
 * FNV-1a-64 of that run's System::dumpStats text, which carries the
 * regionscout.nsrt_* and crh counters. Asserted by RegionScoutPin.Tpcw4;
 * regenerated by the same command.
 */
inline constexpr std::uint64_t kRegionScoutTpcw4DumpStatsFnv = 0xc8eb104ef679511bULL;

/**
 * xxhash64 of the op streams of all nine standard profiles: the first
 * 100000 ops of each of 4 CPUs at seed 20050609, drawn round-robin and
 * serialized as kind, address, gap, dependent. Asserted by
 * Workload.StreamPin. Regenerate (prints it, and each profile's own):
 *   build/tests/test_workload --gtest_filter='Workload.StreamPin'
 */
inline constexpr std::uint64_t kStandardStreamsXxh64 = 0x814c09a2a029e15aULL;

/**
 * xxhash64 of canonicalizeConfig's bytes (the configuration part of every
 * snapshot and sweep fingerprint) for makeDefaultConfig(). Asserted by
 * ConfigPin.CanonicalBytes. Regenerate (prints all four):
 *   build/tests/test_config --gtest_filter='ConfigPin.*'
 */
inline constexpr std::uint64_t kDefaultConfigXxh64 = 0xe714f4c871d3db7cULL;

/**
 * The same digest for makeDefaultConfig().withCgct(512). Asserted by
 * ConfigPin.CanonicalBytes; regenerated by the same command.
 */
inline constexpr std::uint64_t kCgct512ConfigXxh64 = 0x11bc66cc021cbaf9ULL;

/**
 * The same digest for that configuration on 16 processors and the
 * two-level hierarchy. Asserted by ConfigPin.CanonicalBytes; regenerated
 * by the same command.
 */
inline constexpr std::uint64_t kHier16ConfigXxh64 = 0x461ee57b8601cd6eULL;

/**
 * The same digest on 16 processors and the full-map directory with DMA
 * on. Asserted by ConfigPin.CanonicalBytes; regenerated by the same
 * command.
 */
inline constexpr std::uint64_t kDir16DmaConfigXxh64 = 0x80a1fbccccc560c0ULL;

/*
 * The three CGCTSNAP digests below are of format v3, whose tag arrays
 * store occupancy masks and entries only. Each is the image saveImage
 * writes of a system drained at 10000 ops per CPU, the warmup check
 * armed as a full run arms it, under the header fingerprint
 * snapshotFingerprint(config, "tpc-w", opts, 10000).
 */

/**
 * SHA-256 of the image of tpc-w, 512 B CGCT, 20000 ops per CPU, warmup
 * 4000, seed nextSweepSeed(20050609) (`cgct_sim tpc-w --ops 20000`).
 * Asserted by SnapshotPin.GeneratedCheckpointBytes. Regenerate (prints
 * it):
 *   build/tests/test_snapshot_restore
 *     --gtest_filter='SnapshotPin.GeneratedCheckpointBytes'
 */
inline constexpr const char *kGeneratedCheckpointSha256 =
    "686690945cf875728e8521a233b2a774e9e0668606a6ca9bd3aa895693368d75";

/**
 * SHA-256 of the same image for a 16-node hierarchy with one RCA per
 * chip (HierRouter state, shared-tracker dedupe): `cgct_sim tpc-w
 * --nodes 16 --topology hier --shared-rca --ops 20000`. Asserted by
 * SnapshotPin.Hier16SharedRcaCheckpointBytes. Regenerate (prints it):
 *   build/tests/test_snapshot_restore
 *     --gtest_filter='SnapshotPin.Hier16SharedRcaCheckpointBytes'
 */
inline constexpr const char *kHier16SharedRcaCheckpointSha256 =
    "3f19dd811bd755e9a4052d073467e7ff533e41cff104905409357c0c4efa9aba";

/**
 * SHA-256 of the same image on the 16-node directory with DMA on
 * (sharer and presence tables, the "dma" section): `cgct_sim tpc-w
 * --nodes 16 --topology dir --dma --shared-rca --ops 20000`. Asserted by
 * SnapshotPin.Dir16DmaCheckpointBytes. Regenerate (prints it):
 *   build/tests/test_snapshot_restore
 *     --gtest_filter='SnapshotPin.Dir16DmaCheckpointBytes'
 */
inline constexpr const char *kDir16DmaCheckpointSha256 =
    "39d2b8e127e7a96afdf93d364c076a6a4bb2302658ed87389a476944ae7d3d1d";

/**
 * xxhash64 of the v2 trace file TraceWriter writes for the TraceMutation
 * seed: 3 lanes of 8 memory records, every memory record kind, end
 * records. Asserted by TracePin.FileBytes. Regenerate (prints it):
 *   build/tests/test_trace --gtest_filter='TracePin.*'
 */
inline constexpr std::uint64_t kTraceFileXxh64 = 0x6345d360d1f3cc86ULL;

/**
 * xxhash64 of toJson for test_result_format.cpp's distinctResult(): one
 * RunResult with every member set to a distinct value, sampled, on the
 * topology columns, with two histograms and a distribution. Asserted by
 * ResultFormatPin.Json. Regenerate (prints all three):
 *   build/tests/test_result_format
 */
inline constexpr std::uint64_t kResultJsonXxh64 = 0xf0b07a7aa389aebbULL;

/**
 * xxhash64 of the sweep CSV header and row of that result with the
 * sampled and topology columns on. Asserted by
 * ResultFormatPin.SampledTopologyCsv; regenerated by the same command.
 */
inline constexpr std::uint64_t kResultCsvXxh64 = 0x93d531b5aeb59d63ULL;

/**
 * xxhash64 of that result's encodeRunResult bytes. Asserted by
 * ResultFormatPin.EncodedRecord; regenerated by the same command.
 */
inline constexpr std::uint64_t kResultRecordXxh64 = 0x790f08676f83b31dULL;

} // namespace cgct::golden
