/**
 * @file
 * Golden results: the frozen digests of simulated output (and of the
 * checkpoint files a run writes) that a change must reproduce bit for
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
 * Asserted by SweepIdentity.DefaultSweepDigestAndPaperClaimsAtJobs1,
 * SweepIdentity.DefaultSweepDigestAtJobs0 and by the
 * snapshot_resume ctest. Regenerate:
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
 * FNV-1a-64 of the topology-column CSV of a 16-node `--topology hier`
 * tpc-w sweep (regions {0,512}, 1 seed, 5000 ops), identical at --jobs 1
 * and 4. Asserted by TopologyPin.Hier16TpcwSweepCsvDigest. Regenerate
 * (prints it):
 *   build/tests/test_topology --gtest_filter='TopologyPin.*'
 */
inline constexpr std::uint64_t kHier16TpcwSweepCsvFnv = 0x90ab876a4cb843c5ULL;

/**
 * SHA-256 of the CGCTSNAP file a generated run writes at its 10000-op
 * drain: tpc-w, 512 B CGCT, 20000 ops per CPU, warmup 4000, seed
 * nextSweepSeed(20050609). Asserted by
 * SnapshotPin.GeneratedCheckpointBytes. Regenerate:
 *   build/tools/cgct_sim tpc-w --ops 20000 --checkpoint-every 10000
 *     --checkpoint /tmp/gen && sha256sum /tmp/gen.10000
 */
inline constexpr const char *kGeneratedCheckpointSha256 =
    "bad4eef737bb44c82d82fbe61525441f4e5f436b2e5f83de6379fd5b6b73c5fc";

/**
 * SHA-256 of the CGCTSNAP file a v2 trace replay writes at its 10000-op
 * drain: the capture of `cgct_sim tpc-w --ops 20000`, replayed on the
 * same system (warmup 4000 from the trace header, seed 20050609).
 * Asserted by SnapshotPin.ReplayCheckpointBytes. Regenerate:
 *   build/tools/cgct_sim tpc-w --ops 20000 --capture /tmp/t.trace
 *   build/tools/cgct_sim --replay /tmp/t.trace --checkpoint-every 10000
 *     --checkpoint /tmp/rep && sha256sum /tmp/rep.10000
 */
inline constexpr const char *kReplayCheckpointSha256 =
    "6bfed5c307e45c0f3bdeecb34e372593b89636073edabcbbd0f501881b04df6d";

/**
 * SHA-256 of the CGCTSNAP file a 16-node hierarchy run with one RCA per
 * chip writes at its 10000-op drain (HierRouter state, shared-tracker
 * dedupe). Asserted by SnapshotPin.Hier16SharedRcaCheckpointBytes.
 * Regenerate:
 *   build/tools/cgct_sim tpc-w --nodes 16 --topology hier --shared-rca
 *     --ops 20000 --checkpoint-every 10000 --checkpoint /tmp/hier
 *     && sha256sum /tmp/hier.10000
 */
inline constexpr const char *kHier16SharedRcaCheckpointSha256 =
    "c20f2e49fa3cdd955747abb1c5d5413918d7e01b50a37777c59a4433c389debf";

/**
 * SHA-256 of the same checkpoint on the 16-node directory with DMA on
 * (sharer and presence tables, the "dma" section). Asserted by
 * SnapshotPin.Dir16DmaCheckpointBytes. Regenerate:
 *   build/tools/cgct_sim tpc-w --nodes 16 --topology dir --dma
 *     --shared-rca --ops 20000 --checkpoint-every 10000
 *     --checkpoint /tmp/dir && sha256sum /tmp/dir.10000
 */
inline constexpr const char *kDir16DmaCheckpointSha256 =
    "80e1fa1dc871461db50ef4c53d667b41ecefe36c924816e1f8abafa77d6da092";

} // namespace cgct::golden
