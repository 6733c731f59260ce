/**
 * @file
 * The CGCTSNAP image of a drained system (docs/SNAPSHOT.md): the one
 * writer and the one reader, used by the sampler to hand each
 * measurement window its warm state in memory, and the fingerprint that
 * ties an image to the run it came from.
 *
 * Event callbacks (InlineFunction closures) cannot be serialized, so an
 * image is only taken of a *quiescent* system: the workload pauses op
 * injection at a per-CPU op budget (SyntheticWorkload::setPauseAt),
 * every core drains to Finished, the event queue runs empty, and only
 * then is the architectural state — caches, RCAs, MSHR free lists, RNG
 * streams, workload cursors, statistics — written out. A System restored
 * from the image and resumed runs to the same bytes as the drained
 * System continued (docs/CONTRACTS.md, row 5). The drain itself is part
 * of the experiment: it perturbs event timing relative to a never-paused
 * run.
 *
 * The header carries a fingerprint of the full SystemConfig plus the
 * run identity (workload, ops, warmup, seed, drain schedule).
 * Observability knobs (tracing, invariant checking) are deliberately
 * excluded: they never affect simulated behavior, so a plain image
 * restores under full instrumentation (docs/CONTRACTS.md, row 8).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "sim/simulator.hpp"

namespace cgct {

class Serializer;
class SyntheticWorkload;

/**
 * Canonical serialization of every behavior-affecting SystemConfig
 * field, in declaration order. Observability knobs are excluded (see
 * file comment). Shared by the snapshot fingerprint and the sweep
 * fingerprint.
 */
void canonicalizeConfig(Serializer &s, const SystemConfig &config);

/**
 * The header fingerprint: xxhash64 over the canonical config plus the
 * run identity (profile name, opsPerCpu, warmupOps, seed) and
 * @p schedule, the drain schedule the image belongs to (the sampler
 * passes its window geometry). opts.maxEvents is excluded — it is a
 * runaway guard, not part of the experiment.
 */
std::uint64_t snapshotFingerprint(const SystemConfig &config,
                                  const std::string &profileName,
                                  const RunOptions &opts,
                                  std::uint64_t schedule);

/**
 * The CGCTSNAP image of the drained @p sys and its @p workload: the
 * header with @p fingerprint, the "workload" section, then every System
 * section. Built in place and handed over uncopied. @p image_bytes
 * carries the previous image's size from call to call; the buffer
 * reserves it plus 1/16, because one run's images grow slowly (hier and
 * dir presence maps fill up) and one byte over would double the buffer.
 */
std::vector<std::uint8_t> saveImage(System &sys, SyntheticWorkload &workload,
                                    std::uint64_t fingerprint,
                                    std::size_t &image_bytes);

/**
 * Load @p image, as saveImage wrote it, into a fresh @p sys over
 * @p workload; resumePhase() then continues the drained run. The image
 * is freed on return. fatal()s, naming @p label, on bytes the decoder
 * rejects and on a header fingerprint that is not @p fingerprint.
 */
void restoreImage(System &sys, SyntheticWorkload &workload,
                  std::vector<std::uint8_t> &&image,
                  std::uint64_t fingerprint, const std::string &label);

} // namespace cgct
