/**
 * @file
 * The RunResult byte codec and the sweep fingerprint.
 *
 * encodeRunResult writes every field of a result in the field list's
 * order (sim/result_fields.hpp), little-endian. Nothing stores these
 * bytes: the encoding is the byte-identity witness of the determinism
 * contracts (docs/CONTRACTS.md) and the frozen result pins, and
 * decodeRunResult is how the round-trip tests prove the witness drops
 * no field.
 */

#pragma once

#include <cstdint>

#include "sim/simulator.hpp"

namespace cgct {

class Serializer;
class SectionReader;
struct SweepSpec;

/**
 * Encode every RunResult field into @p s, histograms and distributions
 * included; the captured trace is excluded (never set in sweeps). Two
 * results are identical iff their encodings are. Both functions are
 * entry points over the record's one layout function; a decode of a
 * crafted record fatal()s naming the record instead of over-allocating.
 */
void encodeRunResult(Serializer &s, const RunResult &r);
RunResult decodeRunResult(SectionReader &r);

/** Fingerprint of everything that defines a sweep's cells and results. */
std::uint64_t sweepFingerprint(const SweepSpec &spec);

} // namespace cgct
