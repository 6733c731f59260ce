/**
 * @file
 * Crash-safe sweep resume journal (docs/SNAPSHOT.md).
 *
 * A sweep's cells are independent jobs on a thread pool, so on an
 * interrupt or crash the completed cells are an arbitrary *subset* of
 * the matrix, not a prefix. The journal records each finished cell as it
 * completes — keyed by cell index, fsync'd per record — and a restarted
 * sweep (`cgct_sweep --resume FILE`) loads it, skips the journaled
 * cells, and re-emits every row in cell order, so the final CSV/JSON is
 * byte-identical to an uninterrupted run.
 *
 *   file   := magic(8)="CGCTJRNL" version(u32) fingerprint(u64) record*
 *   record := payloadLen(u64) payload xxhash64(payload)(u64)
 *   payload:= cellIndex(u64) encoded RunResult
 *
 * Everything little-endian. The fingerprint hashes the sweep definition
 * (base config + profiles + regions + seeds + run options), so a journal
 * from a different sweep refuses to resume. A torn trailing record — the
 * crash happened mid-append — fails its length or checksum test and is
 * truncated away on open; every earlier record is intact because appends
 * are fsync'd in order.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>

#include "sim/simulator.hpp"

namespace cgct {

class Serializer;
class SectionReader;
struct SweepSpec;

/**
 * Encode every RunResult field into @p s, histograms and distributions
 * included; the captured trace is excluded (never set in sweeps). The
 * encoding doubles as the byte-identity witness in the restore tests:
 * two results are identical iff their encodings are. Both functions are
 * entry points over the record's one layout function; a decode of a
 * crafted record fatal()s naming the record instead of over-allocating.
 */
void encodeRunResult(Serializer &s, const RunResult &r);
RunResult decodeRunResult(SectionReader &r);

/** Fingerprint of everything that defines a sweep's cells and results. */
std::uint64_t sweepFingerprint(const SweepSpec &spec);

/** The append-only completed-cells journal behind `--resume`. */
class SweepJournal
{
  public:
    SweepJournal() = default;
    ~SweepJournal();
    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /**
     * Open (or create) @p path and load every intact record. Returns an
     * error message — nonexistent directory, fingerprint mismatch,
     * malformed header — or the empty string. A torn trailing record is
     * silently truncated, not an error.
     */
    std::string open(const std::string &path, std::uint64_t fingerprint);

    /** Cells already completed in an earlier (interrupted) run. */
    const std::map<std::uint64_t, RunResult> &completed() const
    {
        return completed_;
    }

    /** Thread-safe, fsync'd append of one freshly completed cell. */
    void append(std::uint64_t cellIndex, const RunResult &result);

    /** Records appended by *this* process (crash-injection hook).
     *  Atomic: read from any worker thread while others append. */
    std::uint64_t appendCount() const { return appends_.load(); }

  private:
    std::FILE *file_ = nullptr;
    std::mutex mutex_;
    std::map<std::uint64_t, RunResult> completed_;
    std::atomic<std::uint64_t> appends_{0};
};

} // namespace cgct
