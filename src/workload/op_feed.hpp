/**
 * @file
 * OpFeed: functional warming's op stream (docs/SAMPLING.md), drawn on a
 * producer thread. Functional warming draws ops in a fixed round-robin,
 * one op per CPU per pass, and nothing it simulates feeds back into the
 * draws, so a second thread can draw ahead while the caller applies the
 * ops. The caller sees exactly the ops, in exactly the order, that a
 * round-robin draw on its own thread would give:
 *
 *   feed.draw(pause);                        // the next segment
 *   for (auto ops = feed.take(); !ops.empty(); ops = feed.take())
 *       for (const OpFeed::Op &o : ops) apply(o);
 *   // the producer is parked; the workload sits at `pause`
 *
 * The producer draws one segment at a time, up to the pause point the
 * caller hands it, and parks there. Once take() returns an empty span it
 * touches the workload no more until the next draw(), so the caller may
 * serialize the workload's RNGs and cursors in between.
 *
 * The ops travel through a ring of kChunks chunks of kChunkOps ops,
 * 256 KiB allocated once per feed. Both sides block on a condition
 * variable when the ring is full or empty; neither spins, so on a
 * one-core host the producer sleeps while the caller applies, and takes
 * the core back once per kRefill chunks.
 * The destructor stops and joins the producer wherever it is blocked.
 */

#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>

#include "common/types.hpp"

namespace cgct {

class SyntheticWorkload;

/** The round-robin op stream of one workload, drawn on its own thread. */
class OpFeed
{
  public:
    /** One drawn op and the CPU that drew it. */
    struct Op {
        CpuOp op;
        CpuId cpu;
    };

    static constexpr std::size_t kChunkOps = 2048;
    static constexpr std::size_t kChunks = 4;
    /** A producer blocked on a full ring resumes once this many chunks
     *  are free: on a shared core it then preempts the consumer once per
     *  kRefill chunks. */
    static constexpr std::size_t kRefill = kChunks / 2;

    /** Starts the producer, parked until the first draw(). The caller
     *  touches @p workload only while the producer is parked. */
    OpFeed(SyntheticWorkload &workload, unsigned num_cpus);

    /** Stops and joins the producer, wherever it is blocked. */
    ~OpFeed();

    OpFeed(const OpFeed &) = delete;
    OpFeed &operator=(const OpFeed &) = delete;

    /** Draw the next segment: round-robin passes until every CPU has
     *  drawn @p pause_at ops (clamped to the stream's length). Call once
     *  the previous segment is taken to its end. */
    void draw(std::uint64_t pause_at);

    /** The segment's next ops in draw order, valid until the next call;
     *  empty once the segment is taken to its end and the producer has
     *  parked. */
    std::span<const Op> take();

  private:
    struct Chunk {
        Op ops[kChunkOps];
        std::size_t count = 0;
        bool last = false; ///< The segment's final chunk.
    };

    /** The producer's loop. Drawing and the handoff do not throw; if
     *  they ever did, the program would end rather than feed a short
     *  stream. */
    void produce() noexcept;
    bool awaitSegment();
    bool publish(bool last);

    SyntheticWorkload &workload_;
    const unsigned numCpus_;
    const std::unique_ptr<Chunk[]> ring_;

    std::mutex mutex_;
    std::condition_variable filledCv_; ///< The consumer waits for a chunk.
    std::condition_variable roomCv_;   ///< The producer waits for work.
    // Under mutex_: chunks published and released since the start, the
    // pending segment and the stop request. Only the producer writes
    // filled_, so it also reads it unlocked.
    std::uint64_t filled_ = 0;
    std::uint64_t consumed_ = 0;
    std::uint64_t pauseAt_ = 0;
    bool segmentPending_ = false;
    bool stop_ = false;

    // The consumer's own: a taken chunk not yet released, and whether
    // the current segment's final chunk has been taken.
    bool held_ = false;
    bool segmentTaken_ = true;

    std::thread producer_; ///< Last: starts once the rest is built.
};

} // namespace cgct
