#include "workload/op_feed.hpp"

#include "workload/generator.hpp"

// The profile-guided build (docs/PERF.md) trains on a sampled run, so
// this feed runs under instrumentation. How often a side waits depends on
// the host's scheduling, and the profile records the order in which
// functions first run. So every function here that one thread runs while
// the other draws, apart from the drawing loop, stays out of the profile,
// and the counts are the same on every build.
#define CGCT_UNPROFILED [[gnu::noinline, gnu::no_profile_instrument_function]]

namespace cgct {

// The ring is kChunks * kChunkOps ops of 32 B: 256 KiB.
static_assert(sizeof(OpFeed::Op) == 32);

OpFeed::OpFeed(SyntheticWorkload &workload, unsigned num_cpus)
    : workload_(workload), numCpus_(num_cpus),
      ring_(std::make_unique<Chunk[]>(kChunks)),
      producer_([this] { produce(); })
{
}

OpFeed::~OpFeed()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    roomCv_.notify_one();
    producer_.join();
}

CGCT_UNPROFILED void
OpFeed::draw(std::uint64_t pause_at)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // The previous segment's final chunk, if take() returned it empty.
        if (held_)
            ++consumed_;
        held_ = false;
        pauseAt_ = pause_at;
        segmentPending_ = true;
    }
    segmentTaken_ = false;
    roomCv_.notify_one();
}

CGCT_UNPROFILED std::span<const OpFeed::Op>
OpFeed::take()
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (held_) {
        held_ = false;
        // A producer blocked on the full ring waits for kRefill free
        // chunks, so it wakes once per kRefill chunks, not per chunk.
        ++consumed_;
        if (filled_ - consumed_ == kChunks - kRefill)
            roomCv_.notify_one();
    }
    if (segmentTaken_)
        return {};
    while (filled_ == consumed_)
        filledCv_.wait(lock);
    const Chunk &chunk = ring_[consumed_ % kChunks];
    held_ = true;
    segmentTaken_ = chunk.last;
    return {chunk.ops, chunk.count};
}

/** Parks until the consumer hands over a segment; false on stop. */
CGCT_UNPROFILED bool
OpFeed::awaitSegment()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_ && !segmentPending_)
        roomCv_.wait(lock);
    segmentPending_ = false;
    if (!stop_)
        workload_.setPauseAt(pauseAt_);
    return !stop_;
}

/** Hands the chunk being filled to the consumer, then, mid-segment on
 *  a full ring, waits until kRefill chunks are free; false on stop. */
CGCT_UNPROFILED bool
OpFeed::publish(bool last)
{
    std::unique_lock<std::mutex> lock(mutex_);
    ring_[filled_ % kChunks].last = last;
    ++filled_;
    filledCv_.notify_one();
    if (!last && filled_ - consumed_ == kChunks) {
        while (!stop_ && filled_ - consumed_ > kChunks - kRefill)
            roomCv_.wait(lock);
    }
    return !stop_;
}

void
OpFeed::produce() noexcept
{
    while (awaitSegment()) {
        Chunk *chunk = &ring_[filled_ % kChunks];
        chunk->count = 0;
        // Round-robin, one op per CPU per pass, until every CPU is at
        // the pause point.
        bool drew = true;
        while (drew) {
            drew = false;
            for (unsigned cpu = 0; cpu < numCpus_; ++cpu) {
                Op &slot = chunk->ops[chunk->count];
                if (!workload_.next(static_cast<CpuId>(cpu), slot.op))
                    continue;
                slot.cpu = static_cast<CpuId>(cpu);
                drew = true;
                if (++chunk->count < kChunkOps)
                    continue;
                if (!publish(false))
                    return;
                chunk = &ring_[filled_ % kChunks];
                chunk->count = 0;
            }
        }
        publish(true);
    }
}

} // namespace cgct
