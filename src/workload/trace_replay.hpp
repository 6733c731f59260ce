/**
 * @file
 * Streaming trace replayer. Maps the trace read-only (mmap) and
 * decodes each lane's records at a byte cursor: no per-op allocation
 * and no materialized op stream. Each lane releases the pages behind its
 * cursor every kTraceResidentWindow (1 MiB) of progress, so a replay
 * keeps at most lanes x (1 MiB + 64 KiB fault-around) of the trace
 * resident, whatever its size: the 28 MB benchmark trace replays at the
 * generator's 20 MB peak RSS, not 39.5 MB (docs/PERF.md, "Bounded trace
 * input"). A released page faults back with the same bytes, so the
 * window never changes a decoded op.
 *
 * Synchronization records (docs/TRACE_FORMAT.md) are consumed inside
 * fetch(), re-creating the recorded cross-thread ordering in simulated
 * time at the core interface:
 *
 *   barrier       counted rendezvous; the release time is the maximum
 *                 arrival clock, the last arriver pays it inline and
 *                 the rest wake through the event queue.
 *   lock acquire/ FIFO mutex: a contended acquire blocks the lane; a
 *   release       release hands the lock to the oldest waiter at the
 *                 releaser's clock.
 *   signal/wait   counting semaphore per condition id: wait consumes a
 *                 prior signal or blocks until one arrives.
 *
 * Wakeups are scheduled on the event queue in ascending lane order at
 * the release tick, so replay is fully deterministic ((tick, priority,
 * seq) ordering). If every lane is blocked or ended the trace's
 * synchronization can never make progress and the replayer fatal()s
 * with a deadlock diagnosis instead of hanging the simulation.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mapped_file.hpp"
#include "common/types.hpp"
#include "cpu/core_model.hpp"
#include "workload/trace.hpp"

namespace cgct {

class Archive;

/** OpSource that streams a v2 trace file. */
class TraceReplay : public OpSource
{
  public:
    /** mmap and validate @p path; fatal() on any format error, and on
     *  a legacy version-1 trace. */
    explicit TraceReplay(const std::string &path);

    /**
     * Timing-free iteration: synchronization records are skipped, only
     * memory ops are returned. Tools use this; simulation goes through
     * fetch().
     */
    bool next(CpuId cpu, CpuOp &op) override;

    OpFetch fetch(CpuId cpu, Tick &now, CpuOp &op) override;
    void attach(EventQueue &eq) override { eq_ = &eq; }
    void bindWaiter(CpuId cpu, std::function<void(Tick)> wake) override;

    unsigned numLanes() const { return info_.numLanes; }
    std::uint64_t opsDeclared() const { return info_.opsDeclared; }
    std::uint64_t traceId() const { return info_.traceId; }

    /** Directory totals (not affected by replay progress). */
    std::uint64_t memOpsTotal() const;
    std::uint64_t maxLaneMemOps() const;

    /**
     * Warmup support: the minimum memory-op count any live lane has
     * consumed; UINT64_MAX once every lane ended (mirrors
     * SyntheticWorkload::minOpsDrawn()).
     */
    std::uint64_t minOpsConsumed() const;

    /**
     * Checkpoint support: fetch() reports End for a lane once it has
     * consumed @p ops memory ops, so the run drains for a snapshot.
     * Sync-blocked lanes cannot drain — runPhase() (sim/simulator.hpp)
     * counts them, and the drain loop reports the wedged pause point and
     * asks for a different interval.
     */
    void setPauseAt(std::uint64_t ops) { pauseAt_ = ops; }

    /** True once every lane reached its end record. */
    bool allEnded() const { return endedLanes_ == lanes_.size(); }

    /**
     * Checkpoint layout of replay progress (lane cursors, lock owners,
     * semaphore counts). Saving is only legal on a drained system:
     * panics if any lane is blocked or has a wake in flight. A load
     * verifies the trace identity (trace_id) before restoring cursors.
     */
    void transfer(Archive &ar);

  private:
    enum class LaneState : std::uint8_t {
        Runnable,
        Blocked,     ///< Waiting on a sync event, no wake scheduled.
        WakePending, ///< Wake event scheduled, not yet delivered.
        Ended,       ///< Reached the end record.
    };

    struct Lane {
        const std::uint8_t *base = nullptr;
        std::uint64_t offset = 0; ///< Payload's offset in the file.
        std::uint64_t bytes = 0;
        std::uint64_t cursor = 0; ///< Byte offset into the payload.
        std::uint64_t mark = 0;   ///< Released up to here (payload).
        std::uint64_t memConsumed = 0;
        std::uint64_t syncConsumed = 0;
        LaneState state = LaneState::Runnable;
    };

    struct BarrierState {
        std::vector<std::uint32_t> arrived;
        Tick maxClock = 0;
    };

    struct LockState {
        bool held = false;
        std::uint32_t holder = 0;
        std::deque<std::uint32_t> waiters;
    };

    struct CondState {
        std::uint64_t count = 0;
        std::deque<std::uint32_t> waiters;
    };

    /**
     * The one decode loop behind fetch() and next(): advance lane @p li
     * to its next memory op. Sync records are handled at @p now, or
     * skipped when @p now is null (timing-free iteration).
     */
    OpFetch advance(std::uint32_t li, Tick *now, CpuOp &op);

    /** Consume one sync record; false means the lane blocked. */
    bool handleSync(std::uint32_t lane, const SyncRecord &sync,
                    Tick &now);

    void block(std::uint32_t lane);
    void wakeLane(std::uint32_t lane, Tick release);
    void markEnded(std::uint32_t lane);
    [[noreturn]] void reportDeadlock(std::uint32_t lane) const;

    std::string path_;
    MappedFile map_;
    TraceInfo info_;
    std::vector<Lane> lanes_;
    std::vector<std::function<void(Tick)>> waiters_;
    EventQueue *eq_ = nullptr;
    std::uint64_t pauseAt_ = UINT64_MAX;
    std::uint32_t blockedLanes_ = 0;
    std::uint32_t endedLanes_ = 0;
    std::uint32_t wakesPending_ = 0;
    std::unordered_map<std::uint64_t, BarrierState> barriers_;
    std::unordered_map<std::uint64_t, LockState> locks_;
    std::unordered_map<std::uint64_t, CondState> conds_;
};

} // namespace cgct
