/**
 * @file
 * Discrete-event simulation kernel. Components schedule callbacks at
 * absolute ticks; the queue executes them in (tick, priority, insertion
 * order) order, so simulations are fully deterministic.
 *
 * Implementation: a two-level calendar queue. Near-future events — the
 * small fixed latencies (bus slots, snoop resolution, DRAM access, L2
 * fills) that account for nearly every scheduleIn() call — land in a ring
 * of per-tick buckets and are scheduled/executed in O(1) with no heap
 * allocation: each bucket keeps one FIFO per priority class as an
 * index-linked list into a shared node pool, and the callback is a
 * fixed-capacity InlineFunction stored inside the pool node itself. The
 * pool grows to the maximum outstanding-event count once and is recycled
 * through a free list thereafter, so the steady state allocates nothing
 * no matter which buckets the tick pattern happens to hit. Far-future
 * events (beyond kWheelTicks ticks from now) overflow into a min-heap and
 * migrate into the wheel when the horizon reaches them. Migration happens
 * the moment a tick enters the horizon — before any direct wheel
 * insertion for that tick can occur — so heap-resident events keep their
 * (smaller) sequence numbers ahead of later arrivals and the exact
 * (tick, priority, seq) execution order of the original single-heap
 * kernel is preserved.
 */

#pragma once

#include <array>
#include <cstdint>
#include <queue>
#include <vector>

#include "common/inline_function.hpp"
#include "common/types.hpp"

namespace cgct {

class Archive;

/**
 * Priority classes for events scheduled at the same tick. Lower runs first.
 * Coherence actions (snoops) are ordered before data deliveries before CPU
 * progress so that state is settled before consumers observe it.
 */
enum class EventPriority : int {
    Snoop = 0,
    Memory = 1,
    Data = 2,
    Cpu = 3,
    Default = 4,
};

/** Number of same-tick priority classes (size of EventPriority). */
inline constexpr unsigned kNumEventPriorities = 5;

/**
 * Inline capture capacity of an event callback, in bytes. Sized for the
 * fattest hot-path capture (the node's broadcast-response continuation
 * plus its SystemRequest, wrapped once more by an interconnect resolve
 * event). Growing a capture past this is a compile error at the
 * schedule() call site, not a runtime allocation.
 */
inline constexpr std::size_t kEventCallbackCapacity = 192;

/** The event queue / simulation kernel. */
class EventQueue
{
  public:
    using Callback = InlineFunction<void(), kEventCallbackCapacity>;

    /** Near-future horizon of the calendar wheel, in ticks (power of 2). */
    static constexpr Tick kWheelTicks = 1024;

    EventQueue();

    /** Current simulated time in CPU cycles. */
    Tick now() const { return now_; }

    /** Schedule @p cb at absolute tick @p when (>= now). */
    void
    schedule(Tick when, Callback cb,
             EventPriority prio = EventPriority::Default);

    /** Schedule @p cb @p delay ticks from now. */
    void
    scheduleIn(Tick delay, Callback cb,
               EventPriority prio = EventPriority::Default)
    {
        schedule(now_ + delay, std::move(cb), prio);
    }

    /** True if no events remain. */
    bool empty() const { return wheelCount_ == 0 && heap_.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return wheelCount_ + heap_.size(); }

    /** Execute the next event; returns false if the queue was empty. */
    bool runOne();

    /** Run until the queue is empty or @p max_events were executed. */
    std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

    /**
     * Run until simulated time reaches @p until (exclusive) or the queue
     * empties. Time always advances to @p until afterwards (if it was
     * ahead of now), even when no event fired in the span, so back-to-back
     * runUntil() calls over empty spans observe monotonically advancing
     * now().
     */
    std::uint64_t runUntil(Tick until);

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Checkpoint layout. Callbacks cannot be serialized, so snapshots
     * are only taken when the queue is empty (a drained system); saving
     * and loading both panic otherwise. Only the clock and the executed-event
     * count are state — the insertion sequence counter need not be
     * saved, because execution order depends only on the *relative*
     * order of events scheduled after the restore point.
     */
    void transfer(Archive &ar);

  private:
    static constexpr Tick kWheelMask = kWheelTicks - 1;
    static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

    /**
     * A pooled wheel event. Nodes live in pool_, are linked through
     * `next` into per-(bucket, priority-class) FIFOs, and recycle via
     * freeHead_ — the pool grows to the high-water mark of outstanding
     * events once, then the kernel never allocates again.
     */
    struct Node {
        Callback cb;
        std::uint32_t next = kNil;
    };

    /**
     * One wheel slot == one tick within the horizon [now, now+kWheelTicks).
     * head/tail index the pool FIFO per priority class; count is the
     * bucket's total pending events (for the next-event scan).
     */
    struct Bucket {
        std::array<std::uint32_t, kNumEventPriorities> head;
        std::array<std::uint32_t, kNumEventPriorities> tail;
        std::uint32_t count = 0;

        Bucket()
        {
            head.fill(kNil);
            tail.fill(kNil);
        }
    };

    /** Far-future overflow event (beyond the wheel horizon at schedule). */
    struct HeapItem {
        Tick when;
        int prio;
        std::uint64_t seq;
        Callback cb;
    };

    struct Later {
        bool
        operator()(const HeapItem &a, const HeapItem &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.prio != b.prio)
                return a.prio > b.prio;
            return a.seq > b.seq;
        }
    };

    Bucket &bucketOf(Tick when) { return wheel_[when & kWheelMask]; }

    /** Append @p cb to the wheel FIFO for (when, cls). */
    void pushWheel(Tick when, unsigned cls, Callback cb);

    /** Tick of the earliest pending event (queue must be non-empty). */
    Tick nextEventTick() const;

    /** Advance now_ to @p when, migrating newly-in-horizon heap events. */
    void advanceTo(Tick when);

    std::vector<Bucket> wheel_;
    std::vector<Node> pool_;
    std::uint32_t freeHead_ = kNil;
    std::size_t wheelCount_ = 0;
    std::priority_queue<HeapItem, std::vector<HeapItem>, Later> heap_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace cgct
