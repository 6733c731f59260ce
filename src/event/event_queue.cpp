#include "event/event_queue.hpp"

#include "common/log.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

EventQueue::EventQueue() : wheel_(kWheelTicks) {}

void
EventQueue::pushWheel(Tick when, unsigned cls, Callback cb)
{
    // Grab a pooled node: recycle from the free list if one is available,
    // else grow the pool. Growth stops at the high-water mark of
    // outstanding events — after that every schedule() is allocation-free
    // regardless of which wheel slots the tick pattern lands on.
    std::uint32_t idx;
    if (freeHead_ != kNil) {
        idx = freeHead_;
        freeHead_ = pool_[idx].next;
    } else {
        idx = static_cast<std::uint32_t>(pool_.size());
        pool_.emplace_back();
    }
    Node &n = pool_[idx];
    n.cb = std::move(cb);
    n.next = kNil;

    Bucket &b = bucketOf(when);
    if (b.tail[cls] == kNil)
        b.head[cls] = idx;
    else
        pool_[b.tail[cls]].next = idx;
    b.tail[cls] = idx;
    ++b.count;
    ++wheelCount_;
}

void
EventQueue::schedule(Tick when, Callback cb, EventPriority prio)
{
    if (when < now_)
        panic("event scheduled in the past (when=%llu now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now_));
    const auto cls = static_cast<unsigned>(prio);
    if (when - now_ < kWheelTicks) {
        pushWheel(when, cls, std::move(cb));
        ++seq_; // Wheel FIFOs encode seq order positionally; keep the
                // counter in step for events that overflow to the heap.
    } else {
        heap_.push(HeapItem{when, static_cast<int>(cls), seq_++,
                            std::move(cb)});
    }
}

Tick
EventQueue::nextEventTick() const
{
    // The wheel holds everything inside [now_, now_ + kWheelTicks); the
    // heap everything at or beyond the horizon. The wheel scan walks at
    // most the gap to the next near-future event and is cut short by the
    // heap top, so sparse queues fall straight through to the heap.
    const Tick heap_top = heap_.empty() ? 0 : heap_.top().when;
    if (wheelCount_ > 0) {
        const Tick limit = heap_.empty() ? kWheelTicks : heap_top - now_;
        const Tick span = limit < kWheelTicks ? limit : kWheelTicks;
        for (Tick off = 0; off < span; ++off) {
            if (wheel_[(now_ + off) & kWheelMask].count > 0)
                return now_ + off;
        }
        // Wheel events exist but none before the heap top: with every
        // wheel event < now_ + kWheelTicks <= any heap event, the scan
        // above can only miss if limit cut it short, i.e. heap_top wins.
    }
    return heap_top;
}

void
EventQueue::advanceTo(Tick when)
{
    now_ = when;
    // Ticks newly inside the horizon: pull their overflow events into the
    // wheel now, before any schedule() call can append to those buckets,
    // so the heap events' earlier sequence numbers stay ahead. The heap
    // pops in (when, prio, seq) order, which per (tick, class) is exactly
    // FIFO append order.
    while (!heap_.empty() && heap_.top().when - now_ < kWheelTicks) {
        HeapItem item = std::move(const_cast<HeapItem &>(heap_.top()));
        heap_.pop();
        pushWheel(item.when, static_cast<unsigned>(item.prio),
                  std::move(item.cb));
    }
}

bool
EventQueue::runOne()
{
    if (wheelCount_ == 0 && heap_.empty())
        return false;
    Bucket *b = &bucketOf(now_);
    if (b->count == 0) {
        advanceTo(nextEventTick());
        b = &bucketOf(now_);
    }
    // Lowest non-exhausted priority class runs first; within a class the
    // FIFO preserves insertion (seq) order. Re-picking the class on every
    // event lets a callback schedule a *higher*-priority event at the
    // current tick and have it run before the remaining lower-priority
    // ones, matching the (tick, priority, seq) heap contract.
    for (unsigned cls = 0; cls < kNumEventPriorities; ++cls) {
        const std::uint32_t idx = b->head[cls];
        if (idx == kNil)
            continue;
        Node &n = pool_[idx];
        b->head[cls] = n.next;
        if (n.next == kNil)
            b->tail[cls] = kNil;
        --b->count;
        --wheelCount_;
        ++executed_;
        // Move the callback out and return the node to the free list
        // *before* invoking: the callback may schedule (growing pool_,
        // which would invalidate `n`) and may legitimately reuse this
        // very node.
        Callback cb = std::move(n.cb);
        n.cb.reset();
        n.next = freeHead_;
        freeHead_ = idx;
        cb();
        return true;
    }
    panic("event wheel bucket count/FIFO mismatch at tick %llu",
          static_cast<unsigned long long>(now_));
}

std::uint64_t
EventQueue::run(std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (n < max_events && runOne())
        ++n;
    return n;
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    std::uint64_t n = 0;
    while (!empty() && nextEventTick() < until) {
        runOne();
        ++n;
    }
    // Unconditional: empty spans advance time too, so repeated
    // runUntil() calls see monotonic now() (see header contract).
    if (now_ < until)
        advanceTo(until);
    return n;
}

void
EventQueue::clear()
{
    // O(pending): container swap for the heap (the old one-pop-at-a-time
    // loop was O(n log n)) and a walk of the occupied wheel FIFOs. Pool
    // nodes go back on the free list so the next phase stays
    // allocation-free.
    decltype(heap_) empty_heap;
    heap_.swap(empty_heap);
    if (wheelCount_ > 0) {
        for (Bucket &b : wheel_) {
            if (b.count == 0)
                continue;
            for (unsigned cls = 0; cls < kNumEventPriorities; ++cls) {
                std::uint32_t idx = b.head[cls];
                while (idx != kNil) {
                    Node &n = pool_[idx];
                    const std::uint32_t next = n.next;
                    n.cb.reset();
                    n.next = freeHead_;
                    freeHead_ = idx;
                    idx = next;
                }
                b.head[cls] = kNil;
                b.tail[cls] = kNil;
            }
            b.count = 0;
        }
        wheelCount_ = 0;
    }
}

void
EventQueue::serialize(Serializer &s) const
{
    if (!empty())
        panic("EventQueue: serializing with %zu events pending — "
              "snapshots require a drained system", pending());
    s.u64(now_);
    s.u64(executed_);
}

void
EventQueue::deserialize(SectionReader &r)
{
    if (!empty())
        panic("EventQueue: restoring into a queue with %zu events pending",
              pending());
    now_ = r.u64();
    executed_ = r.u64();
}

} // namespace cgct
