/**
 * @file
 * Tests for the discrete-event kernel: time ordering, same-tick priority
 * ordering, insertion-order determinism, and the run helpers.
 */

#include <gtest/gtest.h>

#include <vector>

#include "event/event_queue.hpp"

namespace cgct {
namespace {

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickPriorityOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(4); }, EventPriority::Cpu);
    eq.schedule(5, [&] { order.push_back(1); }, EventPriority::Snoop);
    eq.schedule(5, [&] { order.push_back(3); }, EventPriority::Data);
    eq.schedule(5, [&] { order.push_back(2); }, EventPriority::Memory);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, SameTickSamePriorityIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(7, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EarlierTickBeatsHigherPriority)
{
    // Priority only breaks ties within a tick: a Default event at an
    // earlier tick runs before a Snoop event at a later one.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(20, [&] { order.push_back(2); }, EventPriority::Snoop);
    eq.schedule(10, [&] { order.push_back(1); }, EventPriority::Default);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, CallbackSchedulesFollowEarlierSameKeySchedules)
{
    // At one (tick, priority) key, events run in schedule order: the two
    // scheduled before run() precede the ones a callback adds, and a
    // callback's own schedules keep their relative order.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(9, [&] { order.push_back(1); }, EventPriority::Cpu);
    eq.schedule(5, [&] {
        eq.schedule(9, [&] { order.push_back(3); }, EventPriority::Cpu);
        eq.schedule(9, [&] { order.push_back(4); }, EventPriority::Cpu);
    });
    eq.schedule(9, [&] { order.push_back(2); }, EventPriority::Cpu);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.scheduleIn(5, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 6u);
}

TEST(EventQueue, RunOneReturnsFalseWhenEmpty)
{
    EventQueue eq;
    EXPECT_FALSE(eq.runOne());
    eq.schedule(1, [] {});
    EXPECT_TRUE(eq.runOne());
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, RunWithLimit)
{
    EventQueue eq;
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        eq.schedule(i, [&] { ++fired; });
    EXPECT_EQ(eq.run(4), 4u);
    EXPECT_EQ(fired, 4);
    EXPECT_EQ(eq.pending(), 6u);
}

TEST(EventQueue, RunUntilStopsBeforeTick)
{
    EventQueue eq;
    std::vector<Tick> fired;
    for (Tick t : {5u, 10u, 15u, 20u})
        eq.schedule(t, [&fired, &eq] { fired.push_back(eq.now()); });
    eq.runUntil(15);
    EXPECT_EQ(fired, (std::vector<Tick>{5, 10}));
    EXPECT_EQ(eq.now(), 15u);
    eq.run();
    EXPECT_EQ(fired.size(), 4u);
}

TEST(EventQueue, RunUntilAdvancesTimeOverEmptySpans)
{
    EventQueue eq;
    // No events at all: time still advances to `until`.
    EXPECT_EQ(eq.runUntil(100), 0u);
    EXPECT_EQ(eq.now(), 100u);
    // Back-to-back empty spans keep advancing monotonically.
    EXPECT_EQ(eq.runUntil(250), 0u);
    EXPECT_EQ(eq.now(), 250u);
    // An event beyond `until` does not fire but time reaches `until`.
    bool fired = false;
    eq.schedule(1000, [&] { fired = true; });
    EXPECT_EQ(eq.runUntil(900), 0u);
    EXPECT_EQ(eq.now(), 900u);
    EXPECT_FALSE(fired);
    // `until` in the past (or present) never moves time backwards.
    eq.runUntil(10);
    EXPECT_EQ(eq.now(), 900u);
    eq.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(eq.now(), 1000u);
}

TEST(EventQueue, WheelWraparoundKeepsOrder)
{
    // Delays straddling the wheel horizon land in the overflow heap and
    // must still execute in (tick, priority, seq) order.
    EventQueue eq;
    std::vector<int> order;
    const Tick w = EventQueue::kWheelTicks;
    eq.schedule(2 * w + 3, [&] { order.push_back(5); });
    eq.schedule(w, [&] { order.push_back(3); });
    eq.schedule(w - 1, [&] { order.push_back(2); });
    eq.schedule(w + 1, [&] { order.push_back(4); });
    eq.schedule(1, [&] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_EQ(eq.now(), 2 * w + 3);
}

TEST(EventQueue, SameSlotDifferentTicksStaySeparate)
{
    // Ticks t and t + kWheelTicks map to the same wheel slot; the second
    // must wait in the overflow heap until the horizon reaches it.
    EventQueue eq;
    const Tick w = EventQueue::kWheelTicks;
    std::vector<Tick> fired;
    eq.schedule(7, [&] { fired.push_back(eq.now()); });
    eq.schedule(7 + w, [&] { fired.push_back(eq.now()); });
    eq.schedule(7 + 2 * w, [&] { fired.push_back(eq.now()); });
    eq.run();
    EXPECT_EQ(fired, (std::vector<Tick>{7, 7 + w, 7 + 2 * w}));
}

TEST(EventQueue, HeapMigrationPrecedesLaterSameTickInserts)
{
    // An event scheduled while its tick was beyond the horizon (heap)
    // has a smaller sequence number than a same-tick same-priority event
    // scheduled later from close range, so it must run first.
    EventQueue eq;
    const Tick target = EventQueue::kWheelTicks + 500;
    std::vector<int> order;
    eq.schedule(target, [&] { order.push_back(1); }); // far: heap
    eq.schedule(target - 10, [&] {
        // Close range now: this insert goes straight to the wheel.
        eq.schedule(target, [&] { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, HeapMigrationRespectsPriorityClasses)
{
    // Priority still dominates seq across the heap/wheel boundary: a
    // late near-range Snoop event outranks an early far-range Cpu event
    // at the same tick.
    EventQueue eq;
    const Tick target = EventQueue::kWheelTicks + 500;
    std::vector<int> order;
    eq.schedule(target, [&] { order.push_back(2); }, EventPriority::Cpu);
    eq.schedule(target - 10, [&] {
        eq.schedule(target, [&] { order.push_back(1); },
                    EventPriority::Snoop);
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, CallbackCanRaiseSameTickPriority)
{
    // While a Data event runs, a newly scheduled same-tick Snoop event
    // must execute before the remaining Data events (heap contract).
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] {
        order.push_back(1);
        eq.schedule(5, [&] { order.push_back(2); },
                    EventPriority::Snoop);
    }, EventPriority::Data);
    eq.schedule(5, [&] { order.push_back(3); }, EventPriority::Data);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ExecutedCounter)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    ASSERT_EQ(eq.now(), 100u);
    EXPECT_DEATH(eq.schedule(50, [] {}), "scheduled in the past");
}

TEST(EventQueue, ZeroDelayScheduleInRunsAtSameTick)
{
    EventQueue eq;
    bool ran = false;
    eq.schedule(10, [&] { eq.scheduleIn(0, [&] { ran = true; }); });
    eq.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(eq.now(), 10u);
}

} // namespace
} // namespace cgct
