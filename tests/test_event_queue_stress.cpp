/**
 * @file
 * Randomized determinism stress for the calendar-queue kernel: the same
 * event plan is executed on the real EventQueue and on a reference
 * std::priority_queue model implementing the documented
 * (tick, priority, seq) contract directly, and the execution orders must
 * match exactly. Plans mix same-tick priority classes, zero-delay
 * self-scheduling, wheel-wraparound delays, and far-future events that
 * overflow to the heap and migrate back into the wheel. Contract row 1
 * (docs/CONTRACTS.md). Label: contract.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <random>
#include <vector>

#include "event/event_queue.hpp"

namespace cgct {
namespace {

/**
 * A pre-generated event tree: node i fires `delay` ticks after its parent
 * fires (roots: at absolute tick `delay`) and then schedules its
 * children, in order. Execution order over ids is the test oracle.
 */
struct Plan {
    struct Node {
        Tick delay;
        EventPriority prio;
        std::vector<int> children;
    };
    std::vector<Node> nodes;
    std::vector<int> roots;
};

Plan
makePlan(std::uint64_t seed, int n_roots)
{
    std::mt19937_64 rng(seed);
    Plan plan;

    // Delay distribution mixing every interesting band: same-tick,
    // near-future (the common case), the wheel horizon boundary, and
    // far-future heap overflow.
    auto random_delay = [&rng]() -> Tick {
        const Tick w = EventQueue::kWheelTicks;
        switch (rng() % 8) {
          case 0: return 0;
          case 1: case 2: case 3: return rng() % 24;
          case 4: return rng() % 400;
          case 5: return w - 2 + rng() % 5;      // straddle the horizon
          case 6: return w + rng() % (3 * w);    // overflow heap
          default: return rng() % (8 * w);       // anywhere
        }
    };
    auto random_prio = [&rng]() -> EventPriority {
        return static_cast<EventPriority>(rng() % kNumEventPriorities);
    };

    // Roots plus a bounded burst of children per node (depth-limited by
    // construction: children are only generated for already-made nodes).
    for (int i = 0; i < n_roots; ++i) {
        plan.nodes.push_back({random_delay(), random_prio(), {}});
        plan.roots.push_back(i);
    }
    const std::size_t max_nodes = static_cast<std::size_t>(n_roots) * 3;
    for (std::size_t parent = 0;
         parent < plan.nodes.size() && plan.nodes.size() < max_nodes;
         ++parent) {
        const unsigned n_children = rng() % 3;
        for (unsigned c = 0;
             c < n_children && plan.nodes.size() < max_nodes; ++c) {
            plan.nodes.push_back({random_delay(), random_prio(), {}});
            plan.nodes[parent].children.push_back(
                static_cast<int>(plan.nodes.size() - 1));
        }
    }
    return plan;
}

/** Reference executor: the documented contract, implemented literally. */
std::vector<int>
referenceOrder(const Plan &plan)
{
    struct Ref {
        Tick when;
        int prio;
        std::uint64_t seq;
        int idx;
    };
    struct Later {
        bool
        operator()(const Ref &a, const Ref &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.prio != b.prio)
                return a.prio > b.prio;
            return a.seq > b.seq;
        }
    };
    std::priority_queue<Ref, std::vector<Ref>, Later> pq;
    std::uint64_t seq = 0;
    for (int r : plan.roots) {
        pq.push(Ref{plan.nodes[r].delay,
                    static_cast<int>(plan.nodes[r].prio), seq++, r});
    }
    std::vector<int> order;
    while (!pq.empty()) {
        const Ref top = pq.top();
        pq.pop();
        order.push_back(top.idx);
        for (int c : plan.nodes[top.idx].children) {
            pq.push(Ref{top.when + plan.nodes[c].delay,
                        static_cast<int>(plan.nodes[c].prio), seq++, c});
        }
    }
    return order;
}

/** Real executor: the plan driven through the calendar queue. */
struct Runner {
    EventQueue &eq;
    const Plan &plan;
    std::vector<int> order;
    std::vector<Tick> firedAt;

    void
    scheduleNode(Tick when, int idx)
    {
        eq.schedule(when,
                    [this, when, idx] {
                        order.push_back(idx);
                        firedAt.push_back(eq.now());
                        for (int c : plan.nodes[idx].children)
                            scheduleNode(when + plan.nodes[c].delay, c);
                    },
                    plan.nodes[idx].prio);
    }

    void
    scheduleRoots()
    {
        for (int r : plan.roots)
            scheduleNode(plan.nodes[r].delay, r);
    }
};

class EventQueueStress : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EventQueueStress, MatchesReferenceModelViaRun)
{
    const Plan plan = makePlan(GetParam(), 1500);
    const std::vector<int> expected = referenceOrder(plan);
    ASSERT_GE(expected.size(), 1500u);

    EventQueue eq;
    Runner runner{eq, plan, {}, {}};
    runner.scheduleRoots();
    eq.run();

    ASSERT_EQ(runner.order.size(), expected.size());
    EXPECT_EQ(runner.order, expected);
    EXPECT_EQ(eq.executed(), expected.size());
    // now() at each firing must be the event's own tick, monotonically
    // non-decreasing.
    for (std::size_t i = 1; i < runner.firedAt.size(); ++i)
        EXPECT_LE(runner.firedAt[i - 1], runner.firedAt[i]);
}

TEST_P(EventQueueStress, MatchesReferenceModelViaRunUntilSteps)
{
    // Same plan, but driven by fixed-stride runUntil() calls (spans with
    // no events included), interleaved with runOne() nudges: execution
    // order must be identical to the single run() case.
    const Plan plan = makePlan(GetParam(), 800);
    const std::vector<int> expected = referenceOrder(plan);

    EventQueue eq;
    Runner runner{eq, plan, {}, {}};
    runner.scheduleRoots();

    std::mt19937_64 rng(GetParam() ^ 0xABCDEF);
    while (!eq.empty()) {
        switch (rng() % 3) {
          case 0:
            eq.runUntil(eq.now() + 1 + rng() % 700);
            break;
          case 1:
            eq.runOne();
            break;
          default:
            eq.run(1 + rng() % 50);
            break;
        }
    }

    EXPECT_EQ(runner.order, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueStress,
                         ::testing::Values(1u, 42u, 20050609u,
                                           0xDEADBEEFu));

} // namespace
} // namespace cgct
