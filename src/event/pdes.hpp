/**
 * @file
 * Conservative parallel discrete-event simulation (PDES) coordinator —
 * docs/PDES.md is the full design note.
 *
 * A sharded System partitions its processor chips across several event
 * queues ("shards") plus one hub queue that owns every globally-ordered
 * component: the bus, the memory controllers, the data network, the
 * oracle, DMA, and the warmup check. Shards advance together through
 * bounded-lag quanta: each quantum executes every shard event with
 * tick < S in parallel, where the stop tick S is derived from the
 * minimum cross-shard reaction latency (the snoop latency — a shard
 * event at tick t cannot affect another shard before t + snoopLatency,
 * because every cross-shard interaction travels through a bus
 * broadcast that resolves snoopLatency cycles after its grant).
 *
 * The only cross-shard action a shard event can take is entering the
 * bus, and that is deferred: the enqueue event appends a
 * BroadcastRecord to its shard's channel instead of touching the bus.
 * At the quantum barrier the coordinator merges all channels into the
 * sequential enqueue order — ties at the same tick are broken by event
 * lineage (src/event/lineage.hpp), reconstructing the sequential
 * insertion sequence exactly — and replays them through the bus with
 * their logical enqueue ticks (Bus::broadcastAt), interleaved with the
 * hub queue's own events in (tick, priority) order. The result is
 * byte-identical statistics at any shard count.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "coherence/snoop.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "event/event_queue.hpp"
#include "event/lineage.hpp"

namespace cgct {

class Node;

/**
 * A bus enqueue deferred by a shard until the quantum barrier.
 * `tick` is the enqueue event's tick (the bus entry time), `issued`
 * the node-local issue tick (for miss-latency accounting), and `lin`
 * the enqueue event's lineage node — the tie-breaker that recovers
 * the sequential order of same-tick enqueues from different shards.
 */
struct BroadcastRecord {
    Node *node = nullptr;
    SystemRequest req;
    Tick issued = 0;
    Tick tick = 0;
    LineageNode *lin = nullptr;
};

/**
 * Quantum stop tick S: shards execute every event with tick < S.
 *
 * Base lag bound: S = (earliest shard event) + lookahead — nothing a
 * shard does before S can demand hub service before S. The hub's own
 * earliest event caps it: a Snoop-class hub event at tick t must
 * interleave *before* shard events at t (S = t), while a Default-class
 * one (DMA, warmup check) runs *after* them (S = t + 1). Requires at
 * least one pending event; lookahead must be >= 1.
 */
Tick pdesStopTick(bool hub_has, Tick hub_tick, int hub_prio,
                  bool shard_has, Tick shard_min, Tick lookahead);

/** Drives the quantum loop for one sharded System. */
class PdesCoordinator
{
  public:
    /**
     * @p shard_qs are borrowed (owned by the System), one per shard;
     * at least two. Attaches lineage tracking to the hub and every
     * shard queue.
     */
    PdesCoordinator(EventQueue &hub, std::vector<EventQueue *> shard_qs,
                    Tick lookahead);
    ~PdesCoordinator();

    unsigned shards() const
    {
        return static_cast<unsigned>(qs_.size());
    }

    /** Called by a Node's enqueue event instead of Bus::broadcast. */
    void defer(unsigned shard, Node *node, const SystemRequest &req,
               Tick issued, Tick tick);

    /**
     * Run quanta until every queue drains (or @p max_events executed),
     * then quiesce: align all clocks to the global last-event tick and
     * fold shard execution counts into the hub so the serialized state
     * matches a sequential run byte for byte.
     */
    std::uint64_t run(std::uint64_t max_events);

    /** Re-align shard clocks after System::restoreState. */
    void restoreClocks(Tick now);

  private:
    std::uint64_t runQuantum(Tick stop);
    void mergeRecords();
    std::uint64_t processBarrier(Tick stop);
    void stampLogs();
    void finalize();

    EventQueue &hub_;
    std::vector<EventQueue *> qs_;
    Tick lookahead_;
    Tick stop_ = 0;
    LineageCtx ctx_;
    ThreadPool pool_;

    /** Per-shard deferred bus enqueues, in shard execution order. */
    std::vector<std::vector<BroadcastRecord>> recs_;
    std::vector<BroadcastRecord *> merged_;

    /** Per-shard quantum results, padded against false sharing. */
    struct alignas(64) ShardSlot {
        std::uint64_t executed = 0;
    };
    std::vector<ShardSlot> slots_;
};

} // namespace cgct
