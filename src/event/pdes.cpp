#include "event/pdes.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "sim/node.hpp"

namespace cgct {

namespace {

constexpr int kSnoopPrio = static_cast<int>(EventPriority::Snoop);
constexpr int kDataPrio = static_cast<int>(EventPriority::Data);
constexpr int kCpuPrio = static_cast<int>(EventPriority::Cpu);
constexpr int kDefaultPrio = static_cast<int>(EventPriority::Default);

/**
 * Order two deferred enqueues by their sequential execution key. Both are
 * Cpu-class events, so ticks decide and lineage breaks the ties.
 */
bool
recordLess(const BroadcastRecord &a, const BroadcastRecord &b)
{
    if (a.tick != b.tick)
        return a.tick < b.tick;
    return lineageLess(a.lin, b.lin);
}

} // namespace

Tick
pdesStopTick(bool hub_has, Tick hub_tick, int hub_prio, bool shard_has,
             Tick shard_min, Tick lookahead)
{
    if (!hub_has && !shard_has)
        panic("pdesStopTick: no pending events");
    Tick stop = 0;
    bool have = false;
    if (shard_has) {
        stop = shard_min + lookahead;
        have = true;
    }
    if (hub_has) {
        // A Snoop-class hub event at t feeds shard state *at* t (its
        // completions interleave before shard events at the same tick),
        // so shards may run only up to t. Default-class events (DMA,
        // warmup check) sort after every shard event at t, so shards
        // first finish the tick itself.
        const Tick cap = hub_prio < kDataPrio ? hub_tick : hub_tick + 1;
        if (!have || cap < stop) {
            stop = cap;
            have = true;
        }
    }
    return stop;
}

PdesCoordinator::PdesCoordinator(EventQueue &hub,
                                 std::vector<EventQueue *> shard_qs,
                                 Tick lookahead)
    : hub_(hub), qs_(std::move(shard_qs)),
      lookahead_(lookahead),
      pool_(static_cast<unsigned>(qs_.size()) - 1),
      recs_(qs_.size()), slots_(qs_.size())
{
    if (qs_.size() < 2)
        panic("PdesCoordinator: need at least 2 shards, got %zu",
              qs_.size());
    if (lookahead_ < 1)
        panic("PdesCoordinator: lookahead must be >= 1");
    hub_.setLineage(&ctx_);
    for (EventQueue *q : qs_)
        q->setLineage(&ctx_);
}

PdesCoordinator::~PdesCoordinator() = default;

void
PdesCoordinator::defer(unsigned shard, Node *node, const SystemRequest &req,
                       Tick issued, Tick tick)
{
    // Called from inside the enqueue event on the shard's thread: the
    // current lineage node IS the enqueue event. Take a reference for
    // the record; it is released after replay at the barrier.
    LineageNode *lin = EventQueue::currentLineage();
    if (!lin)
        panic("PdesCoordinator: defer without a lineage context");
    recs_[shard].push_back(
        BroadcastRecord{node, req, issued, tick, lineageRef(lin)});
}

std::uint64_t
PdesCoordinator::runQuantum(Tick stop)
{
    stop_ = stop;
    for (unsigned s = 1; s < qs_.size(); ++s) {
        pool_.postTask(ThreadPool::Task(
            [this, s] { slots_[s].executed = qs_[s]->runUntil(stop_); }));
    }
    slots_[0].executed = qs_[0]->runUntil(stop);
    pool_.wait();

    std::uint64_t n = 0;
    for (const ShardSlot &slot : slots_)
        n += slot.executed;
    return n;
}

void
PdesCoordinator::mergeRecords()
{
    // K-way merge of the per-shard channels into the sequential enqueue
    // order. Each channel is already sorted by recordLess: a shard
    // executes its events in (tick, prio, seq) order and all records
    // come from Cpu-class events, so within one channel tick order is
    // execution order and lineage order follows it.
    merged_.clear();
    std::vector<std::size_t> pos(qs_.size(), 0);
    for (;;) {
        int best = -1;
        for (std::size_t s = 0; s < recs_.size(); ++s) {
            if (pos[s] >= recs_[s].size())
                continue;
            if (best < 0 ||
                recordLess(recs_[s][pos[s]],
                           recs_[static_cast<std::size_t>(best)]
                               [pos[static_cast<std::size_t>(best)]]))
                best = static_cast<int>(s);
        }
        if (best < 0)
            break;
        const auto b = static_cast<std::size_t>(best);
        merged_.push_back(&recs_[b][pos[b]++]);
    }
}

std::uint64_t
PdesCoordinator::processBarrier(Tick stop)
{
    // Interleave the merged enqueue replays (key (tick, Cpu)) with the
    // hub queue's own events, in global key order, up to — but not
    // including — key (stop, Data). That bound admits exactly the hub
    // events a sequential run would have executed before the first
    // still-pending shard event: resolves at stop (Snoop < Data) and
    // Default-class stragglers strictly before stop.
    std::uint64_t n = 0;
    std::size_t ri = 0;
    for (;;) {
        Tick ht = 0;
        int hp = 0;
        const bool hub_pending = hub_.peekNext(&ht, &hp);
        const bool hub_ok =
            hub_pending && (ht < stop || (ht == stop && hp < kDataPrio));
        const bool rec_ok = ri < merged_.size();
        if (hub_ok &&
            (!rec_ok || ht < merged_[ri]->tick ||
             (ht == merged_[ri]->tick && hp < kCpuPrio))) {
            hub_.runOne();
            ++n;
            continue;
        }
        if (rec_ok) {
            BroadcastRecord *r = merged_[ri++];
            // Replay with the enqueue event's lineage as the scheduling
            // context, so the resolve the bus schedules gets the same
            // parentage a sequential run would give it.
            LineageNode *prev = EventQueue::setCurrentLineage(r->lin);
            r->node->postBroadcast(r->req, r->issued, r->tick);
            EventQueue::setCurrentLineage(prev);
            lineageUnref(r->lin);
            continue;
        }
        break;
    }
    for (auto &v : recs_)
        v.clear();
    merged_.clear();
    return n;
}

void
PdesCoordinator::stampLogs()
{
    // Merge the hub's and every shard's execution log — each already in
    // its queue's execution order — into the global order and stamp the
    // nodes with monotonically increasing ranks. A stamped node needs no
    // parent chain for future comparisons, so the chain is severed here;
    // this is what bounds lineage memory to one quantum's events.
    std::vector<std::vector<LineageNode *> *> logs;
    logs.reserve(qs_.size() + 1);
    logs.push_back(&hub_.execLog());
    for (EventQueue *q : qs_)
        logs.push_back(&q->execLog());

    std::vector<std::size_t> pos(logs.size(), 0);
    for (;;) {
        int best = -1;
        for (std::size_t i = 0; i < logs.size(); ++i) {
            if (pos[i] >= logs[i]->size())
                continue;
            if (best < 0) {
                best = static_cast<int>(i);
                continue;
            }
            const LineageNode *cand = (*logs[i])[pos[i]];
            const LineageNode *cur =
                (*logs[static_cast<std::size_t>(best)])
                    [pos[static_cast<std::size_t>(best)]];
            if (cand->tick != cur->tick
                    ? cand->tick < cur->tick
                    : (cand->prio != cur->prio ? cand->prio < cur->prio
                                               : lineageLess(cand, cur)))
                best = static_cast<int>(i);
        }
        if (best < 0)
            break;
        const auto b = static_cast<std::size_t>(best);
        LineageNode *node = (*logs[b])[pos[b]++];
        node->stamp = ctx_.nextStamp++;
        lineageUnref(node->parent);
        node->parent = nullptr;
        lineageUnref(node);
    }
    for (auto *log : logs)
        log->clear();
}

std::uint64_t
PdesCoordinator::run(std::uint64_t max_events)
{
    std::uint64_t total = 0;
    for (;;) {
        if (total >= max_events) {
            // Runaway guard tripped: the caller treats this as fatal, so
            // skip the (empty-queue) quiesce and just report the count.
            return total;
        }
        bool shard_has = false;
        Tick shard_min = 0;
        for (EventQueue *q : qs_) {
            Tick t = 0;
            int p = 0;
            if (q->peekNext(&t, &p) && (!shard_has || t < shard_min)) {
                shard_min = t;
                shard_has = true;
            }
        }
        Tick hub_t = 0;
        int hub_p = 0;
        const bool hub_has = hub_.peekNext(&hub_t, &hub_p);
        if (!hub_has && !shard_has)
            break;
        if (hub_has && hub_p != kSnoopPrio && hub_p != kDefaultPrio)
            panic("PdesCoordinator: unexpected hub event priority %d at "
                  "tick %llu — hub components schedule only Snoop and "
                  "Default class events",
                  hub_p, static_cast<unsigned long long>(hub_t));

        const Tick stop = pdesStopTick(hub_has, hub_t, hub_p, shard_has,
                                       shard_min, lookahead_);
        total += runQuantum(stop);
        mergeRecords();
        total += processBarrier(stop);
        stampLogs();
    }
    finalize();
    return total;
}

void
PdesCoordinator::finalize()
{
    // Quiesce to the exact state a drained sequential run would have:
    // every clock at the tick of the globally last event, and the hub
    // queue owning the full executed-event count, so the "eq" snapshot
    // section is byte-identical. Every grant's accounting was settled by
    // its resolve, which ran on the hub before the drain.
    Tick max_last = hub_.lastExecutedTick();
    for (EventQueue *q : qs_)
        max_last = std::max(max_last, q->lastExecutedTick());
    hub_.runUntil(max_last);
    std::uint64_t extra = 0;
    for (EventQueue *q : qs_) {
        q->restoreClock(max_last);
        extra += q->takeExecuted();
    }
    hub_.addExecuted(extra);
}

void
PdesCoordinator::restoreClocks(Tick now)
{
    for (EventQueue *q : qs_)
        q->restoreClock(now);
}

} // namespace cgct
