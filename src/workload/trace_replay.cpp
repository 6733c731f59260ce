#include "workload/trace_replay.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "event/event_queue.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

TraceReplay::TraceReplay(const std::string &path) : path_(path)
{
    std::string err = map_.open(path);
    if (!err.empty())
        fatal("trace replay: %s", err.c_str());
    err = parseTraceV2Header(map_.data(), map_.size(), info_);
    if (!err.empty())
        fatal("trace replay: '%s': %s", path.c_str(), err.c_str());

    lanes_.resize(info_.numLanes);
    waiters_.resize(info_.numLanes);
    for (std::uint32_t i = 0; i < info_.numLanes; ++i) {
        lanes_[i].base = map_.data() + info_.lanes[i].payloadOffset;
        lanes_[i].bytes = info_.lanes[i].payloadBytes;
    }
}

std::uint64_t
TraceReplay::memOpsTotal() const
{
    std::uint64_t total = 0;
    for (const auto &lane : info_.lanes)
        total += lane.memOps;
    return total;
}

std::uint64_t
TraceReplay::maxLaneMemOps() const
{
    std::uint64_t max_ops = 0;
    for (const auto &lane : info_.lanes)
        max_ops = std::max(max_ops, lane.memOps);
    return max_ops;
}

std::uint64_t
TraceReplay::minOpsConsumed() const
{
    std::uint64_t min_ops = UINT64_MAX;
    for (const auto &lane : lanes_) {
        if (lane.state == LaneState::Ended)
            continue;
        min_ops = std::min(min_ops, lane.memConsumed);
    }
    return min_ops;
}

void
TraceReplay::bindWaiter(CpuId cpu, std::function<void(Tick)> wake)
{
    const auto lane = static_cast<std::uint32_t>(cpu);
    if (lane >= waiters_.size())
        fatal("trace replay: core %u bound but the trace has %zu lanes",
              lane, waiters_.size());
    waiters_[lane] = std::move(wake);
}

void
TraceReplay::markEnded(std::uint32_t lane)
{
    if (lanes_[lane].state == LaneState::Ended)
        return;
    lanes_[lane].state = LaneState::Ended;
    ++endedLanes_;
    if (blockedLanes_ > 0 &&
        blockedLanes_ + endedLanes_ == lanes_.size())
        reportDeadlock(lane);
}

void
TraceReplay::reportDeadlock(std::uint32_t lane) const
{
    fatal("trace replay: deadlock in '%s' — every lane is blocked on a "
          "synchronization event or ended (%u blocked, %u ended of %zu; "
          "lane %u transitioned last). The trace's sync records can "
          "never release each other; it was captured inconsistently or "
          "converted from a racy source log.",
          path_.c_str(), blockedLanes_, endedLanes_, lanes_.size(),
          lane);
}

void
TraceReplay::block(std::uint32_t lane)
{
    lanes_[lane].state = LaneState::Blocked;
    ++blockedLanes_;
    if (blockedLanes_ + endedLanes_ == lanes_.size())
        reportDeadlock(lane);
}

void
TraceReplay::wakeLane(std::uint32_t lane, Tick release)
{
    if (lanes_[lane].state != LaneState::Blocked)
        panic("trace replay: waking lane %u in state %u", lane,
              static_cast<unsigned>(lanes_[lane].state));
    if (!eq_)
        panic("trace replay: wake with no event queue attached");
    if (!waiters_[lane])
        panic("trace replay: lane %u has no bound waiter", lane);
    lanes_[lane].state = LaneState::WakePending;
    --blockedLanes_;
    ++wakesPending_;
    const Tick when = std::max(release, eq_->now());
    eq_->schedule(when, [this, lane, release] {
        --wakesPending_;
        lanes_[lane].state = LaneState::Runnable;
        waiters_[lane](release);
    }, EventPriority::Cpu);
}

bool
TraceReplay::handleSync(std::uint32_t lane, const SyncRecord &sync,
                        Tick &now)
{
    switch (sync.op) {
      case TraceRecOp::barrier: {
        const std::uint32_t need =
            sync.participants ? sync.participants
                              : static_cast<std::uint32_t>(lanes_.size());
        BarrierState &b = barriers_[sync.id];
        b.maxClock = std::max(b.maxClock, now);
        b.arrived.push_back(lane);
        if (b.arrived.size() < need) {
            block(lane);
            return false;
        }
        // Last arriver: release at the max arrival clock, waking the
        // others in ascending lane order for a canonical event order.
        const Tick release = b.maxClock;
        std::vector<std::uint32_t> order = b.arrived;
        std::sort(order.begin(), order.end());
        barriers_.erase(sync.id);
        for (std::uint32_t other : order) {
            if (other != lane)
                wakeLane(other, release);
        }
        now = std::max(now, release);
        return true;
      }

      case TraceRecOp::lock_acquire: {
        LockState &l = locks_[sync.id];
        if (!l.held) {
            l.held = true;
            l.holder = lane;
            return true;
        }
        l.waiters.push_back(lane);
        block(lane);
        return false;
      }

      case TraceRecOp::lock_release: {
        LockState &l = locks_[sync.id];
        if (!l.held || l.holder != lane)
            fatal("trace replay: lane %u releases lock %llu it does "
                  "not hold",
                  lane, static_cast<unsigned long long>(sync.id));
        if (l.waiters.empty()) {
            l.held = false;
        } else {
            const std::uint32_t next_holder = l.waiters.front();
            l.waiters.pop_front();
            l.holder = next_holder;
            wakeLane(next_holder, now);
        }
        return true;
      }

      case TraceRecOp::signal: {
        CondState &c = conds_[sync.id];
        if (!c.waiters.empty()) {
            const std::uint32_t waiter = c.waiters.front();
            c.waiters.pop_front();
            wakeLane(waiter, now);
        } else {
            ++c.count;
        }
        return true;
      }

      case TraceRecOp::wait: {
        CondState &c = conds_[sync.id];
        if (c.count > 0) {
            --c.count;
            return true;
        }
        c.waiters.push_back(lane);
        block(lane);
        return false;
      }

      default:
        panic("trace replay: non-sync opcode 0x%02x in handleSync",
              static_cast<unsigned>(sync.op));
    }
}

OpFetch
TraceReplay::advance(std::uint32_t li, Tick *now, CpuOp &op)
{
    if (li >= lanes_.size())
        fatal("trace replay: op for cpu %u but the trace has %zu lanes",
              li, lanes_.size());
    Lane &lane = lanes_[li];
    if (lane.state == LaneState::Ended)
        return OpFetch::End;

    while (true) {
        if (lane.memConsumed >= pauseAt_)
            return OpFetch::End; // Paused for a checkpoint drain.
        DecodedRecord rec;
        const std::string err = decodeTraceRecord(
            lane.base + lane.cursor, lane.bytes - lane.cursor, rec);
        if (!err.empty())
            fatal("trace replay: '%s' lane %u at payload offset %llu: "
                  "%s",
                  path_.c_str(), li,
                  static_cast<unsigned long long>(lane.cursor),
                  err.c_str());
        if (rec.op == TraceRecOp::end) {
            markEnded(li);
            return OpFetch::End;
        }
        lane.cursor += rec.bytes;
        if (rec.op >= TraceRecOp::barrier) {
            ++lane.syncConsumed;
            // Timing-free iteration (no clock) skips the record.
            if (now && !handleSync(li, rec.sync, *now))
                return OpFetch::Blocked;
            continue;
        }
        ++lane.memConsumed;
        op = rec.mem;
        return OpFetch::Op;
    }
}

OpFetch
TraceReplay::fetch(CpuId cpu, Tick &now, CpuOp &op)
{
    return advance(static_cast<std::uint32_t>(cpu), &now, op);
}

bool
TraceReplay::next(CpuId cpu, CpuOp &op)
{
    return advance(static_cast<std::uint32_t>(cpu), nullptr, op) ==
           OpFetch::Op;
}

void
TraceReplay::serialize(Serializer &s) const
{
    if (blockedLanes_ != 0 || wakesPending_ != 0)
        panic("trace replay: serializing with %u blocked lanes and %u "
              "wakes in flight — snapshots require a drained system",
              blockedLanes_, wakesPending_);
    s.u64(info_.traceId);
    s.u32(static_cast<std::uint32_t>(lanes_.size()));
    for (const Lane &lane : lanes_) {
        s.u64(lane.cursor);
        s.u64(lane.memConsumed);
        s.u64(lane.syncConsumed);
        s.u8(lane.state == LaneState::Ended ? 1 : 0);
    }

    // Held locks and banked signals survive a drain; waiter queues and
    // partial barriers cannot (they imply a blocked lane).
    std::vector<std::pair<std::uint64_t, std::uint32_t>> held;
    for (const auto &[id, lock] : locks_) {
        if (!lock.waiters.empty())
            panic("trace replay: serializing with lock waiters");
        if (lock.held)
            held.emplace_back(id, lock.holder);
    }
    std::sort(held.begin(), held.end());
    s.u32(static_cast<std::uint32_t>(held.size()));
    for (const auto &[id, holder] : held) {
        s.u64(id);
        s.u32(holder);
    }

    std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
    for (const auto &[id, cond] : conds_) {
        if (!cond.waiters.empty())
            panic("trace replay: serializing with condition waiters");
        if (cond.count > 0)
            counts.emplace_back(id, cond.count);
    }
    std::sort(counts.begin(), counts.end());
    s.u32(static_cast<std::uint32_t>(counts.size()));
    for (const auto &[id, count] : counts) {
        s.u64(id);
        s.u64(count);
    }
}

void
TraceReplay::deserialize(SectionReader &r)
{
    const std::uint64_t trace_id = r.u64();
    const std::uint32_t num_lanes = r.u32();
    if (trace_id != info_.traceId ||
        num_lanes != lanes_.size())
        fatal("snapshot section '%s': trace mismatch (trace_id "
              "%016llx / %u lanes stored vs %016llx / %zu here)",
              r.name().c_str(),
              static_cast<unsigned long long>(trace_id), num_lanes,
              static_cast<unsigned long long>(info_.traceId),
              lanes_.size());
    endedLanes_ = 0;
    blockedLanes_ = 0;
    wakesPending_ = 0;
    for (Lane &lane : lanes_) {
        lane.cursor = r.u64();
        lane.memConsumed = r.u64();
        lane.syncConsumed = r.u64();
        lane.state =
            r.u8() ? LaneState::Ended : LaneState::Runnable;
        if (lane.cursor > lane.bytes)
            fatal("snapshot section '%s': lane cursor past the "
                  "payload",
                  r.name().c_str());
        if (lane.state == LaneState::Ended)
            ++endedLanes_;
    }
    barriers_.clear();
    locks_.clear();
    conds_.clear();
    const std::uint32_t n_locks = r.u32();
    for (std::uint32_t i = 0; i < n_locks; ++i) {
        const std::uint64_t id = r.u64();
        LockState &l = locks_[id];
        l.held = true;
        l.holder = r.u32();
    }
    const std::uint32_t n_conds = r.u32();
    for (std::uint32_t i = 0; i < n_conds; ++i) {
        const std::uint64_t id = r.u64();
        conds_[id].count = r.u64();
    }
}

} // namespace cgct
