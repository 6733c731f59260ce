#include "mem/memory_controller.hpp"

#include "common/trace_sink.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

Tick
MemoryController::claimSlot(Tick at)
{
    const Tick start = at > nextFreeSlot_ ? at : nextFreeSlot_;
    stats_.queuedCycles += start - at;
    nextFreeSlot_ = start + InterconnectParams::memCtrlSlot;
    return start;
}

Tick
MemoryController::accessOverlapped(Tick snoop_done)
{
    ++stats_.overlappedReads;
    // The row access was started when the request was broadcast; by the
    // time the snoop resolves only the tail of the DRAM access remains.
    const Tick start = claimSlot(snoop_done);
    const Tick ready = start + InterconnectParams::dramOverlappedExtra;
    if (trace_)
        trace_->memAccess(snoop_done, id_, MemAccessKind::Overlapped, ready);
    return ready;
}

Tick
MemoryController::accessDirect(Tick arrival)
{
    ++stats_.directReads;
    const Tick start = claimSlot(arrival);
    const Tick ready = start + InterconnectParams::dramLatency;
    if (trace_)
        trace_->memAccess(arrival, id_, MemAccessKind::Direct, ready);
    return ready;
}

void
MemoryController::acceptWriteback(Tick arrival)
{
    ++stats_.writebacks;
    const Tick start = claimSlot(arrival);
    if (trace_)
        trace_->memAccess(arrival, id_, MemAccessKind::Writeback, start);
}

void
MemoryController::transfer(Archive &ar)
{
    ar.u64(nextFreeSlot_);
    ar.counters(stats_);
}

} // namespace cgct
