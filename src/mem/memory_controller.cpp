#include "mem/memory_controller.hpp"

#include <string>

#include "common/trace_sink.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

MemoryController::MemoryController(MemCtrlId id, EventQueue &eq,
                                   const InterconnectParams &params)
    : id_(id), eq_(eq), params_(params)
{
}

Tick
MemoryController::claimSlot(Tick at)
{
    const Tick start = at > nextFreeSlot_ ? at : nextFreeSlot_;
    stats_.queuedCycles += start - at;
    nextFreeSlot_ = start + params_.memCtrlSlot;
    return start;
}

Tick
MemoryController::accessOverlapped(Tick snoop_done)
{
    ++stats_.overlappedReads;
    // The row access was started when the request was broadcast; by the
    // time the snoop resolves only the tail of the DRAM access remains.
    const Tick start = claimSlot(snoop_done);
    const Tick ready = start + params_.dramOverlappedExtra;
    CGCT_TRACE(trace_, memAccess(snoop_done, id_, MemAccessKind::Overlapped,
                                 ready));
    return ready;
}

Tick
MemoryController::accessDirect(Tick arrival)
{
    ++stats_.directReads;
    const Tick start = claimSlot(arrival);
    const Tick ready = start + params_.dramLatency;
    CGCT_TRACE(trace_, memAccess(arrival, id_, MemAccessKind::Direct,
                                 ready));
    return ready;
}

void
MemoryController::acceptWriteback(Tick arrival)
{
    ++stats_.writebacks;
    const Tick start = claimSlot(arrival);
    CGCT_TRACE(trace_, memAccess(arrival, id_, MemAccessKind::Writeback,
                                 start));
}

void
MemoryController::transfer(Archive &ar)
{
    ar.u64(nextFreeSlot_);
    ar.u64(stats_.overlappedReads);
    ar.u64(stats_.directReads);
    ar.u64(stats_.writebacks);
    ar.u64(stats_.queuedCycles);
}

void
MemoryController::addStats(StatGroup &group) const
{
    const std::string p = "mc" + std::to_string(id_) + ".";
    group.addScalar(p + "overlapped_reads",
                    "reads serviced with snoop-overlapped DRAM access",
                    &stats_.overlappedReads);
    group.addScalar(p + "direct_reads",
                    "reads serviced by CGCT direct requests",
                    &stats_.directReads);
    group.addScalar(p + "writebacks", "write-backs sunk",
                    &stats_.writebacks);
    group.addScalar(p + "queued_cycles",
                    "total cycles requests waited for an initiation slot",
                    &stats_.queuedCycles);
}

} // namespace cgct
