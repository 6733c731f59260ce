#include "workload/trace_replay.hpp"

#include <algorithm>

#include "common/log.hpp"
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
    for (std::uint32_t i = 0; i < info_.numLanes; ++i) {
        lanes_[i].offset = info_.lanes[i].payloadOffset;
        lanes_[i].base = map_.data() + lanes_[i].offset;
        lanes_[i].bytes = info_.lanes[i].payloadBytes;
    }
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
        if (lane.ended)
            continue;
        min_ops = std::min(min_ops, lane.memConsumed);
    }
    return min_ops;
}

bool
TraceReplay::next(CpuId cpu, CpuOp &op)
{
    const auto li = static_cast<std::uint32_t>(cpu);
    if (li >= lanes_.size())
        fatal("trace replay: op for cpu %u but the trace has %zu lanes",
              li, lanes_.size());
    Lane &lane = lanes_[li];
    if (lane.ended || lane.memConsumed >= pauseAt_)
        return false; // Ended, or paused for a checkpoint drain.
    const std::uint8_t *at = lane.base + lane.cursor;
    const std::uint64_t avail = lane.bytes - lane.cursor;
    DecodedRecord rec;
    if (!decodeTraceRecord(at, avail, rec))
        fatal("trace replay: '%s' lane %u at payload offset %llu: %s",
              path_.c_str(), li,
              static_cast<unsigned long long>(lane.cursor),
              traceRecordError(at, avail).c_str());
    if (rec.op == TraceRecOp::end) {
        lane.ended = true;
        ++endedLanes_;
        return false;
    }
    lane.cursor += rec.bytes;
    if (lane.cursor - lane.mark >= kTraceResidentWindow)
        lane.mark = map_.release(lane.offset + lane.mark,
                                 lane.offset + lane.cursor) -
                    lane.offset;
    ++lane.memConsumed;
    op = rec.mem;
    return true;
}

void
TraceReplay::transfer(Archive &ar)
{
    ar.expect("trace_id", info_.traceId);
    ar.expect("trace lanes", static_cast<std::uint32_t>(lanes_.size()));
    if (!ar.saving())
        endedLanes_ = 0;
    for (Lane &lane : lanes_) {
        ar.u64(lane.cursor);
        ar.u64(lane.memConsumed);
        ar.expect("lane sync records", std::uint64_t{0}); // Retired.
        ar.b(lane.ended);
        if (ar.saving())
            continue;
        if (lane.cursor > lane.bytes)
            ar.fail("lane cursor past the payload");
        // Drop what the old position left resident; the window restarts
        // at the loaded cursor, and released pages fault back on demand.
        map_.release(lane.offset, lane.offset + lane.bytes);
        lane.mark = lane.cursor;
        endedLanes_ += lane.ended ? 1 : 0;
    }
    // Retired: the held-lock and banked-signal counts.
    ar.expect("held locks", std::uint32_t{0});
    ar.expect("banked signals", std::uint32_t{0});
}

} // namespace cgct
