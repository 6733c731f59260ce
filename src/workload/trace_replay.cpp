#include "workload/trace_replay.hpp"

#include <algorithm>

#include "common/log.hpp"

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
    if (lane.ended)
        return false;
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

} // namespace cgct
