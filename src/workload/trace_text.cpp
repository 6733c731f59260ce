#include "workload/trace_text.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/argparse.hpp"
#include "common/log.hpp"
#include "workload/trace.hpp"

namespace cgct {

namespace {

[[noreturn]] void
parseError(const std::string &path, std::uint64_t line_no,
           const std::string &what)
{
    fatal("trace convert: %s:%llu: %s", path.c_str(),
          static_cast<unsigned long long>(line_no), what.c_str());
}

std::uint64_t
parseField(const std::string &tok, const std::string &path,
           std::uint64_t line_no)
{
    if (tok.empty())
        parseError(path, line_no, "empty numeric field");
    const std::optional<std::uint64_t> v = parseU64(tok);
    if (!v)
        parseError(path, line_no, "bad number '" + tok + "'");
    return *v;
}

std::vector<std::string>
splitComma(const std::string &s)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == ',') {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(cur);
    return out;
}

std::vector<std::string>
splitWhitespace(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string tok;
    while (is >> tok)
        out.push_back(tok);
    return out;
}

/** Second comma field of the first whitespace token: the thread id. */
std::uint64_t
threadIdOf(const std::string &line, const std::string &path,
           std::uint64_t line_no)
{
    const std::vector<std::string> toks = splitWhitespace(line);
    if (toks.empty())
        parseError(path, line_no, "empty event");
    const std::vector<std::string> fields = splitComma(toks[0]);
    if (fields.size() < 2)
        parseError(path, line_no,
                   "event needs at least 'eid,tid' fields");
    return parseField(fields[1], path, line_no);
}

/** pthread type -> v2 sync record, per the header-comment table. */
SyncRecord
pthreadSync(std::uint64_t type, std::uint64_t addr,
            const std::string &path, std::uint64_t line_no)
{
    SyncRecord sync;
    sync.id = addr;
    switch (type) {
      case 1:
      case 8:
        sync.op = TraceRecOp::lock_acquire;
        return sync;
      case 2:
      case 9:
        sync.op = TraceRecOp::lock_release;
        return sync;
      case 3:
      case 7:
        sync.op = TraceRecOp::signal;
        return sync;
      case 4:
      case 6:
        sync.op = TraceRecOp::wait;
        return sync;
      case 5:
        sync.op = TraceRecOp::barrier;
        sync.participants = 0; // All lanes.
        return sync;
      default:
        parseError(path, line_no,
                   "unknown pthread event type " +
                       std::to_string(type));
    }
}

struct LaneEmit {
    std::uint64_t gapCarry = 0;
    std::uint64_t memOps = 0;
};

std::uint32_t
clampGap(std::uint64_t gap)
{
    return gap > UINT32_MAX ? UINT32_MAX
                            : static_cast<std::uint32_t>(gap);
}

} // namespace

TraceTextStats
convertTextTrace(const std::string &in_path, const std::string &out_path)
{
    // Pass 1: discover the thread population (lanes are assigned in
    // order of first appearance, so conversion is deterministic).
    std::unordered_map<std::uint64_t, std::uint32_t> lane_of;
    {
        std::ifstream in(in_path);
        if (!in)
            fatal("trace convert: cannot open '%s': %s",
                  in_path.c_str(), std::strerror(errno));
        std::string line;
        std::uint64_t line_no = 0;
        while (std::getline(in, line)) {
            ++line_no;
            // Comm lines contain '#' mid-line; comment lines start
            // with it (ignoring leading whitespace).
            const std::size_t first =
                line.find_first_not_of(" \t\r");
            if (first == std::string::npos || line[first] == '#')
                continue;
            const std::uint64_t tid =
                threadIdOf(line, in_path, line_no);
            if (lane_of.find(tid) == lane_of.end()) {
                const auto lane =
                    static_cast<std::uint32_t>(lane_of.size());
                if (lane >= kTraceMaxLanes)
                    parseError(in_path, line_no,
                               "more threads than the format's lane "
                               "cap");
                lane_of.emplace(tid, lane);
            }
        }
    }
    if (lane_of.empty())
        fatal("trace convert: '%s' contains no events",
              in_path.c_str());

    TraceTextStats stats;
    stats.lanes = static_cast<std::uint32_t>(lane_of.size());
    TraceWriter writer(out_path, stats.lanes, 0);
    std::vector<LaneEmit> emit(stats.lanes);

    // Pass 2: convert.
    std::ifstream in(in_path);
    if (!in)
        fatal("trace convert: cannot open '%s': %s", in_path.c_str(),
              std::strerror(errno));
    std::string line;
    std::uint64_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const std::size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#')
            continue;
        ++stats.lines;

        const std::vector<std::string> toks = splitWhitespace(line);
        const std::vector<std::string> fields = splitComma(toks[0]);
        const std::uint64_t tid = parseField(fields[1], in_path, line_no);
        const std::uint32_t lane = lane_of.at(tid);
        LaneEmit &le = emit[lane];

        // pthread event: "eid,tid,pth_ty:TYPE^ADDR[,TYPE^ADDR]..."
        if (fields.size() >= 3 &&
            fields[2].rfind("pth_ty:", 0) == 0) {
            for (std::size_t i = 2; i < fields.size(); ++i) {
                std::string f = fields[i];
                if (f.rfind("pth_ty:", 0) == 0)
                    f = f.substr(7); // Prefix optional past field 2.
                const std::size_t caret = f.find('^');
                if (caret == std::string::npos)
                    parseError(in_path, line_no,
                               "pthread field '" + f +
                                   "' needs TYPE^ADDR");
                const std::uint64_t type = parseField(
                    f.substr(0, caret), in_path, line_no);
                const std::uint64_t addr = parseField(
                    f.substr(caret + 1), in_path, line_no);
                writer.appendSync(
                    static_cast<CpuId>(lane),
                    pthreadSync(type, addr, in_path, line_no));
                ++stats.syncEvents;
            }
            continue;
        }

        // Communication event: "eid,tid # ptid peid start end [# ...]"
        if (toks.size() > 1 && toks[1] == "#") {
            std::size_t i = 1;
            bool any = false;
            while (i < toks.size()) {
                if (toks[i] != "#")
                    parseError(in_path, line_no,
                               "expected '#' before a communication "
                               "group");
                if (i + 4 >= toks.size())
                    parseError(in_path, line_no,
                               "communication group needs "
                               "'prod_tid prod_eid start end'");
                const std::uint64_t start =
                    parseField(toks[i + 3], in_path, line_no);
                CpuOp op;
                op.kind = CpuOpKind::Load;
                op.addr = start;
                op.gap = clampGap(le.gapCarry);
                le.gapCarry = 0;
                op.dependent = true; // Consume edge: serialize on it.
                writer.append(static_cast<CpuId>(lane), op);
                ++le.memOps;
                ++stats.memOps;
                any = true;
                i += 5;
            }
            if (!any)
                parseError(in_path, line_no,
                           "communication event without a group");
            ++stats.commEvents;
            continue;
        }

        // Computation event:
        // "eid,tid,iops,flops,reads,writes [$ start end]... [* start end]..."
        if (fields.size() < 6)
            parseError(in_path, line_no,
                       "computation event needs "
                       "'eid,tid,iops,flops,reads,writes'");
        const std::uint64_t iops = parseField(fields[2], in_path, line_no);
        const std::uint64_t flops =
            parseField(fields[3], in_path, line_no);

        std::vector<std::uint64_t> reads, writes;
        for (std::size_t i = 1; i < toks.size();) {
            const bool is_read = toks[i] == "$";
            const bool is_write = toks[i] == "*";
            if (!is_read && !is_write)
                parseError(in_path, line_no,
                           "expected '$' or '*' range marker, got '" +
                               toks[i] + "'");
            if (i + 2 >= toks.size())
                parseError(in_path, line_no,
                           "address range needs 'start end'");
            const std::uint64_t start =
                parseField(toks[i + 1], in_path, line_no);
            (is_read ? reads : writes).push_back(start);
            i += 3;
        }

        std::uint64_t gap = le.gapCarry + iops + flops;
        le.gapCarry = 0;
        const std::size_t n = reads.size() + writes.size();
        if (n == 0) {
            le.gapCarry = gap; // No memory op to attach it to yet.
        } else {
            const std::uint64_t per = gap / n;
            std::uint64_t extra = gap % n;
            auto emitOp = [&](CpuOpKind kind, std::uint64_t addr) {
                CpuOp op;
                op.kind = kind;
                op.addr = addr;
                op.gap = clampGap(per + extra);
                extra = 0;
                op.dependent = false;
                writer.append(static_cast<CpuId>(lane), op);
                ++le.memOps;
                ++stats.memOps;
            };
            for (std::uint64_t addr : reads)
                emitOp(CpuOpKind::Load, addr);
            for (std::uint64_t addr : writes)
                emitOp(CpuOpKind::Store, addr);
        }
        ++stats.compEvents;
    }

    std::uint64_t max_ops = 0;
    for (const LaneEmit &le : emit)
        max_ops = std::max(max_ops, le.memOps);
    writer.setOpsDeclared(max_ops);
    writer.close();
    return stats;
}

} // namespace cgct
