#include "workload/trace.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <unistd.h>

#include "common/little_endian.hpp"
#include "common/log.hpp"
#include "common/mapped_file.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

namespace {

/** fatal() with errno context for a failed trace I/O operation. */
[[noreturn]] void
fatalIo(const char *what, const std::string &path)
{
    fatal("trace: %s '%s': %s", what, path.c_str(),
          std::strerror(errno));
}

/** Spill a lane buffer to its (unlinked) spool file once it holds this
 *  much, keeping writer memory bounded for arbitrarily long captures. */
constexpr std::size_t kSpoolThreshold = 4u << 20;

} // namespace

// ---------------------------------------------------------------------------
// TraceWriter (v2)

TraceWriter::TraceWriter(const std::string &path, unsigned num_lanes,
                         std::uint64_t ops_declared)
    : path_(path), opsDeclared_(ops_declared)
{
    if (num_lanes == 0 || num_lanes > kTraceMaxLanes)
        fatal("trace: %u lanes out of range (1..%u)", num_lanes,
              kTraceMaxLanes);
    lanes_.resize(num_lanes);
}

TraceWriter::~TraceWriter()
{
    if (open_)
        close();
}

void
TraceWriter::emit(Lane &lane, const std::uint8_t *bytes, std::size_t n)
{
    lane.hash.update(bytes, n);
    lane.bytes += n;
    lane.buf.insert(lane.buf.end(), bytes, bytes + n);
    if (lane.buf.size() < kSpoolThreshold)
        return;
    if (!lane.spool) {
        lane.spool = std::tmpfile();
        if (!lane.spool)
            fatalIo("cannot create spool file for", path_);
    }
    if (std::fwrite(lane.buf.data(), 1, lane.buf.size(), lane.spool) !=
        lane.buf.size())
        fatalIo("cannot spool lane payload for", path_);
    lane.buf.clear();
}

void
TraceWriter::append(CpuId lane, const CpuOp &op)
{
    if (!open_)
        panic("trace: append after close");
    const auto l = static_cast<unsigned>(lane);
    if (l >= lanes_.size())
        fatal("trace: append to lane %u of %zu", l, lanes_.size());
    std::uint8_t rec[kTraceV2MemRecordBytes];
    rec[0] = static_cast<std::uint8_t>(op.kind) + kTraceRecFirstMem;
    rec[1] = op.dependent ? 1 : 0;
    storeLe<std::uint32_t>(rec + 2, op.gap);
    storeLe<std::uint64_t>(rec + 6, op.addr);
    emit(lanes_[l], rec, sizeof(rec));
    ++lanes_[l].memOps;
}

void
TraceWriter::close()
{
    if (!open_)
        return;
    open_ = false;

    // Terminate every lane payload with an end record.
    for (auto &lane : lanes_) {
        const std::uint8_t end =
            static_cast<std::uint8_t>(TraceRecOp::end);
        lane.hash.update(&end, 1);
        lane.bytes += 1;
        lane.buf.push_back(end);
    }

    // Lay out the directory: payloads are contiguous after it.
    const std::uint32_t n = static_cast<std::uint32_t>(lanes_.size());
    std::vector<std::uint8_t> dir(n * kTraceV2LaneDirBytes);
    std::uint64_t offset =
        kTraceV2HeaderBytes + n * kTraceV2LaneDirBytes;
    for (std::uint32_t i = 0; i < n; ++i) {
        std::uint8_t *e = dir.data() + i * kTraceV2LaneDirBytes;
        storeLe<std::uint64_t>(e + 0, offset);
        storeLe<std::uint64_t>(e + 8, lanes_[i].bytes);
        storeLe<std::uint64_t>(e + 16, lanes_[i].memOps);
        storeLe<std::uint64_t>(e + 24, 0); // sync_ops, retired
        storeLe<std::uint64_t>(e + 32, lanes_[i].hash.digest());
        offset += lanes_[i].bytes;
    }

    std::uint8_t header[kTraceV2HeaderBytes];
    std::memcpy(header, kTraceMagic, 4);
    storeLe<std::uint32_t>(header + 4, kTraceVersion2);
    storeLe<std::uint32_t>(header + 8, 0); // flags
    storeLe<std::uint32_t>(header + 12, n);
    storeLe<std::uint64_t>(header + 16, opsDeclared_);
    storeLe<std::uint64_t>(header + 24, kTraceV2HeaderBytes);
    storeLe<std::uint64_t>(header + 32, xxhash64(dir.data(), dir.size()));
    Xxh64Stream id;
    id.update(header, 40);
    id.update(dir.data(), dir.size());
    storeLe<std::uint64_t>(header + 40, id.digest());

    // Assemble "<path>.tmp", fsync, then atomically rename into place.
    const std::string tmp = path_ + ".tmp";
    std::FILE *out = std::fopen(tmp.c_str(), "wb");
    if (!out)
        fatalIo("cannot open for writing", tmp);
    if (std::fwrite(header, 1, sizeof(header), out) != sizeof(header) ||
        std::fwrite(dir.data(), 1, dir.size(), out) != dir.size())
        fatalIo("write failed on", tmp);
    std::vector<std::uint8_t> chunk(1u << 20);
    for (auto &lane : lanes_) {
        if (lane.spool) {
            std::rewind(lane.spool);
            std::size_t got;
            while ((got = std::fread(chunk.data(), 1, chunk.size(),
                                     lane.spool)) > 0) {
                if (std::fwrite(chunk.data(), 1, got, out) != got)
                    fatalIo("write failed on", tmp);
            }
            if (std::ferror(lane.spool))
                fatalIo("cannot read back spool file for", path_);
            std::fclose(lane.spool);
            lane.spool = nullptr;
        }
        if (!lane.buf.empty() &&
            std::fwrite(lane.buf.data(), 1, lane.buf.size(), out) !=
                lane.buf.size())
            fatalIo("write failed on", tmp);
        lane.buf.clear();
        lane.buf.shrink_to_fit();
    }
    if (std::fflush(out) != 0 || ::fsync(::fileno(out)) != 0)
        fatalIo("cannot flush", tmp);
    if (std::fclose(out) != 0)
        fatalIo("cannot close", tmp);
    if (std::rename(tmp.c_str(), path_.c_str()) != 0)
        fatalIo("cannot publish (rename) trace to", path_);
    fsyncDirOf(path_);
}

// ---------------------------------------------------------------------------
// Inspection helpers

std::string
parseTraceV2Header(const std::uint8_t *data, std::uint64_t file_bytes,
                   TraceInfo &out)
{
    if (file_bytes < 4 || std::memcmp(data, kTraceMagic, 4) != 0)
        return "not a CGCT trace";
    // Version 1 was the flat interleaved format; nothing writes it.
    if (file_bytes >= 8 && loadLe<std::uint32_t>(data + 4) == 1)
        return "legacy v1 trace is no longer supported";
    if (file_bytes < kTraceV2HeaderBytes)
        return "truncated header";
    const std::uint32_t version = loadLe<std::uint32_t>(data + 4);
    if (version != kTraceVersion2)
        return "unsupported version " + std::to_string(version);
    if (loadLe<std::uint32_t>(data + 8) != 0)
        return "nonzero reserved flags";
    const std::uint32_t n = loadLe<std::uint32_t>(data + 12);
    if (n == 0 || n > kTraceMaxLanes)
        return "implausible lane count " + std::to_string(n);
    if (loadLe<std::uint64_t>(data + 24) != kTraceV2HeaderBytes)
        return "bad directory offset";
    const std::uint64_t dir_bytes =
        static_cast<std::uint64_t>(n) * kTraceV2LaneDirBytes;
    if (file_bytes < kTraceV2HeaderBytes + dir_bytes)
        return "truncated lane directory";
    const std::uint8_t *dir = data + kTraceV2HeaderBytes;
    if (loadLe<std::uint64_t>(data + 32) != xxhash64(dir, dir_bytes))
        return "lane directory checksum mismatch";
    {
        Xxh64Stream id;
        id.update(data, 40);
        id.update(dir, dir_bytes);
        if (loadLe<std::uint64_t>(data + 40) != id.digest())
            return "trace id mismatch";
    }

    out.version = version;
    out.numLanes = n;
    out.opsDeclared = loadLe<std::uint64_t>(data + 16);
    out.traceId = loadLe<std::uint64_t>(data + 40);
    out.fileBytes = file_bytes;
    out.lanes.clear();
    std::uint64_t expect = kTraceV2HeaderBytes + dir_bytes;
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint8_t *e = dir + i * kTraceV2LaneDirBytes;
        TraceInfo::Lane lane;
        lane.payloadOffset = loadLe<std::uint64_t>(e + 0);
        lane.payloadBytes = loadLe<std::uint64_t>(e + 8);
        lane.memOps = loadLe<std::uint64_t>(e + 16);
        lane.payloadHash = loadLe<std::uint64_t>(e + 32);
        if (const std::uint64_t sync_ops = loadLe<std::uint64_t>(e + 24))
            return "lane " + std::to_string(i) + " sync_ops " +
                   std::to_string(sync_ops) +
                   " is not 0: synchronization records are retired";
        if (lane.payloadOffset != expect)
            return "lane " + std::to_string(i) +
                   " payload offset out of order";
        if (lane.payloadBytes == 0)
            return "lane " + std::to_string(i) + " has no payload";
        if (lane.payloadBytes > file_bytes ||
            lane.payloadOffset > file_bytes - lane.payloadBytes)
            return "lane " + std::to_string(i) +
                   " payload out of range (wrapped or truncated)";
        expect = lane.payloadOffset + lane.payloadBytes;
        out.lanes.push_back(lane);
    }
    if (expect != file_bytes)
        return "trailing bytes after the last lane payload";
    return "";
}

TraceInfo
readTraceInfo(const std::string &path)
{
    TraceInfo info;
    MappedFile map;
    const std::string err = map.open(path);
    if (!err.empty())
        fatal("trace: %s", err.c_str());
    const std::string perr =
        parseTraceV2Header(map.data(), map.size(), info);
    if (!perr.empty())
        fatal("trace: '%s': %s", path.c_str(), perr.c_str());
    return info;
}

bool
decodeTraceRecord(const std::uint8_t *p, std::size_t avail,
                  DecodedRecord &out)
{
    if (avail == 0)
        return false;
    const std::uint8_t opcode = p[0];
    if (opcode == static_cast<std::uint8_t>(TraceRecOp::end)) {
        out.op = TraceRecOp::end;
        out.bytes = 1;
        return true;
    }
    if (opcode >= kTraceRecFirstMem && opcode <= kTraceRecLastMem) {
        if (avail < kTraceV2MemRecordBytes)
            return false;
        out.op = static_cast<TraceRecOp>(opcode);
        out.mem.kind =
            static_cast<CpuOpKind>(opcode - kTraceRecFirstMem);
        out.mem.dependent = (p[1] & 1) != 0;
        out.mem.gap = loadLe<std::uint32_t>(p + 2);
        out.mem.addr = loadLe<std::uint64_t>(p + 6);
        out.bytes = kTraceV2MemRecordBytes;
        return true;
    }
    return false;
}

std::string
traceRecordError(const std::uint8_t *p, std::size_t avail)
{
    if (avail == 0)
        return "record runs past the lane payload";
    const std::uint8_t opcode = p[0];
    if (opcode >= kTraceRecFirstMem && opcode <= kTraceRecLastMem)
        return "truncated memory record";
    const bool retired = opcode >= kTraceRecFirstRetired &&
                         opcode <= kTraceRecLastRetired;
    char buf[48];
    std::snprintf(buf, sizeof(buf),
                  retired ? "retired synchronization record 0x%02x"
                          : "unknown record opcode 0x%02x",
                  opcode);
    return buf;
}

namespace {

/**
 * Walk one lane payload in a single pass, validating every record and
 * accumulating into @p scan. The pass hashes (when @p check_hash) and
 * releases the payload a window at a time behind the cursor, so it
 * touches each page once and keeps at most kTraceResidentWindow of the
 * lane resident. The hash is checked before any record error, so a
 * corrupt payload still reads as a checksum mismatch. Returns an error
 * message or "".
 */
std::string
walkLane(MappedFile &map, const TraceInfo::Lane &meta,
         std::uint32_t lane_index, TraceScan &scan, bool check_hash)
{
    const std::uint8_t *payload = map.data() + meta.payloadOffset;
    const std::uint64_t bytes = meta.payloadBytes;
    Xxh64Stream hash;
    std::uint64_t passed = 0; // Hashed up to here.
    std::uint64_t mark = 0;   // Released up to here.
    const auto pass = [&](std::uint64_t to) {
        if (check_hash)
            hash.update(payload + passed, to - passed);
        passed = to;
        mark = map.release(meta.payloadOffset + mark,
                           meta.payloadOffset + to) -
               meta.payloadOffset;
    };

    std::string err;
    std::uint64_t off = 0, mem = 0;
    bool ended = false;
    while (off < bytes) {
        DecodedRecord rec;
        if (!decodeTraceRecord(payload + off, bytes - off, rec)) {
            err = traceRecordError(payload + off, bytes - off);
            break;
        }
        off += rec.bytes;
        if (off - passed >= kTraceResidentWindow)
            pass(off);
        if (rec.op == TraceRecOp::end) {
            ended = true;
            break;
        }
        ++mem;
        ++scan.memOps;
        ++scan.kindCount[static_cast<unsigned>(rec.mem.kind)];
        scan.gapSum += rec.mem.gap;
        scan.minAddr = std::min(scan.minAddr, rec.mem.addr);
        scan.maxAddr = std::max(scan.maxAddr, rec.mem.addr);
    }
    pass(bytes);

    const std::string lane = "lane " + std::to_string(lane_index);
    if (check_hash && hash.digest() != meta.payloadHash)
        return lane + " payload checksum mismatch";
    if (!err.empty())
        return lane + ": " + err;
    if (!ended)
        return lane + " payload is missing its end record";
    if (off != bytes)
        return lane + " has trailing bytes after the end record";
    if (mem != meta.memOps)
        return lane + " record counts do not match the directory";
    return "";
}

std::string
walkTrace(const std::string &path, TraceScan &scan, bool check_hash)
{
    MappedFile map;
    std::string err = map.open(path);
    if (!err.empty())
        return err;
    TraceInfo info;
    err = parseTraceV2Header(map.data(), map.size(), info);
    if (!err.empty())
        return err;
    for (std::uint32_t i = 0; i < info.numLanes; ++i) {
        err = walkLane(map, info.lanes[i], i, scan, check_hash);
        if (!err.empty())
            return err;
    }
    return "";
}

} // namespace

TraceScan
scanTrace(const std::string &path)
{
    TraceScan scan;
    const std::string err = walkTrace(path, scan, /*check_hash=*/false);
    if (!err.empty())
        fatal("trace: '%s': %s", path.c_str(), err.c_str());
    return scan;
}

std::string
verifyTrace(const std::string &path)
{
    TraceScan scan;
    return walkTrace(path, scan, /*check_hash=*/true);
}

} // namespace cgct
