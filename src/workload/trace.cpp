#include "workload/trace.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <unistd.h>

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

void
put32(std::uint8_t *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void
put64(std::uint8_t *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t
get32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
get64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
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
    put32(rec + 2, op.gap);
    put64(rec + 6, op.addr);
    emit(lanes_[l], rec, sizeof(rec));
    ++lanes_[l].memOps;
    ++records_;
}

void
TraceWriter::appendSync(CpuId lane, const SyncRecord &sync)
{
    if (!open_)
        panic("trace: append after close");
    const auto l = static_cast<unsigned>(lane);
    if (l >= lanes_.size())
        fatal("trace: append to lane %u of %zu", l, lanes_.size());
    std::uint8_t rec[kTraceV2MemRecordBytes];
    rec[0] = static_cast<std::uint8_t>(sync.op);
    std::size_t n = 0;
    if (sync.op == TraceRecOp::barrier) {
        put32(rec + 1, static_cast<std::uint32_t>(sync.id));
        put32(rec + 5, sync.participants);
        n = kTraceV2BarrierRecordBytes;
    } else if (sync.op == TraceRecOp::lock_acquire ||
               sync.op == TraceRecOp::lock_release ||
               sync.op == TraceRecOp::signal ||
               sync.op == TraceRecOp::wait) {
        put64(rec + 1, sync.id);
        n = kTraceV2IdRecordBytes;
    } else {
        panic("trace: appendSync with non-sync opcode 0x%02x",
              static_cast<unsigned>(sync.op));
    }
    emit(lanes_[l], rec, n);
    ++lanes_[l].syncOps;
    ++records_;
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
        put64(e + 0, offset);
        put64(e + 8, lanes_[i].bytes);
        put64(e + 16, lanes_[i].memOps);
        put64(e + 24, lanes_[i].syncOps);
        put64(e + 32, lanes_[i].hash.digest());
        offset += lanes_[i].bytes;
    }

    std::uint8_t header[kTraceV2HeaderBytes];
    std::memcpy(header, kTraceMagic, 4);
    put32(header + 4, kTraceVersion2);
    put32(header + 8, 0); // flags
    put32(header + 12, n);
    put64(header + 16, opsDeclared_);
    put64(header + 24, kTraceV2HeaderBytes);
    put64(header + 32, xxhash64(dir.data(), dir.size()));
    Xxh64Stream id;
    id.update(header, 40);
    id.update(dir.data(), dir.size());
    put64(header + 40, id.digest());

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

void
TraceWriter::discard()
{
    open_ = false;
    for (auto &lane : lanes_) {
        if (lane.spool) {
            std::fclose(lane.spool);
            lane.spool = nullptr;
        }
        lane.buf.clear();
    }
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
    if (file_bytes >= 8 && get32(data + 4) == 1)
        return "legacy v1 trace is no longer supported";
    if (file_bytes < kTraceV2HeaderBytes)
        return "truncated header";
    const std::uint32_t version = get32(data + 4);
    if (version != kTraceVersion2)
        return "unsupported version " + std::to_string(version);
    if (get32(data + 8) != 0)
        return "nonzero reserved flags";
    const std::uint32_t n = get32(data + 12);
    if (n == 0 || n > kTraceMaxLanes)
        return "implausible lane count " + std::to_string(n);
    if (get64(data + 24) != kTraceV2HeaderBytes)
        return "bad directory offset";
    const std::uint64_t dir_bytes =
        static_cast<std::uint64_t>(n) * kTraceV2LaneDirBytes;
    if (file_bytes < kTraceV2HeaderBytes + dir_bytes)
        return "truncated lane directory";
    const std::uint8_t *dir = data + kTraceV2HeaderBytes;
    if (get64(data + 32) != xxhash64(dir, dir_bytes))
        return "lane directory checksum mismatch";
    {
        Xxh64Stream id;
        id.update(data, 40);
        id.update(dir, dir_bytes);
        if (get64(data + 40) != id.digest())
            return "trace id mismatch";
    }

    out.version = version;
    out.numLanes = n;
    out.opsDeclared = get64(data + 16);
    out.traceId = get64(data + 40);
    out.fileBytes = file_bytes;
    out.lanes.clear();
    std::uint64_t expect = kTraceV2HeaderBytes + dir_bytes;
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint8_t *e = dir + i * kTraceV2LaneDirBytes;
        TraceInfo::Lane lane;
        lane.payloadOffset = get64(e + 0);
        lane.payloadBytes = get64(e + 8);
        lane.memOps = get64(e + 16);
        lane.syncOps = get64(e + 24);
        lane.payloadHash = get64(e + 32);
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
        out.mem.gap = get32(p + 2);
        out.mem.addr = get64(p + 6);
        out.bytes = kTraceV2MemRecordBytes;
        return true;
    }
    switch (static_cast<TraceRecOp>(opcode)) {
      case TraceRecOp::barrier:
        if (avail < kTraceV2BarrierRecordBytes)
            return false;
        out.op = TraceRecOp::barrier;
        out.sync.op = TraceRecOp::barrier;
        out.sync.id = get32(p + 1);
        out.sync.participants = get32(p + 5);
        out.bytes = kTraceV2BarrierRecordBytes;
        return true;
      case TraceRecOp::lock_acquire:
      case TraceRecOp::lock_release:
      case TraceRecOp::signal:
      case TraceRecOp::wait:
        if (avail < kTraceV2IdRecordBytes)
            return false;
        out.op = static_cast<TraceRecOp>(opcode);
        out.sync.op = out.op;
        out.sync.id = get64(p + 1);
        out.sync.participants = 0;
        out.bytes = kTraceV2IdRecordBytes;
        return true;
      default:
        return false;
    }
}

std::string
traceRecordError(const std::uint8_t *p, std::size_t avail)
{
    if (avail == 0)
        return "record runs past the lane payload";
    const std::uint8_t opcode = p[0];
    if (opcode >= kTraceRecFirstMem && opcode <= kTraceRecLastMem)
        return "truncated memory record";
    switch (static_cast<TraceRecOp>(opcode)) {
      case TraceRecOp::barrier:
        return "truncated barrier record";
      case TraceRecOp::lock_acquire:
      case TraceRecOp::lock_release:
      case TraceRecOp::signal:
      case TraceRecOp::wait:
        return "truncated synchronization record";
      default: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "unknown record opcode 0x%02x",
                      opcode);
        return buf;
      }
    }
}

namespace {

/** Index into TraceScan::syncCount for a sync opcode. */
int
syncIndex(TraceRecOp op)
{
    switch (op) {
      case TraceRecOp::barrier: return 0;
      case TraceRecOp::lock_acquire: return 1;
      case TraceRecOp::lock_release: return 2;
      case TraceRecOp::signal: return 3;
      case TraceRecOp::wait: return 4;
      default: return -1;
    }
}

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
         std::uint32_t lane_index, std::uint32_t num_lanes,
         TraceScan &scan, bool check_hash)
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
    std::uint64_t off = 0, mem = 0, sync = 0;
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
        if (rec.op >= TraceRecOp::barrier) {
            if (rec.op == TraceRecOp::barrier &&
                rec.sync.participants > num_lanes) {
                err = "barrier participants " +
                      std::to_string(rec.sync.participants) +
                      " exceed the lane count";
                break;
            }
            ++sync;
            ++scan.syncOps;
            ++scan.syncCount[syncIndex(rec.op)];
        } else {
            ++mem;
            ++scan.memOps;
            ++scan.kindCount[static_cast<unsigned>(rec.mem.kind)];
            scan.gapSum += rec.mem.gap;
            scan.minAddr = std::min(scan.minAddr, rec.mem.addr);
            scan.maxAddr = std::max(scan.maxAddr, rec.mem.addr);
        }
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
    if (mem != meta.memOps || sync != meta.syncOps)
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
        err = walkLane(map, info.lanes[i], i, info.numLanes, scan,
                       check_hash);
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

// ---------------------------------------------------------------------------
// Offline capture

std::uint64_t
captureTrace(OpSource &source, unsigned num_cpus,
             std::uint64_t ops_per_cpu, const std::string &path)
{
    TraceWriter writer(path, num_cpus, ops_per_cpu);
    // Round-robin drain preserves a plausible interleave and keeps any
    // generator-global state (object owners) evolving as in a live run.
    std::vector<bool> alive(num_cpus, true);
    bool any = true;
    while (any) {
        any = false;
        for (unsigned cpu = 0; cpu < num_cpus; ++cpu) {
            if (!alive[cpu])
                continue;
            CpuOp op;
            if (source.next(static_cast<CpuId>(cpu), op)) {
                writer.append(static_cast<CpuId>(cpu), op);
                any = true;
            } else {
                alive[cpu] = false;
            }
        }
    }
    const std::uint64_t written = writer.recordsWritten();
    writer.close();
    return written;
}

} // namespace cgct
