#include "snapshot/serializer.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "common/little_endian.hpp"
#include "common/log.hpp"

namespace cgct {

const char kSnapshotMagic[8] = {'C', 'G', 'C', 'T', 'S', 'N', 'A', 'P'};

// ---------------------------------------------------------------------------
// XXH64 (canonical algorithm; see xxhash.com — public domain).

namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

std::uint64_t
rotl64(std::uint64_t v, int r)
{
    return (v << r) | (v >> (64 - r));
}

std::uint64_t
xxh64Round(std::uint64_t acc, std::uint64_t input)
{
    acc += input * kPrime2;
    acc = rotl64(acc, 31);
    acc *= kPrime1;
    return acc;
}

std::uint64_t
xxh64MergeRound(std::uint64_t acc, std::uint64_t val)
{
    acc ^= xxh64Round(0, val);
    acc = acc * kPrime1 + kPrime4;
    return acc;
}

} // namespace

// ---------------------------------------------------------------------------
// Xxh64Stream

void
Xxh64Stream::reset(std::uint64_t seed)
{
    seed_ = seed;
    v1_ = seed + kPrime1 + kPrime2;
    v2_ = seed + kPrime2;
    v3_ = seed;
    v4_ = seed - kPrime1;
    total_ = 0;
    buffered_ = 0;
}

void
Xxh64Stream::update(const void *data, std::size_t len)
{
    const std::uint8_t *p = static_cast<const std::uint8_t *>(data);
    total_ += len;

    if (buffered_ > 0) {
        const std::size_t take = std::min(len, 32 - buffered_);
        std::memcpy(buf_ + buffered_, p, take);
        buffered_ += take;
        p += take;
        len -= take;
        if (buffered_ < 32)
            return;
        v1_ = xxh64Round(v1_, loadLe<std::uint64_t>(buf_));
        v2_ = xxh64Round(v2_, loadLe<std::uint64_t>(buf_ + 8));
        v3_ = xxh64Round(v3_, loadLe<std::uint64_t>(buf_ + 16));
        v4_ = xxh64Round(v4_, loadLe<std::uint64_t>(buf_ + 24));
        buffered_ = 0;
    }

    while (len >= 32) {
        v1_ = xxh64Round(v1_, loadLe<std::uint64_t>(p));
        v2_ = xxh64Round(v2_, loadLe<std::uint64_t>(p + 8));
        v3_ = xxh64Round(v3_, loadLe<std::uint64_t>(p + 16));
        v4_ = xxh64Round(v4_, loadLe<std::uint64_t>(p + 24));
        p += 32;
        len -= 32;
    }

    if (len > 0) {
        std::memcpy(buf_, p, len);
        buffered_ = len;
    }
}

std::uint64_t
Xxh64Stream::digest() const
{
    std::uint64_t h;
    if (total_ >= 32) {
        h = rotl64(v1_, 1) + rotl64(v2_, 7) + rotl64(v3_, 12) +
            rotl64(v4_, 18);
        h = xxh64MergeRound(h, v1_);
        h = xxh64MergeRound(h, v2_);
        h = xxh64MergeRound(h, v3_);
        h = xxh64MergeRound(h, v4_);
    } else {
        h = seed_ + kPrime5;
    }

    h += total_;

    const std::uint8_t *p = buf_;
    const std::uint8_t *end = buf_ + buffered_;
    while (p + 8 <= end) {
        h ^= xxh64Round(0, loadLe<std::uint64_t>(p));
        h = rotl64(h, 27) * kPrime1 + kPrime4;
        p += 8;
    }
    if (p + 4 <= end) {
        h ^= static_cast<std::uint64_t>(loadLe<std::uint32_t>(p)) * kPrime1;
        h = rotl64(h, 23) * kPrime2 + kPrime3;
        p += 4;
    }
    while (p < end) {
        h ^= static_cast<std::uint64_t>(*p) * kPrime5;
        h = rotl64(h, 11) * kPrime1;
        ++p;
    }

    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h;
}

std::uint64_t
xxhash64(const void *data, std::size_t len, std::uint64_t seed)
{
    Xxh64Stream stream(seed);
    stream.update(data, len);
    return stream.digest();
}

// ---------------------------------------------------------------------------
// Serializer

void
Serializer::str(const std::string &v)
{
    u64(v.size());
    bytes(v.data(), v.size());
}

void
Serializer::beginSection(const std::string &name)
{
    if (inSection_)
        panic("Serializer: beginSection(%s) inside an open section",
              name.c_str());
    inSection_ = true;
    u32(static_cast<std::uint32_t>(name.size()));
    bytes(name.data(), name.size());
    lenFieldAt_ = buf_.size();
    u64(0); // payload length, patched by endSection()
    payloadStart_ = buf_.size();
}

void
Serializer::endSection()
{
    if (!inSection_)
        panic("Serializer: endSection() without beginSection()");
    inSection_ = false;
    const std::uint64_t payload_len = buf_.size() - payloadStart_;
    storeLe(buf_.data() + lenFieldAt_, payload_len);
    std::uint64_t hash = xxhash64(buf_.data() + payloadStart_,
                                  static_cast<std::size_t>(payload_len));
    u64(hash);
}

// ---------------------------------------------------------------------------
// SectionReader

void
SectionReader::overrun(std::size_t n) const
{
    fatal("%s: read past end (+%zu bytes with %zu left) — the stored "
          "layout is not this build's",
          name_.c_str(), n, remaining());
}

std::string
SectionReader::str()
{
    std::uint64_t len = u64();
    need(static_cast<std::size_t>(len));
    std::string v(reinterpret_cast<const char *>(p_),
                  static_cast<std::size_t>(len));
    p_ += len;
    return v;
}

void
SectionReader::bytes(void *out, std::size_t len)
{
    need(len);
    std::memcpy(out, p_, len);
    p_ += len;
}

// ---------------------------------------------------------------------------
// Deserializer

std::string
Deserializer::openBytes(std::vector<std::uint8_t> bytes,
                        const std::string &label)
{
    data_ = std::move(bytes);
    label_ = label;
    if (data_.size() < sizeof(kSnapshotMagic) + 4 + 8)
        return label + ": truncated snapshot header";
    if (std::memcmp(data_.data(), kSnapshotMagic,
                    sizeof(kSnapshotMagic)) != 0)
        return label + ": not a CGCT snapshot (bad magic)";

    std::size_t off = sizeof(kSnapshotMagic);
    version_ = loadLe<std::uint32_t>(data_.data() + off);
    off += 4;
    if (version_ != kSnapshotVersion)
        return label + ": unsupported snapshot format version " +
               std::to_string(version_) + " (this build reads version " +
               std::to_string(kSnapshotVersion) + ")";
    fingerprint_ = loadLe<std::uint64_t>(data_.data() + off);
    off += 8;

    sections_.clear();
    while (off < data_.size()) {
        if (data_.size() - off < 4)
            return label + ": torn section header";
        const auto name_len = loadLe<std::uint32_t>(data_.data() + off);
        off += 4;
        // Size arithmetic on untrusted lengths: compute in size_t so a
        // crafted name_len near UINT32_MAX cannot wrap the sum.
        if (data_.size() - off < static_cast<std::size_t>(name_len) + 8)
            return label + ": torn section header";
        std::string name(reinterpret_cast<const char *>(data_.data() + off),
                         name_len);
        off += name_len;
        const auto payload_len = loadLe<std::uint64_t>(data_.data() + off);
        off += 8;
        // No addition on the untrusted payload_len — it can be anything
        // up to UINT64_MAX, so `payload_len + 8` could wrap and pass.
        if (payload_len > data_.size() - off ||
            data_.size() - off - static_cast<std::size_t>(payload_len) < 8)
            return label + ": torn section '" + name + "'";
        const std::size_t hash_at =
            off + static_cast<std::size_t>(payload_len);
        if (xxhash64(data_.data() + off,
                     static_cast<std::size_t>(payload_len)) !=
            loadLe<std::uint64_t>(data_.data() + hash_at))
            return label + ": checksum mismatch in section '" + name +
                   "' (snapshot file is corrupt)";
        Range r;
        r.begin = off;
        r.end = hash_at;
        sections_.emplace_back(std::move(name), r);
        off = hash_at + 8;
    }
    return "";
}

SectionReader
Deserializer::section(const std::string &name) const
{
    for (const auto &s : sections_)
        if (s.first == name)
            return SectionReader(data_.data() + s.second.begin,
                                 data_.data() + s.second.end,
                                 label_ + " section '" + name + "'");
    fatal("%s: missing section '%s'", label_.c_str(), name.c_str());
}

// ---------------------------------------------------------------------------
// Archive

void
Archive::f64(double &v)
{
    if (saving())
        out_->f64(v);
    else
        v = reader().f64();
}

void
Archive::str(std::string &v)
{
    if (saving())
        out_->str(v);
    else
        v = reader().str();
}

void
Archive::expect(const char *what, const std::string &value)
{
    std::string stored = value;
    str(stored);
    if (stored != value)
        fail("%s mismatch ('%s' stored, '%s' here)", what, stored.c_str(),
             value.c_str());
}

void
Archive::fail(const char *fmt, ...) const
{
    char msg[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(msg, sizeof(msg), fmt, args);
    va_end(args);
    fatal("%s: %s", reader().name().c_str(), msg);
}

// ---------------------------------------------------------------------------
// File assembly

void
beginSnapshotFile(Serializer &s, std::uint64_t fingerprint)
{
    if (s.size() != 0)
        panic("beginSnapshotFile: the serializer already holds %zu bytes",
              s.size());
    s.bytes(kSnapshotMagic, sizeof(kSnapshotMagic));
    s.u32(kSnapshotVersion);
    s.u64(fingerprint);
}

std::vector<std::uint8_t>
makeSnapshotFile(std::uint64_t fingerprint, const Serializer &sections)
{
    Serializer file;
    beginSnapshotFile(file, fingerprint);
    file.bytes(sections.buffer().data(), sections.size());
    return std::move(file).take();
}

void
fsyncDirOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "."
                                   : path.substr(0, slash ? slash : 1);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

} // namespace cgct
