#include "snapshot/serializer.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

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
readLE64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v; // the simulator targets little-endian hosts throughout
}

std::uint32_t
readLE32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
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
        v1_ = xxh64Round(v1_, readLE64(buf_));
        v2_ = xxh64Round(v2_, readLE64(buf_ + 8));
        v3_ = xxh64Round(v3_, readLE64(buf_ + 16));
        v4_ = xxh64Round(v4_, readLE64(buf_ + 24));
        buffered_ = 0;
    }

    while (len >= 32) {
        v1_ = xxh64Round(v1_, readLE64(p));
        v2_ = xxh64Round(v2_, readLE64(p + 8));
        v3_ = xxh64Round(v3_, readLE64(p + 16));
        v4_ = xxh64Round(v4_, readLE64(p + 24));
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
        h ^= xxh64Round(0, readLE64(p));
        h = rotl64(h, 27) * kPrime1 + kPrime4;
        p += 8;
    }
    if (p + 4 <= end) {
        h ^= static_cast<std::uint64_t>(readLE32(p)) * kPrime1;
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
Serializer::le(std::uint64_t v, int n)
{
    for (int i = 0; i < n; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
Serializer::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, 8);
    u64(bits);
}

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
    std::uint64_t payload_len = buf_.size() - payloadStart_;
    for (int i = 0; i < 8; ++i)
        buf_[lenFieldAt_ + i] =
            static_cast<std::uint8_t>(payload_len >> (8 * i));
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
Deserializer::open(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return "cannot open snapshot file: " + path;
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    if (size < 0) {
        std::fclose(f);
        return "cannot stat snapshot file: " + path;
    }
    data_.resize(static_cast<std::size_t>(size));
    std::size_t got =
        size ? std::fread(data_.data(), 1, data_.size(), f) : 0;
    std::fclose(f);
    if (got != data_.size())
        return "short read on snapshot file: " + path;

    return parse(path);
}

std::string
Deserializer::openBytes(std::vector<std::uint8_t> bytes,
                        const std::string &label)
{
    data_ = std::move(bytes);
    return parse(label);
}

std::string
Deserializer::parse(const std::string &path)
{
    label_ = path;
    if (data_.size() < sizeof(kSnapshotMagic) + 4 + 8)
        return path + ": truncated snapshot header";
    if (std::memcmp(data_.data(), kSnapshotMagic,
                    sizeof(kSnapshotMagic)) != 0)
        return path + ": not a CGCT snapshot (bad magic)";

    std::size_t off = sizeof(kSnapshotMagic);
    version_ = 0;
    for (int i = 0; i < 4; ++i)
        version_ |= static_cast<std::uint32_t>(data_[off + i]) << (8 * i);
    off += 4;
    if (version_ != kSnapshotVersion)
        return path + ": unsupported snapshot format version " +
               std::to_string(version_) + " (this build reads version " +
               std::to_string(kSnapshotVersion) + ")";
    fingerprint_ = 0;
    for (int i = 0; i < 8; ++i)
        fingerprint_ |= static_cast<std::uint64_t>(data_[off + i])
                        << (8 * i);
    off += 8;

    sections_.clear();
    while (off < data_.size()) {
        if (data_.size() - off < 4)
            return path + ": torn section header";
        std::uint32_t name_len = 0;
        for (int i = 0; i < 4; ++i)
            name_len |= static_cast<std::uint32_t>(data_[off + i])
                        << (8 * i);
        off += 4;
        // Size arithmetic on untrusted lengths: compute in size_t so a
        // crafted name_len near UINT32_MAX cannot wrap the sum.
        if (data_.size() - off < static_cast<std::size_t>(name_len) + 8)
            return path + ": torn section header";
        std::string name(reinterpret_cast<const char *>(data_.data() + off),
                         name_len);
        off += name_len;
        std::uint64_t payload_len = 0;
        for (int i = 0; i < 8; ++i)
            payload_len |= static_cast<std::uint64_t>(data_[off + i])
                           << (8 * i);
        off += 8;
        // No addition on the untrusted payload_len — it can be anything
        // up to UINT64_MAX, so `payload_len + 8` could wrap and pass.
        if (payload_len > data_.size() - off ||
            data_.size() - off - static_cast<std::size_t>(payload_len) < 8)
            return path + ": torn section '" + name + "'";
        std::uint64_t stored_hash = 0;
        std::size_t hash_at = off + static_cast<std::size_t>(payload_len);
        for (int i = 0; i < 8; ++i)
            stored_hash |= static_cast<std::uint64_t>(data_[hash_at + i])
                           << (8 * i);
        std::uint64_t computed =
            xxhash64(data_.data() + off,
                     static_cast<std::size_t>(payload_len));
        if (computed != stored_hash)
            return path + ": checksum mismatch in section '" + name +
                   "' (snapshot file is corrupt)";
        Range r;
        r.begin = off;
        r.end = hash_at;
        sections_.emplace_back(std::move(name), r);
        off = hash_at + 8;
    }
    return "";
}

bool
Deserializer::hasSection(const std::string &name) const
{
    for (const auto &s : sections_)
        if (s.first == name)
            return true;
    return false;
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

std::string
writeFileAtomic(const std::string &path,
                const std::vector<std::uint8_t> &bytes)
{
    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return "cannot create " + tmp;
    std::size_t put =
        bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
    if (put != bytes.size()) {
        std::fclose(f);
        std::remove(tmp.c_str());
        return "short write on " + tmp;
    }
    std::fflush(f);
    fsync(fileno(f));
    std::fclose(f);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return "cannot rename " + tmp + " to " + path;
    }
    // The rename is durable only once the directory entry is on disk.
    fsyncDirOf(path);
    return "";
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
