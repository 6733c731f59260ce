/**
 * @file
 * Versioned, checksummed binary serialization for simulator snapshots.
 *
 * The format is deliberately simple and self-describing enough to detect
 * corruption and misuse, without pulling in any external dependency:
 *
 *   file   := magic(8) version(u32) fingerprint(u64) section*
 *   section:= nameLen(u32) name(bytes) payloadLen(u64) payload(bytes)
 *             xxhash64(payload)(u64)
 *
 * Everything is little-endian. Doubles are stored as their raw IEEE-754
 * bit pattern so a round trip is bit-exact (this is what makes
 * restore-then-run byte-identical stats possible). Each section's
 * payload is covered by an XXH64 checksum verified on open; the header
 * carries a format version and a config fingerprint so an image never
 * restores under a run it was not taken from (see docs/SNAPSHOT.md).
 *
 * Inside a section, each type lays out its fields once, in a
 * transfer(Archive &) that both saves and loads them (see Archive). The
 * same classes also back the RunResult codec (snapshot/result_codec.hpp),
 * which has no framing of its own.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/little_endian.hpp"
#include "common/log.hpp"

namespace cgct {

/**
 * XXH64 — the canonical xxHash 64-bit digest (public-domain algorithm,
 * reimplemented here so the repo stays dependency-free), one
 * Xxh64Stream update over the buffer. Matches the reference vectors,
 * e.g. xxhash64("", 0) == 0xEF46DB3751D8E999.
 */
std::uint64_t xxhash64(const void *data, std::size_t len,
                       std::uint64_t seed = 0);

/**
 * Streaming XXH64: feed bytes in any chunking; digest() matches the
 * one-shot xxhash64() over the concatenation. Used where the data never
 * exists as one buffer (multi-GB trace lane payloads, see
 * workload/trace.cpp). digest() does not consume the state: more
 * update() calls may follow.
 */
class Xxh64Stream {
  public:
    explicit Xxh64Stream(std::uint64_t seed = 0) { reset(seed); }

    void reset(std::uint64_t seed = 0);
    void update(const void *data, std::size_t len);
    std::uint64_t digest() const;
    std::uint64_t totalBytes() const { return total_; }

  private:
    std::uint64_t v1_, v2_, v3_, v4_;
    std::uint64_t seed_ = 0;
    std::uint64_t total_ = 0;
    std::uint8_t buf_[32];
    std::size_t buffered_ = 0;
};

/**
 * Append-only little-endian byte sink with optional sectioning.
 *
 * Primitive writers append raw LE bytes. beginSection()/endSection()
 * bracket a named, length-prefixed, checksummed payload; sections must
 * not nest. A Serializer used without sections (raw mode) is also the
 * canonical-bytes builder for fingerprints and result encodings.
 */
class Serializer {
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u32(std::uint32_t v) { put(v); }
    void u64(std::uint64_t v) { put(v); }
    void b(bool v) { u8(v ? 1 : 0); }
    /** Raw IEEE-754 bit pattern — bit-exact round trip, incl. ±0/inf. */
    void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
    /** u64 length followed by the bytes. */
    void str(const std::string &v);
    /** Append @p len raw bytes. Inline: every Archive field of a save
     *  lands here, and inlined with a constant @p len the append is a
     *  capacity check and a fixed-size copy. */
    void
    bytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + len);
    }
    /**
     * Append one little-endian unsigned integer of its own width, a byte
     * at a time. Archive fields go through bytes() instead. Keep the
     * mix: an unreserved buffer (a sampled run's first checkpoint
     * image) grows differently under push_back and range inserts, and
     * the sampled benchmark's peak RSS moves by 4 MB with it.
     */
    template <class W>
    void
    put(W v)
    {
        std::uint8_t le[sizeof v];
        storeLe(le, v);
        for (std::uint8_t b : le)
            buf_.push_back(b);
    }

    void beginSection(const std::string &name);
    void endSection();

    const std::vector<std::uint8_t> &buffer() const { return buf_; }
    std::size_t size() const { return buf_.size(); }
    void reserve(std::size_t bytes) { buf_.reserve(bytes); }
    /** Move the bytes out without copying them. */
    std::vector<std::uint8_t> take() && { return std::move(buf_); }

  private:
    std::vector<std::uint8_t> buf_;
    std::size_t payloadStart_ = 0;
    std::size_t lenFieldAt_ = 0;
    bool inSection_ = false;
};

/**
 * Cursor over one section's payload (or any raw byte range).
 *
 * The payload checksum was verified before a SectionReader is handed
 * out, so a read past the end means the stored layout is not the one
 * this build's transfer() functions describe (or a crafted payload); it
 * fatal()s with the reader's label.
 */
class SectionReader {
  public:
    /** @p label names the bytes in error messages, e.g. "ck.40000
     *  section 'node3'". */
    SectionReader(const std::uint8_t *begin, const std::uint8_t *end,
                  std::string label)
        : p_(begin), end_(end), name_(std::move(label)) {}

    std::uint8_t u8() { return get<std::uint8_t>(); }
    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }
    bool b() { return u8() != 0; }
    double f64() { return std::bit_cast<double>(u64()); }
    std::string str();
    void bytes(void *out, std::size_t len);

    /** One little-endian unsigned integer of width @p W. */
    template <class W>
    W
    get()
    {
        need(sizeof(W));
        const W v = loadLe<W>(p_);
        p_ += sizeof v;
        return v;
    }

    std::size_t remaining() const
    {
        return static_cast<std::size_t>(end_ - p_);
    }
    bool atEnd() const { return p_ == end_; }
    const std::string &name() const { return name_; }

  private:
    void
    need(std::size_t n)
    {
        if (remaining() < n)
            overrun(n);
    }
    [[noreturn]] void overrun(std::size_t n) const;

    const std::uint8_t *p_;
    const std::uint8_t *end_;
    std::string name_;
};

/**
 * Takes a snapshot image, validates framing and every section checksum
 * up front, and hands out SectionReaders by name.
 */
class Deserializer {
  public:
    /**
     * Take and validate the image @p bytes. Returns an error message
     * naming @p label on any problem (bad magic, unsupported version,
     * torn section, checksum mismatch); empty string on success.
     */
    std::string openBytes(std::vector<std::uint8_t> bytes,
                          const std::string &label);

    std::uint32_t version() const { return version_; }
    std::uint64_t fingerprint() const { return fingerprint_; }

    /** fatal() if the section is absent (format bug, not corruption). */
    SectionReader section(const std::string &name) const;

  private:
    struct Range {
        std::size_t begin = 0;
        std::size_t end = 0;
    };

    std::vector<std::uint8_t> data_;
    std::vector<std::pair<std::string, Range>> sections_;
    std::string label_;
    std::uint32_t version_ = 0;
    std::uint64_t fingerprint_ = 0;
};

/**
 * One layout function per format. Each snapshot type and the RunResult
 * codec state their fields once, in `void transfer(Archive &ar)`; the
 * archive's direction, fixed at construction, decides whether each
 * field is written or read:
 *
 *     ar.u64(nextFreeSlot_);   // saves nextFreeSlot_, or loads it
 *
 * Primitives take references and store the named width (enums and
 * narrower integers are cast). On load, the checks that make a crafted
 * payload fail cleanly live here: expect() for geometry and identity,
 * count() before anything is sized from a stored length, index() before
 * a stored id is used to subscript, enumerant() before a stored byte
 * becomes an enum. Every failure fatal()s with the reader's label.
 * saving() guards the few steps that exist on one side only (quiescence
 * panics, post-load resets, sorted emission).
 */
class Archive
{
  public:
    /** Save: every field is appended to @p s. */
    explicit Archive(Serializer &s) : out_(&s) {}
    /** Load one raw record (or section payload) from @p r. */
    explicit Archive(SectionReader &r) : in_(&r) {}
    /** Load a snapshot file; fields are read inside section() only. */
    explicit Archive(const Deserializer &d) : file_(&d) {}

    bool saving() const { return out_ != nullptr; }

    template <class T> void u8(T &v) { field<std::uint8_t>(v); }
    template <class T> void u32(T &v) { field<std::uint32_t>(v); }
    /** Also the layout of signed fields (two's complement, i64). */
    template <class T> void u64(T &v) { field<std::uint64_t>(v); }
    void b(bool &v) { field<std::uint8_t>(v); }
    /** Every counter of a component's list (CounterList, common/stats.hpp)
     *  as a u64, in list order. */
    template <class S>
    void
    counters(S &s)
    {
        S::visit([this](const char *, const char *,
                        std::uint64_t &v) { u64(v); },
                 s);
    }
    /** Raw IEEE-754 bit pattern — bit-exact round trip. */
    void f64(double &v);
    void str(std::string &v);

    /**
     * A geometry or identity field: saved as @p value at the width of
     * its type (std::uint32_t or std::uint64_t); on load, fatal()s
     * naming @p what with the stored and the current value.
     */
    template <class T>
    void
    expect(const char *what, T value)
    {
        T stored = value;
        raw(stored);
        if (stored != value)
            fail("%s mismatch (%llu stored, %llu here)", what,
                 static_cast<unsigned long long>(stored),
                 static_cast<unsigned long long>(value));
    }
    void expect(const char *what, const std::string &value);

    /**
     * A container length, stored at the width of @p n's type. Returns
     * it; on load, fatal()s before the caller sizes anything unless the
     * bytes left can hold that many items of at least @p item_bytes.
     */
    template <class T>
    std::size_t
    count(const char *what, T n, std::size_t item_bytes)
    {
        raw(n);
        if (!saving() && n > reader().remaining() / item_bytes)
            fail("%s %llu exceeds what the %zu bytes left can hold", what,
                 static_cast<unsigned long long>(n), reader().remaining());
        return static_cast<std::size_t>(n);
    }

    /** An array index, stored at the width of its type; on load,
     *  fatal()s unless it is below @p bound. */
    template <class T>
    void
    index(const char *what, T &v, std::uint64_t bound)
    {
        raw(v);
        if (!saving() && v >= bound)
            fail("%s %llu out of range (bound %llu)", what,
                 static_cast<unsigned long long>(v),
                 static_cast<unsigned long long>(bound));
    }

    /** A one-byte enum whose last enumerator is @p last; on load,
     *  fatal()s naming @p what unless the stored byte is one of them. */
    template <class E>
    void
    enumerant(const char *what, E &v, E last)
    {
        std::uint8_t w = static_cast<std::uint8_t>(v);
        index(what, w, static_cast<std::uint64_t>(last) + 1);
        v = static_cast<E>(w);
    }

    /**
     * A named snapshot section whose payload is @p fn's fields. On
     * load the section must exist and @p fn must consume all of it.
     */
    template <class Fn>
    void
    section(const std::string &name, Fn &&fn)
    {
        if (saving()) {
            out_->beginSection(name);
            fn();
            out_->endSection();
            return;
        }
        SectionReader r = file_->section(name);
        in_ = &r;
        fn();
        if (!r.atEnd())
            fail("%zu bytes left unread", r.remaining());
        in_ = nullptr;
    }

    /** fatal() with the reader's label: a load-side check failed. */
    [[noreturn]] void fail(const char *fmt, ...) const
        __attribute__((format(printf, 2, 3)));

  private:
    template <class W, class T>
    void
    field(T &v)
    {
        W w = static_cast<W>(v);
        raw(w);
        if (!saving())
            v = static_cast<T>(w);
    }

    /** The stored bytes of @p v: its width, little-endian. */
    template <class W>
    void
    raw(W &v)
    {
        if (saving()) {
            std::uint8_t le[sizeof v];
            storeLe(le, v);
            out_->bytes(le, sizeof le);
        } else {
            v = reader().get<W>();
        }
    }

    SectionReader &
    reader() const
    {
        if (!in_)
            panic("Archive: field read outside a section");
        return *in_;
    }

    Serializer *out_ = nullptr;
    SectionReader *in_ = nullptr;
    const Deserializer *file_ = nullptr;
};

/** The 8-byte magic at offset 0 of every snapshot file. */
extern const char kSnapshotMagic[8];
/** Current snapshot format version (header field). v2: core sections
 *  gained a sync_stall_cycles slot, and trace-replay runs store a
 *  "replay" workload section (lane cursors); the synchronization slots
 *  are retired but kept, written as 0 and expected as 0. v3: each tag
 *  array stores its occupancy masks and entries only, with no tags, MRU
 *  way hints or valid count. */
constexpr std::uint32_t kSnapshotVersion = 3;

/**
 * Start a snapshot byte stream in the empty @p s by writing the file
 * header. The sections written after it complete the file in place:
 * s.buffer() is the file, and std::move(s).take() hands it over uncopied.
 */
void beginSnapshotFile(Serializer &s, std::uint64_t fingerprint);

/** Build a complete snapshot byte stream: header + a copy of @p sections. */
std::vector<std::uint8_t> makeSnapshotFile(std::uint64_t fingerprint,
                                           const Serializer &sections);

/**
 * fsync the directory containing @p path, making a just-created or
 * just-renamed directory entry durable. Best-effort: some filesystems
 * refuse to open directories, so errors are ignored.
 */
void fsyncDirOf(const std::string &path);

} // namespace cgct
