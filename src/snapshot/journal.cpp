#include "snapshot/journal.hpp"

#include <unistd.h>

#include <cstring>
#include <vector>

#include "common/little_endian.hpp"
#include "common/log.hpp"
#include "sim/sweep.hpp"
#include "snapshot/serializer.hpp"
#include "snapshot/snapshot.hpp"

namespace cgct {

namespace {

const char kJournalMagic[8] = {'C', 'G', 'C', 'T', 'J', 'R', 'N', 'L'};
constexpr std::uint32_t kJournalVersion = 1;
constexpr std::size_t kHeaderBytes = 8 + 4 + 8;
/** Sanity bound on one record (a RunResult encodes to a few KB). */
constexpr std::uint64_t kMaxRecordBytes = 64ULL << 20;

/** The journal record layout of one RunResult. */
void
transfer(Archive &ar, RunResult &r)
{
    ar.str(r.workload);
    ar.u64(r.regionBytes);
    ar.u64(r.seed);
    ar.u64(r.cycles);
    ar.u64(r.instructions);
    ar.u64(r.requestsTotal);
    ar.u64(r.broadcasts);
    ar.u64(r.directs);
    ar.u64(r.locals);
    ar.u64(r.writebacks);
    for (std::size_t c = 0; c < RunResult::kNumCat; ++c) {
        ar.u64(r.broadcastsByCat[c]);
        ar.u64(r.directsByCat[c]);
        ar.u64(r.localsByCat[c]);
    }
    ar.u64(r.oracleTotal);
    ar.u64(r.oracleUnnecessary);
    for (std::size_t c = 0; c < RunResult::kNumCat; ++c) {
        ar.u64(r.oracleTotalByCat[c]);
        ar.u64(r.oracleUnnecessaryByCat[c]);
    }
    ar.f64(r.avgBroadcastsPer100k);
    ar.f64(r.peakBroadcastsPer100k);
    ar.f64(r.l2MissRatio);
    ar.f64(r.avgMissLatency);
    ar.u64(r.cacheToCache);
    ar.u64(r.memorySupplied);
    ar.u64(r.rcaEvictedEmpty);
    ar.u64(r.rcaEvictedOne);
    ar.u64(r.rcaEvictedTwo);
    ar.u64(r.rcaEvictedMore);
    ar.u64(r.rcaSelfInvalidations);
    ar.u64(r.inclusionWritebacks);
    ar.f64(r.avgLinesPerEvictedRegion);

    // Smallest encodings: two empty strings and four u64s; two empty
    // strings, a u64 and four doubles.
    r.histograms.resize(ar.count(
        "histograms", static_cast<std::uint32_t>(r.histograms.size()), 48));
    for (HistogramSnapshot &h : r.histograms) {
        ar.str(h.name);
        ar.str(h.desc);
        ar.u64(h.bucketWidth);
        ar.u64(h.samples);
        ar.u64(h.sum);
        h.buckets.resize(ar.count(
            "histogram buckets",
            static_cast<std::uint64_t>(h.buckets.size()), 8));
        for (std::uint64_t &b : h.buckets)
            ar.u64(b);
    }
    r.distributions.resize(ar.count(
        "distributions", static_cast<std::uint32_t>(r.distributions.size()),
        56));
    for (DistributionSnapshot &d : r.distributions) {
        ar.str(d.name);
        ar.str(d.desc);
        ar.u64(d.samples);
        ar.f64(d.min);
        ar.f64(d.max);
        ar.f64(d.mean);
        ar.f64(d.stddev);
    }

    // Sampling tail (sampled sweeps): optional so records from a
    // full-detail sweep stay byte-identical to version-1 journals.
    // Records written before it existed end here.
    if (ar.atEnd())
        return;
    bool sampled = r.sampling != nullptr;
    ar.b(sampled);
    if (sampled) {
        SamplingInfo si = r.sampling ? *r.sampling : SamplingInfo{};
        ar.u64(si.windows);
        ar.u64(si.windowOps);
        ar.str(si.warmMode);
        ar.u64(si.spanOps);
        ar.u64(si.sampledOps);
        ar.f64(si.scale);
        for (RunSummary *sum : {&si.cycles, &si.avgMissLatency,
                                &si.l2MissRatio, &si.avoidedFraction,
                                &si.avgBroadcastsPer100k}) {
            ar.f64(sum->mean);
            ar.f64(sum->stddev);
            ar.f64(sum->ci95Half);
            ar.u64(sum->count);
        }
        if (!ar.saving())
            r.sampling = std::make_shared<const SamplingInfo>(si);
    }

    // Topology tail (appended after the sampling tail so older decoders
    // that stop at their last known field still read their prefix).
    // Records written before it keep its defaults.
    if (ar.atEnd())
        return;
    ar.str(r.topology);
    ar.u32(r.nodes);
    ar.u64(r.localResolves);
    ar.u64(r.interChipBroadcasts);
}

} // namespace

void
encodeRunResult(Serializer &s, const RunResult &r)
{
    Archive ar(s);
    // Saving reads every field and writes none.
    transfer(ar, const_cast<RunResult &>(r));
}

RunResult
decodeRunResult(SectionReader &r)
{
    RunResult out;
    Archive ar(r);
    transfer(ar, out);
    return out;
}

std::uint64_t
sweepFingerprint(const SweepSpec &spec)
{
    Serializer s;
    canonicalizeConfig(s, spec.baseConfig);
    s.u32(static_cast<std::uint32_t>(spec.profiles.size()));
    for (const WorkloadProfile *p : spec.profiles)
        s.str(p->name);
    s.u32(static_cast<std::uint32_t>(spec.regionSizes.size()));
    for (std::uint64_t region : spec.regionSizes)
        s.u64(region);
    s.u32(spec.seedsPerCell);
    s.u64(spec.baseSeed);
    s.u64(spec.opts.opsPerCpu);
    s.u64(spec.opts.warmupOps);
    // Appended only for sampled sweeps, so full-detail fingerprints (and
    // their resume journals) are unchanged from earlier releases.
    if (spec.sampled) {
        s.str("sampled");
        s.u64(spec.sampling.windows);
        s.u64(spec.sampling.windowOps);
        s.str(warmModeName(spec.sampling.warmMode));
    }
    return xxhash64(s.buffer().data(), s.size());
}

SweepJournal::~SweepJournal()
{
    if (file_)
        std::fclose(file_);
}

std::string
SweepJournal::open(const std::string &path, std::uint64_t fingerprint)
{
    if (file_)
        panic("SweepJournal: open() called twice");

    std::FILE *f = std::fopen(path.c_str(), "r+b");
    if (!f) {
        // Fresh journal: create it and write the header.
        f = std::fopen(path.c_str(), "w+b");
        if (!f)
            return "cannot create journal file " + path;
        Serializer h;
        h.bytes(kJournalMagic, sizeof(kJournalMagic));
        h.u32(kJournalVersion);
        h.u64(fingerprint);
        if (std::fwrite(h.buffer().data(), 1, h.size(), f) != h.size()) {
            std::fclose(f);
            return "cannot write journal header to " + path;
        }
        std::fflush(f);
        ::fsync(fileno(f));
        // Make the new directory entry durable too, or a power loss
        // could leave a fully-fsync'd journal with no name.
        fsyncDirOf(path);
        file_ = f;
        return {};
    }

    // Existing journal: slurp, validate the header, replay the records.
    std::vector<std::uint8_t> data;
    {
        std::fseek(f, 0, SEEK_END);
        const long sz = std::ftell(f);
        std::fseek(f, 0, SEEK_SET);
        data.resize(sz > 0 ? static_cast<std::size_t>(sz) : 0);
        if (!data.empty() &&
            std::fread(data.data(), 1, data.size(), f) != data.size()) {
            std::fclose(f);
            return "cannot read journal file " + path;
        }
    }
    if (data.size() < kHeaderBytes ||
        std::memcmp(data.data(), kJournalMagic, sizeof(kJournalMagic)) !=
            0) {
        std::fclose(f);
        return path + " is not a cgct_sweep resume journal";
    }
    if (loadLe<std::uint32_t>(data.data() + 8) != kJournalVersion) {
        std::fclose(f);
        return path + ": unsupported journal version";
    }
    if (loadLe<std::uint64_t>(data.data() + 12) != fingerprint) {
        std::fclose(f);
        return path +
               " was written by a different sweep (benchmarks, regions, "
               "seeds, ops or system configuration differ) — refusing "
               "to resume; delete it to start over";
    }

    std::size_t pos = kHeaderBytes;
    while (pos < data.size()) {
        if (data.size() - pos < 8)
            break; // Torn length field.
        const std::uint64_t len = loadLe<std::uint64_t>(data.data() + pos);
        if (len < 8 || len > kMaxRecordBytes ||
            data.size() - pos - 8 < len + 8)
            break; // Torn or nonsensical record.
        const std::uint8_t *payload = data.data() + pos + 8;
        if (xxhash64(payload, len) != loadLe<std::uint64_t>(payload + len))
            break; // Torn payload (crash mid-append).
        SectionReader rec(payload, payload + len,
                          path + ": record at byte " + std::to_string(pos));
        const std::uint64_t index = rec.u64();
        completed_[index] = decodeRunResult(rec);
        pos += 8 + len + 8;
    }

    // Drop the torn tail so the next append starts on a record boundary.
    if (pos < data.size()) {
        if (ftruncate(fileno(f), static_cast<off_t>(pos)) != 0) {
            std::fclose(f);
            return "cannot truncate torn record in " + path;
        }
    }
    std::fseek(f, static_cast<long>(pos), SEEK_SET);
    file_ = f;
    return {};
}

void
SweepJournal::append(std::uint64_t cellIndex, const RunResult &result)
{
    Serializer payload;
    payload.u64(cellIndex);
    encodeRunResult(payload, result);

    Serializer rec;
    rec.u64(payload.size());
    rec.bytes(payload.buffer().data(), payload.size());
    rec.u64(xxhash64(payload.buffer().data(), payload.size()));

    std::lock_guard<std::mutex> lock(mutex_);
    if (!file_)
        panic("SweepJournal: append() before open()");
    if (std::fwrite(rec.buffer().data(), 1, rec.size(), file_) !=
        rec.size())
        fatal("sweep journal: short write (disk full?)");
    std::fflush(file_);
    ::fsync(fileno(file_));
    completed_[cellIndex] = result;
    ++appends_;
}

} // namespace cgct
