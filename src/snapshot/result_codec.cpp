#include "snapshot/result_codec.hpp"

#include <vector>

#include "sim/result_fields.hpp"
#include "sim/sweep.hpp"
#include "snapshot/serializer.hpp"
#include "snapshot/snapshot.hpp"

namespace cgct {

namespace {

void io(Archive &ar, std::string &v) { ar.str(v); }
void io(Archive &ar, std::uint64_t &v) { ar.u64(v); }
void io(Archive &ar, unsigned &v) { ar.u32(v); }
void io(Archive &ar, double &v) { ar.f64(v); }

void
io(Archive &ar, std::vector<HistogramSnapshot> &hs)
{
    // Smallest encoding: two empty strings and four u64s.
    hs.resize(ar.count("histograms", static_cast<std::uint32_t>(hs.size()),
                       48));
    for (HistogramSnapshot &h : hs) {
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
}

void
io(Archive &ar, std::vector<DistributionSnapshot> &ds)
{
    // Smallest encoding: two empty strings, a u64 and four doubles.
    ds.resize(ar.count("distributions",
                       static_cast<std::uint32_t>(ds.size()), 56));
    for (DistributionSnapshot &d : ds) {
        ar.str(d.name);
        ar.str(d.desc);
        ar.u64(d.samples);
        ar.f64(d.min);
        ar.f64(d.max);
        ar.f64(d.mean);
        ar.f64(d.stddev);
    }
}

void
io(Archive &ar, std::shared_ptr<const SamplingInfo> &sampling)
{
    bool sampled = sampling != nullptr;
    ar.b(sampled);
    if (!sampled)
        return;
    SamplingInfo si = sampling ? *sampling : SamplingInfo{};
    ar.u64(si.windows);
    ar.u64(si.windowOps);
    ar.str(si.warmMode);
    ar.u64(si.spanOps);
    ar.u64(si.sampledOps);
    ar.f64(si.scale);
    for (RunSummary *sum : {&si.cycles, &si.avgMissLatency, &si.l2MissRatio,
                            &si.avoidedFraction, &si.avgBroadcastsPer100k}) {
        ar.f64(sum->mean);
        ar.f64(sum->stddev);
        ar.f64(sum->ci95Half);
        ar.u64(sum->count);
    }
    if (!ar.saving())
        sampling = std::make_shared<const SamplingInfo>(si);
}

/** The record layout of one RunResult: its fields in list order
 *  (sim/result_fields.hpp). */
void
transfer(Archive &ar, RunResult &r)
{
    visitFields(Overloaded{
        [&](const Field &, auto RunResult::*m) { io(ar, r.*m); },
        [](const Field &, DerivedField) {},
        [&](std::initializer_list<CategoryField> arrays) {
            for (std::size_t c = 0; c < kNumCategories; ++c)
                for (const CategoryField &a : arrays)
                    ar.u64((r.*a.member)[c]);
        }});
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
    if (spec.sampling.windows) {
        s.str("sampled");
        s.u64(spec.sampling.windows);
        s.u64(spec.sampling.windowOps);
        s.str(warmModeName(spec.sampling.warmMode));
    }
    return xxhash64(s.buffer().data(), s.size());
}

} // namespace cgct
