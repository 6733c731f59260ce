#include "sim/json_stats.hpp"

#include <iterator>
#include <sstream>
#include <type_traits>

#include "sim/result_fields.hpp"

namespace cgct {

namespace {

/**
 * Tiny helper for the nested schema: tracks the current indent and
 * whether the previous entry needs a trailing comma. toJson() groups
 * related fields into per-component objects ("requests", "oracle", ...)
 * so consumers address stats by component rather than by a flat prefix.
 */
class Writer
{
  public:
    Writer(std::ostringstream &os, std::string indent)
        : os_(os), indent_(std::move(indent))
    {
    }

    void
    open(const char *name)
    {
        sep();
        os_ << indent_ << '"' << name << "\": {";
        indent_ += "  ";
        fresh_ = true;
    }

    void
    close()
    {
        indent_.resize(indent_.size() - 2);
        os_ << "\n" << indent_ << "}";
        fresh_ = false;
    }

    /** A number, or a string in quotes. */
    template <typename T>
    void
    field(const char *name, const T &v)
    {
        sep();
        os_ << indent_ << '"' << name << "\": ";
        if constexpr (std::is_same_v<T, std::string>)
            os_ << '"' << v << '"';
        else
            os_ << v;
    }

    template <typename Seq>
    void
    array(const char *name, const Seq &a, std::size_t n)
    {
        sep();
        os_ << indent_ << '"' << name << "\": [";
        for (std::size_t i = 0; i < n; ++i)
            os_ << a[i] << (i + 1 < n ? ", " : "");
        os_ << "]";
    }

  private:
    void
    sep()
    {
        if (!fresh_)
            os_ << ",";
        os_ << "\n";
        fresh_ = false;
    }

    std::ostringstream &os_;
    std::string indent_;
    bool fresh_ = true;
};

/** One list entry's value under its key. The histograms, distributions
 *  and sampling entries are each a whole group, so they have no key. */
template <typename T>
void
write(Writer &w, const char *name, const T &v)
{
    w.field(name, v);
}

void
write(Writer &w, const char *, const std::vector<HistogramSnapshot> &hs)
{
    for (const HistogramSnapshot &h : hs) {
        w.open(h.name.c_str());
        w.field("bucket_width", h.bucketWidth);
        w.field("samples", h.samples);
        w.field("sum", h.sum);
        w.array("buckets", h.buckets, h.buckets.size());
        w.close();
    }
}

void
write(Writer &w, const char *, const std::vector<DistributionSnapshot> &ds)
{
    for (const DistributionSnapshot &d : ds) {
        w.open(d.name.c_str());
        w.field("samples", d.samples);
        w.field("min", d.min);
        w.field("max", d.max);
        w.field("mean", d.mean);
        w.field("stddev", d.stddev);
        w.close();
    }
}

void
write(Writer &w, const char *, const std::shared_ptr<const SamplingInfo> &p)
{
    const SamplingInfo &s = *p;
    w.field("windows", s.windows);
    w.field("window_ops", s.windowOps);
    w.field("warm_mode", s.warmMode);
    w.field("span_ops", s.spanOps);
    w.field("sampled_ops", s.sampledOps);
    w.field("scale", s.scale);
    const struct {
        const char *name;
        const RunSummary *sum;
    } sums[] = {
        {"window_cycles", &s.cycles},
        {"avg_miss_latency", &s.avgMissLatency},
        {"l2_miss_ratio", &s.l2MissRatio},
        {"avoided_fraction", &s.avoidedFraction},
        {"avg_broadcasts_per_100k", &s.avgBroadcastsPer100k},
    };
    for (const auto &entry : sums) {
        w.open(entry.name);
        w.field("mean", entry.sum->mean);
        w.field("stddev", entry.sum->stddev);
        w.field("ci95_half", entry.sum->ci95Half);
        w.field("count", entry.sum->count);
        w.close();
    }
}

} // namespace

std::string
toJson(const RunResult &r, const std::string &indent)
{
    std::ostringstream os;
    os << indent << "{";
    Writer w(os, indent + "  ");
    // Each group in turn, its fields in list order.
    for (std::size_t g = 0; g < std::size(kGroupNames); ++g) {
        const Group group = static_cast<Group>(g);
        if (group == Group::Sampling && !r.sampling)
            continue; // Only sampled runs carry one.
        if (kGroupNames[g])
            w.open(kGroupNames[g]);
        visitFields(Overloaded{
            [&](const Field &f, auto RunResult::*m) {
                if (f.group == group)
                    write(w, f.json, r.*m);
            },
            [&](const Field &f, DerivedField m) {
                if (f.group == group)
                    w.field(f.json, (r.*m)());
            },
            [&](std::initializer_list<CategoryField> arrays) {
                for (const CategoryField &a : arrays)
                    if (a.field.group == group)
                        w.array(a.field.json, r.*a.member, kNumCategories);
            }});
        if (kGroupNames[g])
            w.close();
    }
    os << "\n" << indent << "}";
    return os.str();
}

std::string
toJson(const std::vector<RunResult> &results)
{
    std::ostringstream os;
    os << "[\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        os << toJson(results[i], "  ");
        os << (i + 1 < results.size() ? ",\n" : "\n");
    }
    os << "]\n";
    return os.str();
}

} // namespace cgct
