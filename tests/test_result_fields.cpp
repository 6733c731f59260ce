/**
 * @file
 * The RunResult field list (sim/result_fields.hpp): it names every
 * member, every listed field survives the codec round trip at a value
 * no other field shares, no two fields share an output name, and the
 * field table in docs/SWEEP.md is the list rendered.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "sim/result_fields.hpp"
#include "snapshot/result_codec.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {
namespace {

/** Converts to any member type; only named in unevaluated operands. */
struct AnyInit {
    template <typename T>
    constexpr operator T() const;
};

/** The most initializers T{...} takes: one per member, and one per
 *  element of a C array member (brace elision). */
template <typename T, typename... A>
constexpr std::size_t
initializerCount(A... a)
{
    if constexpr (requires { T{a..., AnyInit{}}; })
        return initializerCount<T>(a..., AnyInit{});
    else
        return sizeof...(A);
}

/** The same count from the list, plus `trace`, which no encoder
 *  writes. */
constexpr std::size_t
listedInitializers()
{
    std::size_t n = 1;
    visitFields(Overloaded{
        [&](const Field &, auto RunResult::*) { ++n; },
        [](const Field &, DerivedField) {},
        [&](std::initializer_list<CategoryField> arrays) {
            n += arrays.size() * RunResult::kNumCat;
        }});
    return n;
}

TEST(ResultFields, ListsEveryMember)
{
    // Checked when this file compiles.
    static_assert(initializerCount<RunResult>() == listedInitializers(),
                  "RunResult and visitFields (sim/result_fields.hpp) "
                  "disagree: list each RunResult member there once");
}

/** Sets every listed field of @p r to a value no other field shares. */
void
setDistinct(RunResult &r)
{
    std::uint64_t next = 1000;
    const auto set = Overloaded{
        [&](std::string &v) { v = "s" + std::to_string(next++); },
        [&](std::uint64_t &v) { v = next++; },
        [&](unsigned &v) { v = static_cast<unsigned>(next++); },
        [&](double &v) { v = static_cast<double>(next++) + 0.25; },
        [&](std::vector<HistogramSnapshot> &hs) {
            for (const char *name : {"node.miss_latency", "rca.lines"}) {
                hs.push_back({name, "d" + std::to_string(next++), next++,
                              next++, next++, {next++, next++, next++}});
            }
        },
        [&](std::vector<DistributionSnapshot> &ds) {
            ds.push_back({"rca.region_lifetime", "d", next++, 1.5, 2.5,
                          3.5, 4.5});
        },
        [&](std::shared_ptr<const SamplingInfo> &s) {
            auto info = std::make_shared<SamplingInfo>();
            info->windows = next++;
            info->windowOps = next++;
            info->warmMode = "functional";
            info->spanOps = next++;
            info->sampledOps = next++;
            info->scale = 2.75;
            for (RunSummary *sum :
                 {&info->cycles, &info->avgMissLatency, &info->l2MissRatio,
                  &info->avoidedFraction, &info->avgBroadcastsPer100k})
                *sum = {next++ + 0.5, next++ + 0.5, next++ + 0.5, next++};
            s = std::move(info);
        }};
    visitFields(Overloaded{
        [&](const Field &, auto RunResult::*m) { set(r.*m); },
        [](const Field &, DerivedField) {},
        [&](std::initializer_list<CategoryField> arrays) {
            for (const CategoryField &a : arrays)
                for (std::uint64_t &v : r.*a.member)
                    v = next++;
        }});
}

template <typename T>
bool
same(const T &a, const T &b)
{
    return a == b;
}

bool
same(const RunSummary &a, const RunSummary &b)
{
    return std::tie(a.mean, a.stddev, a.ci95Half, a.count) ==
           std::tie(b.mean, b.stddev, b.ci95Half, b.count);
}

bool
same(const HistogramSnapshot &a, const HistogramSnapshot &b)
{
    return std::tie(a.name, a.desc, a.bucketWidth, a.samples, a.sum,
                    a.buckets) == std::tie(b.name, b.desc, b.bucketWidth,
                                           b.samples, b.sum, b.buckets);
}

bool
same(const DistributionSnapshot &a, const DistributionSnapshot &b)
{
    return std::tie(a.name, a.desc, a.samples, a.min, a.max, a.mean,
                    a.stddev) == std::tie(b.name, b.desc, b.samples, b.min,
                                          b.max, b.mean, b.stddev);
}

template <typename T>
bool
same(const std::vector<T> &a, const std::vector<T> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const T &x, const T &y) { return same(x, y); });
}

bool
same(const std::shared_ptr<const SamplingInfo> &a,
     const std::shared_ptr<const SamplingInfo> &b)
{
    if (!a || !b)
        return a == b;
    return std::tie(a->windows, a->windowOps, a->warmMode, a->spanOps,
                    a->sampledOps, a->scale) ==
               std::tie(b->windows, b->windowOps, b->warmMode, b->spanOps,
                        b->sampledOps, b->scale) &&
           same(a->cycles, b->cycles) &&
           same(a->avgMissLatency, b->avgMissLatency) &&
           same(a->l2MissRatio, b->l2MissRatio) &&
           same(a->avoidedFraction, b->avoidedFraction) &&
           same(a->avgBroadcastsPer100k, b->avgBroadcastsPer100k);
}

/** The field's JSON path: "group.key", or the group or key alone. */
std::string
jsonPath(const Field &f)
{
    const char *group = kGroupNames[static_cast<std::size_t>(f.group)];
    if (!group)
        return f.json;
    return f.json ? std::string(group) + "." + f.json : group;
}

TEST(ResultFields, EveryListedFieldRoundTripsThroughTheCodec)
{
    RunResult in;
    setDistinct(in);
    Serializer s;
    encodeRunResult(s, in);
    SectionReader reader(s.buffer().data(), s.buffer().data() + s.size(),
                         "result");
    const RunResult out = decodeRunResult(reader);
    EXPECT_TRUE(reader.atEnd());

    RunResult defaults;
    visitFields(Overloaded{
        [&](const Field &f, auto RunResult::*m) {
            EXPECT_FALSE(same(in.*m, defaults.*m)) << jsonPath(f);
            EXPECT_TRUE(same(out.*m, in.*m)) << jsonPath(f);
        },
        [&](const Field &f, DerivedField m) {
            EXPECT_EQ((out.*m)(), (in.*m)()) << jsonPath(f);
        },
        [&](std::initializer_list<CategoryField> arrays) {
            for (const CategoryField &a : arrays)
                for (std::size_t c = 0; c < RunResult::kNumCat; ++c)
                    EXPECT_EQ((out.*a.member)[c], (in.*a.member)[c])
                        << jsonPath(a.field) << "[" << c << "]";
        }});
}

/** Each entry's Field, category arrays one by one. */
std::vector<Field>
listedFields()
{
    std::vector<Field> fields;
    visitFields(Overloaded{
        [&](const Field &f, auto) { fields.push_back(f); },
        [&](std::initializer_list<CategoryField> arrays) {
            for (const CategoryField &a : arrays)
                fields.push_back(a.field);
        }});
    return fields;
}

TEST(ResultFields, OutputNamesAreUnique)
{
    std::set<std::string> paths, columns;
    for (const Field &f : listedFields()) {
        EXPECT_TRUE(paths.insert(jsonPath(f)).second) << jsonPath(f);
        if (f.csv) {
            EXPECT_TRUE(columns.insert(f.csv).second) << f.csv;
        }
    }
}

const char *
windowName(Window w)
{
    switch (w) {
      case Window::Label: return "label";
      case Window::PostWarmup: return "post-warmup";
      case Window::Peak: return "post-warmup peak";
      case Window::WholeRun: return "whole run";
      case Window::PerEntry: return "per entry";
      case Window::Derived: return "derived";
    }
    return "?";
}

/** docs/SWEEP.md's field table, rendered from the list. */
std::string
renderFieldTable()
{
    std::ostringstream os;
    os << "| JSON key | CSV column | window |\n|---|---|---|\n";
    for (const Field &f : listedFields()) {
        std::string csv = f.csv ? "`" + std::string(f.csv) + "`" : "—";
        for (std::size_t at = csv.find(','); at != std::string::npos;
             at = csv.find(',', at + 4))
            csv.replace(at, 1, "`, `");
        if (f.csv && f.group == Group::Sampling)
            csv += " (with `--sample`)";
        if (f.csv && f.group == Group::Interconnect)
            csv += " (topology columns)";
        os << "| `" << jsonPath(f) << "` | " << csv << " | "
           << windowName(f.window) << " |\n";
    }
    return os.str();
}

TEST(ResultFields, SweepDocTableIsTheListRendered)
{
    std::ifstream in(CGCT_SOURCE_DIR "/docs/SWEEP.md");
    std::stringstream text;
    text << in.rdbuf();
    const std::string doc = text.str();
    const std::string open = "<!-- result_fields -->\n";
    const std::size_t begin = doc.find(open);
    ASSERT_NE(begin, std::string::npos) << "no " << open << "in SWEEP.md";
    const std::size_t body = begin + open.size();
    EXPECT_EQ(doc.substr(body, doc.find("<!-- /result_fields -->", body) -
                                   body),
              renderFieldTable())
        << "docs/SWEEP.md's field table differs from visitFields";
}

} // namespace
} // namespace cgct
