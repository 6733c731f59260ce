/**
 * @file
 * The one list of RunResult fields: visitFields() names each member once,
 * in result codec order, with its JSON key, sweep CSV column and
 * counting window. The result codec, toJson, the sweep CSV and the
 * sampled aggregation all walk it. A counter is one line in its
 * component's list (common/stats.hpp), which carries it to --stats, the
 * checkpoint and System::totals(); a field reporting it is one line here,
 * and collectRunResult reads it from the totals (docs/SWEEP.md, "Result
 * fields").
 */

#pragma once

#include <cstdint>
#include <initializer_list>

#include "sim/simulator.hpp"

namespace cgct {

/** The span a field counts over; the sampled aggregation's rule for the
 *  field follows from it (docs/SAMPLING.md). */
enum class Window : std::uint8_t {
    Label,      ///< Names the run: the first window's value.
    PostWarmup, ///< Reset at warmup: counts sum and scale, ratios average.
    Peak,       ///< Post-warmup maximum: the max over windows.
    WholeRun,   ///< Warmup included: the last window's value.
    PerEntry,   ///< Named entries, each over its own window.
    Derived,    ///< Computed from other fields; never stored.
};

/** The JSON object a field sits in, in the order toJson writes them. The
 *  sampling and interconnect columns are the CSV's optional ones. */
enum class Group : std::uint8_t {
    Top, Requests, Oracle, Traffic, Interconnect, Memory, Sampling, Rca,
    Histograms, Distributions,
};

/** JSON key of each Group (the Top fields sit in the result itself). */
inline constexpr const char *kGroupNames[] = {
    nullptr, "requests", "oracle", "traffic", "interconnect",
    "memory", "sampling", "rca", "histograms", "distributions",
};

/** One entry of the list. */
struct Field {
    Group group;
    const char *json;   ///< Key in the group; null: the entry is the group.
    const char *csv;    ///< Sweep CSV column(s); null: not in the CSV.
    Window window;
    int csvDigits = 0;  ///< Digits after the point of a double column.
};

/** One of several per-category arrays listed as one entry: the codec
 *  interleaves them per category, JSON writes each whole. */
struct CategoryField {
    Field field;
    std::uint64_t (RunResult::*member)[kNumCategories];
};

/** A field a RunResult accessor computes from stored ones. */
using DerivedField = double (RunResult::*)() const;

/** A visitor built from lambdas, one per kind of entry. */
template <typename... Fs>
struct Overloaded : Fs... {
    using Fs::operator()...;
};

/**
 * Call @p v once per RunResult field, in the result codec's order:
 * v(field, &RunResult::member) for a stored member, v(field, accessor)
 * for a derived one, and v({CategoryField...}) for parallel
 * per-category arrays. Every member but `trace` (never encoded) is
 * listed; tests/test_result_fields.cpp stops compiling when one is not.
 */
template <typename Visitor>
constexpr void
visitFields(Visitor &&v)
{
    using R = RunResult;
    using F = Field;
    using Cats = std::initializer_list<CategoryField>;
    using enum Group;
    using enum Window;

    v(F{Top, "workload", "workload", Label}, &R::workload);
    v(F{Top, "region_bytes", "region_bytes", Label}, &R::regionBytes);
    v(F{Top, "seed", "seed", Label}, &R::seed);
    v(F{Top, "cycles", "cycles", PostWarmup}, &R::cycles);
    v(F{Top, "instructions", "instructions", WholeRun}, &R::instructions);

    v(F{Requests, "total", "requests", PostWarmup}, &R::requestsTotal);
    v(F{Requests, "broadcasts", "broadcasts", PostWarmup}, &R::broadcasts);
    v(F{Requests, "directs", "directs", PostWarmup}, &R::directs);
    v(F{Requests, "locals", "locals", PostWarmup}, &R::locals);
    v(F{Requests, "writebacks", "writebacks", PostWarmup}, &R::writebacks);
    v(Cats{{{Requests, "broadcasts_by_category", nullptr, PostWarmup},
            &R::broadcastsByCat},
           {{Requests, "directs_by_category", nullptr, PostWarmup},
            &R::directsByCat},
           {{Requests, "locals_by_category", nullptr, PostWarmup},
            &R::localsByCat}});
    v(F{Requests, "avoided_fraction", "avoided_fraction", Derived, 6},
      &R::avoidedFraction);

    v(F{Oracle, "total", nullptr, PostWarmup}, &R::oracleTotal);
    v(F{Oracle, "unnecessary", nullptr, PostWarmup}, &R::oracleUnnecessary);
    v(Cats{{{Oracle, "total_by_category", nullptr, PostWarmup},
            &R::oracleTotalByCat},
           {{Oracle, "unnecessary_by_category", nullptr, PostWarmup},
            &R::oracleUnnecessaryByCat}});
    v(F{Oracle, "unnecessary_fraction", "oracle_unnecessary_fraction",
        Derived, 6},
      &R::oracleUnnecessaryFraction);

    v(F{Traffic, "avg_broadcasts_per_100k", "avg_bcast_per_100k",
        PostWarmup, 2},
      &R::avgBroadcastsPer100k);
    v(F{Traffic, "peak_broadcasts_per_100k", "peak_bcast_per_100k", Peak, 2},
      &R::peakBroadcastsPer100k);
    v(F{Memory, "l2_miss_ratio", "l2_miss_ratio", PostWarmup, 6},
      &R::l2MissRatio);
    v(F{Memory, "avg_miss_latency", "avg_miss_latency", PostWarmup, 2},
      &R::avgMissLatency);
    v(F{Traffic, "cache_to_cache", nullptr, PostWarmup}, &R::cacheToCache);
    v(F{Traffic, "memory_supplied", nullptr, PostWarmup},
      &R::memorySupplied);

    v(F{Rca, "evicted_empty", nullptr, WholeRun}, &R::rcaEvictedEmpty);
    v(F{Rca, "evicted_one", nullptr, WholeRun}, &R::rcaEvictedOne);
    v(F{Rca, "evicted_two", nullptr, WholeRun}, &R::rcaEvictedTwo);
    v(F{Rca, "evicted_more", nullptr, WholeRun}, &R::rcaEvictedMore);
    v(F{Rca, "self_invalidations", nullptr, WholeRun},
      &R::rcaSelfInvalidations);
    v(F{Rca, "inclusion_writebacks", nullptr, PostWarmup},
      &R::inclusionWritebacks);
    v(F{Rca, "avg_lines_per_evicted_region", nullptr, WholeRun},
      &R::avgLinesPerEvictedRegion);

    // node.miss_latency covers the post-warmup window; the rca.* entries
    // cover the whole run.
    v(F{Histograms, nullptr, nullptr, PerEntry}, &R::histograms);
    v(F{Distributions, nullptr, nullptr, WholeRun}, &R::distributions);

    v(F{Sampling, nullptr,
        "windows,window_ops,warm_mode,window_cycles_mean,"
        "window_cycles_ci95,avoided_fraction_ci95,l2_miss_ratio_ci95,"
        "avg_miss_latency_ci95,avg_bcast_per_100k_ci95",
        PostWarmup},
      &R::sampling);

    v(F{Interconnect, "topology", "topology", Label}, &R::topology);
    v(F{Interconnect, "nodes", "nodes", Label}, &R::nodes);
    v(F{Interconnect, "local_resolves", "local_resolves", PostWarmup},
      &R::localResolves);
    v(F{Interconnect, "interchip_broadcasts", "interchip_broadcasts",
        PostWarmup},
      &R::interChipBroadcasts);
}

} // namespace cgct
