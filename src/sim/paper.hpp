/**
 * @file
 * The paper's tables and figures as data. Each Table names the sweeps it
 * reads (configuration variants over the nine Table 4 profiles or a set
 * of its own, with their region sizes, seeds and run length), renders
 * its rows as the markdown EXPERIMENTS.md holds between
 * `<!-- cgct_paper NAME -->` and `<!-- /cgct_paper -->`, and checks the
 * paper claims those rows bear on. tools/cgct_paper prints the blocks;
 * test_sweep_identity checks the Figure 2/7/8/10 blocks and claims on the
 * frozen default sweep, and the §5.1 block on its own runs.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "sim/energy.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "workload/profile.hpp"

namespace cgct::paper {

/** One sweep a table reads: a set of profiles under one configuration. */
struct Sweep {
    /** How each cell runs. */
    enum class Cell : std::uint8_t {
        Run,          ///< simulateOnce.
        Energy,       ///< Whole run through System, then computeEnergy.
        RegionScout,  ///< Whole run with RegionScout trackers (A4).
    };

    SystemConfig config;                  ///< CGCT cells use withCgct().
    /** Empty = the nine Table 4 profiles (standardBenchmarks()). */
    std::vector<WorkloadProfile> profiles;
    std::vector<std::uint64_t> regions;   ///< 0 = baseline.
    unsigned seeds = 1;                   ///< Links of the seed chain.
    std::uint64_t ops = 120000;
    std::uint64_t warmup = 24000;         ///< Ignored by whole-run cells.
    Cell cell = Cell::Run;
};

/** A finished sweep, its results in SweepSpec::expand order. */
struct SweepData {
    Sweep sweep;
    std::vector<RunResult> runs;
    std::vector<EnergyBreakdown> energy;  ///< Per run; Cell::Energy only.

    /** Position of (profile, region, seed) in runs. */
    std::size_t index(std::size_t profile, std::uint64_t region,
                      unsigned seed = 0) const;
    const RunResult &
    at(std::size_t profile, std::uint64_t region, unsigned seed = 0) const
    {
        return runs[index(profile, region, seed)];
    }
    /** @p metric over the seeds of one (profile, region) cell. */
    RunSummary summary(std::size_t profile, std::uint64_t region,
                       const std::function<double(const RunResult &)>
                           &metric) const;
    double
    mean(std::size_t profile, std::uint64_t region,
         const std::function<double(const RunResult &)> &metric) const
    {
        return summary(profile, region, metric).mean;
    }
};

/** A paper claim checked against measured rows. */
struct Claim {
    const char *name;   ///< Stable id, reported by tests.
    bool bound;         ///< 🟡 a pinned deviation; otherwise ✅ a shape.
    std::string text;   ///< The claim with the measured values.
    bool holds;
};

/** The sweeps of one table, in Table::sweeps order. */
using Data = std::vector<const SweepData *>;

/** One table or figure of EXPERIMENTS.md. */
struct Table {
    const char *name;            ///< Marker and command-line name.
    std::vector<Sweep> sweeps;   ///< Empty for analytic tables.
    std::string (*render)(const Data &data);
    std::vector<Claim> (*claims)(const Data &data);  ///< May be null.
};

/** Every table, in EXPERIMENTS.md order. */
const std::vector<Table> &tables();

/** The table named @p name, or nullptr. */
const Table *findTable(std::string_view name);

/** The SweepSpec whose cells a Sweep reads. */
SweepSpec toSpec(const Sweep &sweep);

/** Run one sweep through SweepRunner on @p jobs threads. */
SweepData runSweep(const Sweep &sweep, unsigned jobs);

/**
 * A table's block as EXPERIMENTS.md holds it between its markers: the
 * rows and one ✅/🟡 line per claim, ❌ when the claim fails, which also
 * clears @p claims_hold (may be null).
 */
std::string renderBlock(const Table &table, const Data &data,
                        bool *claims_hold = nullptr);

} // namespace cgct::paper
