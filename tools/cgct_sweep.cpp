/**
 * @file
 * cgct_sweep — run the full benchmark x configuration matrix in parallel
 * and emit one row per run (CSV or JSON), ready for plotting Figures
 * 7/8/10 with any tool. Rows are emitted in matrix order and are
 * byte-identical at any --jobs value (see docs/SWEEP.md).
 *
 *   cgct_sweep --ops 120000 --seeds 3 > sweep.csv
 *   cgct_sweep --benchmarks tpc-w,barnes --regions 512 --seeds 5
 *   cgct_sweep --jobs 8 --format json > sweep.json
 */

#include <unistd.h>

#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/argparse.hpp"
#include "common/config.hpp"
#include "common/log.hpp"
#include "sim/json_stats.hpp"
#include "sim/sweep.hpp"
#include "workload/benchmarks.hpp"

#include "run_flags.hpp"

using namespace cgct;

int
main(int argc, char **argv)
{
    std::string benchmarks = "all";
    std::string regions = "0,256,512,1024";
    RunFlags run;
    unsigned seeds = 3;
    std::uint64_t seed = 20050609;
    unsigned jobs = 0;
    std::string format = "csv";
    bool progress = false;
    bool no_progress = false;

    ArgParser parser("cgct_sweep",
                     "Run the benchmark x region-size matrix in parallel "
                     "and print one row per run (region 0 = baseline). "
                     "Output is deterministic: same seeds produce the "
                     "same rows at any --jobs value.");
    parser.addString("benchmarks", &benchmarks,
                     "comma-separated benchmark names, or 'all'");
    parser.addString("regions", &regions,
                     "comma-separated region sizes; 0 = baseline");
    run.add(parser);
    parser.addUnsigned("seeds", &seeds,
                       "seeds per configuration (one with --sample)");
    parser.addU64("seed", &seed, "base seed");
    parser.addUnsigned("jobs", &jobs,
                       "worker threads (0 = hardware concurrency)");
    parser.addString("format", &format, "output format: csv or json");
    parser.addFlag("progress", &progress,
                   "force live progress on stderr (default: only when "
                   "stderr is a terminal)");
    parser.addFlag("no-progress", &no_progress,
                   "suppress live progress on stderr");

    std::string error;
    if (!parser.parse(argc, argv, &error)) {
        std::fprintf(stderr, "cgct_sweep: %s (try --help)\n",
                     error.c_str());
        return 1;
    }
    if (parser.helpRequested()) {
        parser.printHelp(std::cout);
        return 0;
    }
    if (format != "csv" && format != "json") {
        std::fprintf(stderr,
                     "cgct_sweep: --format must be csv or json\n");
        return 1;
    }

    SweepSpec spec;
    if (benchmarks == "all") {
        for (const auto &p : standardBenchmarks())
            spec.profiles.push_back(&p);
    } else {
        for (const auto &name : splitList(benchmarks))
            spec.profiles.push_back(&benchmarkByName(name));
    }
    for (const auto &r : splitList(regions)) {
        const std::optional<std::uint64_t> bytes = parseU64(r);
        if (!bytes) {
            std::fprintf(stderr,
                         "cgct_sweep: bad region size '%s' in --regions "
                         "(try --help)\n",
                         r.c_str());
            return 1;
        }
        spec.regionSizes.push_back(*bytes);
    }
    // Refuse a sweep that would print only its header or all-zero rows.
    for (const auto &[refused, why] :
         {std::pair{seeds == 0, "--seeds 0 runs nothing"},
          std::pair{spec.profiles.empty(), "--benchmarks names no benchmark"},
          std::pair{spec.regionSizes.empty(),
                    "--regions names no region size"}}) {
        if (refused) {
            std::fprintf(stderr, "cgct_sweep: %s\n", why);
            return 1;
        }
    }
    if (!run.validate("cgct_sweep"))
        return 1;
    spec.seedsPerCell = seeds;
    spec.baseSeed = seed;
    spec.opts.opsPerCpu = run.ops;
    spec.opts.warmupOps = run.warmupFor(run.ops);
    spec.baseConfig = makeDefaultConfig();
    run.configure(spec.baseConfig);
    spec.baseConfig.validate();
    // Every cell's configuration, before the CSV header goes out.
    for (std::uint64_t bytes : spec.regionSizes)
        if (bytes)
            spec.baseConfig.withCgct(bytes).validate();
    if (run.sample) {
        // A sampled sweep draws its confidence interval from the
        // windows within one run, not from seed repetition: one cell
        // per (benchmark, region), first link of the usual seed chain.
        if (parser.given("seeds") && seeds != 1)
            warnOnce("sweep-sample-seeds", "cgct_sweep",
                     "--seeds %llu ignored: --sample draws confidence "
                     "from measurement windows, so each cell runs one "
                     "seed (docs/SAMPLING.md)",
                     static_cast<unsigned long long>(seeds));
        spec.seedsPerCell = 1;
        spec.sampling = run.sampling();
    }

    const bool show_progress =
        !no_progress && (progress || isatty(STDERR_FILENO));

    SweepRunner runner(spec, jobs);
    if (show_progress)
        std::fprintf(stderr, "cgct_sweep: %zu runs on %u threads\n",
                     runner.cells().size(), runner.jobs());

    SweepRunner::ProgressFn on_progress;
    if (show_progress) {
        on_progress = [](std::size_t done, std::size_t total,
                         const SweepCell &cell) {
            // One fprintf call per event keeps concurrent lines whole.
            std::fprintf(stderr,
                         "cgct_sweep: [%zu/%zu] %s region=%llu "
                         "seed=%llu\n",
                         done, total, cell.profile->name.c_str(),
                         static_cast<unsigned long long>(
                             cell.regionBytes),
                         static_cast<unsigned long long>(cell.seed));
        };
    }

    if (format == "csv") {
        const bool sampled = spec.sampling.windows != 0;
        // The historical 4-node flat-bus CSV stays byte-identical; any
        // non-default --nodes/--topology appends the topology columns.
        const bool topo_cols =
            spec.baseConfig.interconnect.topology != TopologyKind::Bus ||
            run.nodes != 4;
        writeSweepCsvHeader(std::cout, sampled, topo_cols);
        // Stream each row as soon as every earlier row is out.
        runner.run(
            [sampled, topo_cols](const SweepCell &, const RunResult &r) {
                writeSweepCsvRow(std::cout, r, sampled, topo_cols);
                std::cout.flush();
            },
            on_progress);
    } else {
        std::cout << toJson(runner.run({}, on_progress));
    }
    return 0;
}
