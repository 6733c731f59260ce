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

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
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
#include "snapshot/journal.hpp"
#include "workload/benchmarks.hpp"

using namespace cgct;

namespace {

/** Exit code for "interrupted but resumable" (BSD EX_TEMPFAIL), so
 *  scripts can tell a clean stop with a valid journal from a failure. */
constexpr int kExitResumable = 75;

volatile std::sig_atomic_t g_stop = 0;

extern "C" void
onStopSignal(int)
{
    g_stop = 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string benchmarks = "all";
    std::string regions = "0,256,512,1024";
    std::uint64_t ops = 120000;
    std::uint64_t warmup = 0;
    unsigned seeds = 3;
    std::uint64_t seed = 20050609;
    unsigned jobs = 0;
    std::string format = "csv";
    bool progress = false;
    bool no_progress = false;
    std::string resume_path;
    std::uint64_t sample = 0;
    std::uint64_t window_ops = 1000;
    std::string warm_mode = "functional";
    unsigned nodes = 4;
    std::string topology = "bus";

    ArgParser parser("cgct_sweep",
                     "Run the benchmark x region-size matrix in parallel "
                     "and print one row per run (region 0 = baseline). "
                     "Output is deterministic: same seeds produce the "
                     "same rows at any --jobs value.");
    parser.addString("benchmarks", &benchmarks,
                     "comma-separated benchmark names, or 'all'");
    parser.addString("regions", &regions,
                     "comma-separated region sizes; 0 = baseline");
    parser.addU64("ops", &ops, "ops per processor per run");
    parser.addU64("warmup", &warmup, "warmup ops (0 = ops/5)");
    parser.addUnsigned("seeds", &seeds, "seeds per configuration");
    parser.addU64("seed", &seed, "base seed");
    parser.addUnsigned("jobs", &jobs,
                       "worker threads (0 = hardware concurrency)");
    parser.addString("format", &format, "output format: csv or json");
    parser.addFlag("progress", &progress,
                   "force live progress on stderr (default: only when "
                   "stderr is a terminal)");
    parser.addFlag("no-progress", &no_progress,
                   "suppress live progress on stderr");
    parser.addString("resume", &resume_path,
                     "crash-safe resume journal (docs/SNAPSHOT.md): "
                     "completed cells are recorded here and skipped on "
                     "restart; SIGINT/SIGTERM stop cleanly with exit "
                     "code 75");
    parser.addU64("sample", &sample,
                  "statistical sampling: each cell measures N detailed "
                  "windows after fast-forward warming instead of a full "
                  "run, and the CSV/JSON rows gain 95% CI columns "
                  "(docs/SAMPLING.md); forces --seeds 1");
    parser.addU64("window-ops", &window_ops,
                  "detailed ops per CPU in each sampled window");
    parser.addString("warm-mode", &warm_mode,
                     "state warming between windows: functional (fast) "
                     "or detailed (reference)");
    parser.addUnsigned("nodes", &nodes,
                       "processors per run (4, 16, 64, ... up to 64; "
                       "docs/TOPOLOGY.md); non-default values append "
                       "topology columns to the CSV");
    parser.addString("topology", &topology,
                     "interconnect organization: bus (flat broadcast), "
                     "hier (two-level snoop hierarchy) or dir (full-map "
                     "directory); see docs/TOPOLOGY.md");

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
          std::pair{ops == 0, "--ops 0 runs nothing"},
          std::pair{spec.profiles.empty(), "--benchmarks names no benchmark"},
          std::pair{spec.regionSizes.empty(),
                    "--regions names no region size"}}) {
        if (refused) {
            std::fprintf(stderr, "cgct_sweep: %s\n", why);
            return 1;
        }
    }
    spec.seedsPerCell = seeds;
    spec.baseSeed = seed;
    spec.opts.opsPerCpu = ops;
    spec.opts.warmupOps = warmup ? warmup : ops / 5;
    spec.baseConfig = makeDefaultConfig();
    TopologyKind topo_kind = TopologyKind::Bus;
    if (!parseTopologyKind(topology, &topo_kind)) {
        std::fprintf(stderr,
                     "cgct_sweep: --topology must be bus, hier or dir\n");
        return 1;
    }
    spec.baseConfig.topology.numCpus = nodes;
    spec.baseConfig.interconnect.topology = topo_kind;
    WarmMode wmode = WarmMode::Functional;
    if (!parseWarmMode(warm_mode, &wmode)) {
        std::fprintf(stderr, "cgct_sweep: --warm-mode must be "
                             "functional or detailed\n");
        return 1;
    }
    spec.baseConfig.validate();
    // Every cell's configuration, before the CSV header goes out.
    for (std::uint64_t bytes : spec.regionSizes)
        if (bytes)
            spec.baseConfig.withCgct(bytes).validate();
    if (sample) {
        // The windows of every cell, before the CSV header goes out.
        const std::uint64_t span = ops > spec.opts.warmupOps
                                       ? ops - spec.opts.warmupOps
                                       : 0;
        if (window_ops == 0) {
            std::fprintf(stderr,
                         "cgct_sweep: --window-ops must be >= 1\n");
            return 1;
        }
        if (window_ops > span / sample) {
            std::fprintf(stderr,
                         "cgct_sweep: --sample %llu windows of "
                         "--window-ops %llu do not fit in the %llu "
                         "post-warmup ops\n",
                         static_cast<unsigned long long>(sample),
                         static_cast<unsigned long long>(window_ops),
                         static_cast<unsigned long long>(span));
            return 1;
        }
        // A sampled sweep draws its confidence interval from the
        // windows within one run, not from seed repetition: one cell
        // per (benchmark, region), first link of the usual seed chain.
        if (seeds != 1)
            warnOnce("sweep-sample-seeds", "cgct_sweep",
                     "--seeds %llu ignored: --sample draws confidence "
                     "from measurement windows, so each cell runs one "
                     "seed (docs/SAMPLING.md)",
                     static_cast<unsigned long long>(seeds));
        spec.seedsPerCell = 1;
        spec.sampled = true;
        spec.sampling.windows = sample;
        spec.sampling.windowOps = window_ops;
        spec.sampling.warmMode = wmode;
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

    // Crash-safe resume: journal every completed cell, skip journaled
    // cells on restart, and turn SIGINT/SIGTERM into a clean stop that
    // leaves the journal valid (exit 75 = interrupted-but-resumable).
    SweepJournal journal;
    SweepRunner::ResumeHooks hooks;
    std::uint64_t crash_after = 0;
    if (!resume_path.empty()) {
        std::signal(SIGINT, onStopSignal);
        std::signal(SIGTERM, onStopSignal);
        const std::string err =
            journal.open(resume_path, sweepFingerprint(spec));
        if (!err.empty()) {
            std::fprintf(stderr, "cgct_sweep: %s\n", err.c_str());
            return 1;
        }
        if (show_progress && !journal.completed().empty())
            std::fprintf(stderr,
                         "cgct_sweep: resuming — %zu/%zu cells already "
                         "journaled\n",
                         journal.completed().size(),
                         runner.cells().size());
        // Test hook: crash hard (no journal flush beyond what append
        // already fsync'd) after N fresh cells, to exercise recovery
        // (tools/snapshot_resume_test.sh).
        if (const char *env =
                std::getenv("CGCT_TEST_CRASH_AFTER_CELLS"))
            crash_after = std::strtoull(env, nullptr, 10);
        hooks.cached = &journal.completed();
        hooks.stopRequested = [] { return g_stop != 0; };
        hooks.onCompleted = [&journal, crash_after](const SweepCell &cell,
                                                    const RunResult &r) {
            journal.append(cell.index, r);
            if (crash_after && journal.appendCount() >= crash_after)
                _exit(86);
        };
    }

    SweepOutcome outcome;
    if (format == "csv") {
        const bool sampled = spec.sampled;
        // The historical 4-node flat-bus CSV stays byte-identical; any
        // non-default --nodes/--topology appends the topology columns.
        const bool topo_cols =
            topo_kind != TopologyKind::Bus || nodes != 4;
        writeSweepCsvHeader(std::cout, sampled, topo_cols);
        // Stream each row as soon as every earlier row is out.
        outcome = runner.runResumable(
            hooks,
            [sampled, topo_cols](const SweepCell &, const RunResult &r) {
                writeSweepCsvRow(std::cout, r, sampled, topo_cols);
                std::cout.flush();
            },
            on_progress);
    } else {
        outcome = runner.runResumable(hooks, {}, on_progress);
        if (!outcome.interrupted)
            std::cout << toJson(outcome.results);
    }

    if (outcome.interrupted) {
        std::fprintf(stderr,
                     "cgct_sweep: interrupted — %zu/%zu cells journaled; "
                     "rerun with --resume %s to finish\n",
                     outcome.completedCells, outcome.total,
                     resume_path.c_str());
        return kExitResumable;
    }
    return 0;
}
