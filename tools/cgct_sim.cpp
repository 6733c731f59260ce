/**
 * @file
 * cgct_sim — the command-line simulator driver. Runs any benchmark (or a
 * recorded trace) on a configurable system, baseline or CGCT, and prints
 * a human-readable summary, the full component statistics, or JSON.
 *
 *   cgct_sim tpc-w --region 512 --seeds 3
 *   cgct_sim barnes --baseline --stats
 *   cgct_sim --replay run.trace --region 1024 --json
 *   cgct_sim ocean --trace ocean.jsonl --trace-format jsonl
 *   cgct_sim tpc-w --check-invariants
 *   cgct_sim --list
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "common/argparse.hpp"
#include "common/log.hpp"
#include "common/config.hpp"
#include "common/trace_sink.hpp"
#include "sim/json_stats.hpp"
#include "sim/sampling.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "snapshot/snapshot.hpp"
#include "workload/benchmarks.hpp"
#include "workload/trace.hpp"

using namespace cgct;

namespace {

void
printSummary(const RunResult &r)
{
    std::printf("workload            %s\n", r.workload.c_str());
    std::printf("region size         %s\n",
                r.regionBytes ? (std::to_string(r.regionBytes) + " B")
                                    .c_str()
                              : "(baseline: CGCT off)");
    std::printf("runtime             %llu cycles\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("instructions        %llu (IPC %.2f over %u CPUs)\n",
                static_cast<unsigned long long>(r.instructions),
                r.cycles ? static_cast<double>(r.instructions) /
                               static_cast<double>(r.cycles)
                         : 0.0,
                r.nodes);
    std::printf("system requests     %llu = %llu broadcast + %llu direct "
                "+ %llu local\n",
                static_cast<unsigned long long>(r.requestsTotal),
                static_cast<unsigned long long>(r.broadcasts),
                static_cast<unsigned long long>(r.directs),
                static_cast<unsigned long long>(r.locals));
    std::printf("avoided broadcasts  %.1f%% of requests\n",
                100.0 * r.avoidedFraction());
    std::printf("oracle unnecessary  %.1f%% of broadcasts\n",
                100.0 * r.oracleUnnecessaryFraction());
    std::printf("L2 miss ratio       %.2f%%\n", 100.0 * r.l2MissRatio);
    std::printf("avg miss latency    %.1f cycles\n", r.avgMissLatency);
    std::printf("broadcast traffic   %.0f avg / %.0f peak per 100K "
                "cycles\n",
                r.avgBroadcastsPer100k, r.peakBroadcastsPer100k);
    if (r.topology != "bus") {
        const std::uint64_t total = r.localResolves +
                                    r.interChipBroadcasts;
        std::printf("interconnect        %s, %u nodes: %llu local / %llu "
                    "inter-chip (%.1f%% stayed on chip)\n",
                    r.topology.c_str(), r.nodes,
                    static_cast<unsigned long long>(r.localResolves),
                    static_cast<unsigned long long>(
                        r.interChipBroadcasts),
                    total ? 100.0 * static_cast<double>(r.localResolves) /
                                static_cast<double>(total)
                          : 0.0);
    }
    if (r.sampling) {
        const SamplingInfo &s = *r.sampling;
        std::printf("sampled             %llu windows x %llu ops, %s "
                    "warming (%.1f%% of the %llu-op span in detail)\n",
                    static_cast<unsigned long long>(s.windows),
                    static_cast<unsigned long long>(s.windowOps),
                    s.warmMode.c_str(),
                    100.0 / s.scale,
                    static_cast<unsigned long long>(s.spanOps));
        std::printf("  window cycles     %.0f +- %.0f (95%% CI)\n",
                    s.cycles.mean, s.cycles.ci95Half);
        std::printf("  miss latency      %.1f +- %.1f cycles\n",
                    s.avgMissLatency.mean, s.avgMissLatency.ci95Half);
        std::printf("  L2 miss ratio     %.2f%% +- %.2f%%\n",
                    100.0 * s.l2MissRatio.mean,
                    100.0 * s.l2MissRatio.ci95Half);
        std::printf("  avoided fraction  %.1f%% +- %.1f%%\n",
                    100.0 * s.avoidedFraction.mean,
                    100.0 * s.avoidedFraction.ci95Half);
        std::printf("  broadcasts/100k   %.0f +- %.0f\n",
                    s.avgBroadcastsPer100k.mean,
                    s.avgBroadcastsPer100k.ci95Half);
    }
}

void
writeTrace(const RunResult &r, const std::string &path,
           const std::string &format)
{
    if (!r.trace)
        fatal("run produced no trace to write to %s", path.c_str());
    std::ofstream os(path);
    if (!os)
        fatal("cannot open trace output file %s", path.c_str());
    if (format == "chrome")
        TraceSink::writeChromeTrace(*r.trace, os);
    else
        TraceSink::writeJsonl(*r.trace, os);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string benchmark = "tpc-w";
    std::uint64_t region = 512;
    bool baseline = false;
    bool three_state = false;
    bool no_self_inval = false;
    bool no_favor_empty = false;
    bool shared_rca = false;
    bool dma = false;
    std::uint64_t ops = 120000;
    std::uint64_t warmup = 0;
    std::uint64_t seeds = 1;
    std::uint64_t seed = 20050609;
    std::uint64_t jobs = 0;
    std::uint64_t nodes = 4;
    std::string topology = "bus";
    std::uint64_t rca_sets = 8192;
    bool json = false;
    bool stats = false;
    bool list = false;
    bool check_invariants = false;
    std::string replay_path;
    std::string capture_path;
    std::string trace_out;
    std::string trace_format = "jsonl";
    std::uint64_t checkpoint_every = 0;
    std::string checkpoint_path;
    std::string restore_path;
    std::uint64_t sample = 0;
    std::uint64_t window_ops = 1000;
    std::string warm_mode = "functional";
    double ci_target = 0.0;
    std::uint64_t max_windows = 64;

    ArgParser parser(
        "cgct_sim",
        "Run one of the paper's workloads (or a recorded trace) on the "
        "four-processor Fireplane-like system, with or without "
        "Coarse-Grain Coherence Tracking.");
    parser.addPositional("benchmark", &benchmark,
                         "benchmark name (see --list); default tpc-w");
    parser.addFlag("list", &list, "list available benchmarks and exit");
    parser.addFlag("baseline", &baseline, "disable CGCT");
    parser.addU64("region", &region, "region size in bytes (256/512/1024)");
    parser.addU64("rca-sets", &rca_sets, "RCA sets (2-way)");
    parser.addFlag("three-state", &three_state,
                   "use the scaled-back 3-state protocol (paper 3.4)");
    parser.addFlag("no-self-invalidation", &no_self_inval,
                   "disable line-count self-invalidation");
    parser.addFlag("no-favor-empty", &no_favor_empty,
                   "plain-LRU RCA replacement");
    parser.addFlag("shared-rca", &shared_rca,
                   "one RCA per chip shared by its cores (paper 3.2)");
    parser.addFlag("dma", &dma, "enable I/O-bridge DMA traffic");
    parser.addU64("nodes", &nodes,
                  "number of processors (docs/TOPOLOGY.md)");
    parser.addString("topology", &topology,
                     "interconnect organization: bus (flat broadcast), "
                     "hier (two-level snoop hierarchy) or dir (full-map "
                     "directory); see docs/TOPOLOGY.md");
    parser.addU64("ops", &ops, "memory operations per processor");
    parser.addU64("warmup", &warmup,
                  "warmup ops per processor (0 = ops/5; with --replay, "
                  "the trace header's declared ops/5)");
    parser.addU64("seeds", &seeds, "runs (seeds) to average");
    parser.addU64("seed", &seed, "base random seed");
    parser.addU64("jobs", &jobs,
                  "worker threads for multi-seed runs, and with --sample "
                  "the window workers (0 = hardware concurrency, 1 = "
                  "serial)");
    parser.addString("replay", &replay_path,
                     "replay this recorded trace file instead of a "
                     "benchmark (docs/TRACE_FORMAT.md)");
    parser.addString("capture", &capture_path,
                     "record every op the run consumes to this v2 trace "
                     "file; replaying it reproduces the run's statistics "
                     "byte-for-byte (requires --seeds 1)");
    parser.addString("trace", &trace_out,
                     "write a structured event trace of the run to this "
                     "path (see docs/TRACING.md)");
    parser.addString("trace-format", &trace_format,
                     "trace output format: jsonl (default) or chrome");
    parser.addU64("checkpoint-every", &checkpoint_every,
                  "drain and checkpoint every N ops per CPU (see "
                  "docs/SNAPSHOT.md); the drain schedule is part of the "
                  "experiment, so pass the same value when restoring");
    parser.addString("checkpoint", &checkpoint_path,
                     "write each checkpoint to PATH.<ops> (requires "
                     "--checkpoint-every)");
    parser.addString("restore", &restore_path,
                     "restore from this snapshot and run to the end; "
                     "refuses snapshots from a different configuration");
    parser.addU64("sample", &sample,
                  "statistical sampling: fast-forward under --warm-mode "
                  "and measure N detailed windows with 95% CIs "
                  "(docs/SAMPLING.md); 0 = full-detail run");
    parser.addU64("window-ops", &window_ops,
                  "detailed ops per CPU in each sampled window");
    parser.addString("warm-mode", &warm_mode,
                     "state warming between windows: functional (fast) "
                     "or detailed (reference)");
    parser.addDouble("ci-target", &ci_target,
                     "adaptive sampling: double the window count until "
                     "every headline metric's relative 95% CI half-width "
                     "is <= this (e.g. 0.05); 0 = fixed --sample count");
    parser.addU64("max-windows", &max_windows,
                  "hard cap on the adaptive window count for "
                  "--ci-target");
    parser.addFlag("check-invariants", &check_invariants,
                   "cross-check region state against cache contents at "
                   "every ordering point");
    parser.addFlag("json", &json, "print results as JSON");
    parser.addFlag("stats", &stats, "dump full component statistics");

    std::string error;
    if (!parser.parse(argc, argv, &error)) {
        std::fprintf(stderr, "cgct_sim: %s (try --help)\n", error.c_str());
        return 1;
    }
    if (parser.helpRequested()) {
        parser.printHelp(std::cout);
        return 0;
    }
    if (list) {
        for (const auto &p : standardBenchmarks())
            std::printf("%-16s %s\n", p.name.c_str(),
                        p.description.c_str());
        return 0;
    }
    // A run that measures nothing is refused; a replay's length is the
    // trace's, so --ops does not apply to it.
    if (seeds == 0 || (ops == 0 && replay_path.empty())) {
        std::fprintf(stderr, "cgct_sim: %s 0 runs nothing\n",
                     seeds == 0 ? "--seeds" : "--ops");
        return 1;
    }

    SystemConfig config = makeDefaultConfig();
    config.topology.numCpus = static_cast<unsigned>(nodes);
    if (!parseTopologyKind(topology, &config.interconnect.topology)) {
        std::fprintf(stderr,
                     "cgct_sim: --topology must be bus, hier or dir\n");
        return 1;
    }
    if (!baseline) {
        config = config.withCgct(region,
                                 static_cast<unsigned>(rca_sets), 2);
        config.cgct.threeStateProtocol = three_state;
        config.cgct.selfInvalidation = !no_self_inval;
        config.cgct.favorEmptyRegions = !no_favor_empty;
        config.cgct.sharedPerChip = shared_rca;
    }
    config.dma.enabled = dma;
    if (trace_format != "jsonl" && trace_format != "chrome") {
        std::fprintf(stderr,
                     "cgct_sim: --trace-format must be jsonl or chrome\n");
        return 1;
    }
    config.obs.trace = !trace_out.empty();
    config.obs.checkInvariants = check_invariants;
    config.validate();

    RunOptions opts;
    opts.opsPerCpu = ops;
    // A replay's op count is the trace's, not --ops: derive the default
    // warmup from the header so a capture replays to the live stats.
    const std::uint64_t ops_for_warmup =
        replay_path.empty() ? ops : readTraceInfo(replay_path).opsDeclared;
    opts.warmupOps = warmup ? warmup : ops_for_warmup / 5;
    opts.seed = seed;
    opts.capturePath = capture_path;

    if (!capture_path.empty()) {
        if (!replay_path.empty()) {
            std::fprintf(stderr, "cgct_sim: --capture records a live "
                                 "run; it cannot combine with "
                                 "--replay\n");
            return 1;
        }
        if (seeds != 1) {
            std::fprintf(stderr, "cgct_sim: --capture writes one trace "
                                 "file, so it requires --seeds 1\n");
            return 1;
        }
    }

    WarmMode wmode = WarmMode::Functional;
    if (!parseWarmMode(warm_mode, &wmode)) {
        std::fprintf(stderr, "cgct_sim: --warm-mode must be functional "
                             "or detailed\n");
        return 1;
    }

    const bool checkpointing =
        checkpoint_every || !checkpoint_path.empty() ||
        !restore_path.empty();
    if (stats && replay_path.empty() && (seeds != 1 || sample)) {
        std::fprintf(stderr, "cgct_sim: --stats dumps the statistics of "
                             "one full-detail run, so it requires --seeds "
                             "1 and no --sample\n");
        return 1;
    }
    if (sample) {
        if (!replay_path.empty() || checkpointing ||
            !capture_path.empty() || !trace_out.empty() || dma) {
            std::fprintf(stderr,
                         "cgct_sim: --sample is a live generated run; it "
                         "does not combine with --replay, "
                         "checkpoint/restore, --capture, --trace or "
                         "--dma (docs/SAMPLING.md)\n");
            return 1;
        }
        if (seeds != 1) {
            std::fprintf(stderr, "cgct_sim: --sample draws its CI from "
                                 "the windows of one run, so it "
                                 "requires --seeds 1\n");
            return 1;
        }
    }
    if (checkpointing) {
        if (!capture_path.empty()) {
            std::fprintf(stderr, "cgct_sim: --capture does not combine "
                                 "with checkpoint/restore\n");
            return 1;
        }
        if (seeds != 1) {
            std::fprintf(stderr, "cgct_sim: checkpoint/restore requires "
                                 "--seeds 1 (one run, one state)\n");
            return 1;
        }
        if (!checkpoint_path.empty() && !checkpoint_every &&
            restore_path.empty()) {
            std::fprintf(stderr, "cgct_sim: --checkpoint needs "
                                 "--checkpoint-every to know where to "
                                 "drain\n");
            return 1;
        }
    }

    // Replays and generated single runs share one harness; the seed of a
    // generated run is the first link of the --seeds chain, so it is the
    // same experiment as the first run of `--seeds N`. A replay's stream
    // is the trace's.
    const CheckpointOptions ckpt{checkpoint_every, checkpoint_path,
                                 restore_path};
    std::ostream *stats_out = stats ? &std::cout : nullptr;
    std::vector<RunResult> results;
    if (!replay_path.empty()) {
        results.push_back(
            simulateCheckpointed(config, replay_path, opts, ckpt, stats_out));
    } else if (sample) {
        opts.seed = nextSweepSeed(opts.seed);
        SamplingOptions sopts;
        sopts.windows = sample;
        sopts.windowOps = window_ops;
        sopts.warmMode = wmode;
        sopts.jobs = static_cast<unsigned>(jobs);
        sopts.ciTarget = ci_target;
        sopts.maxWindows = max_windows;
        results.push_back(simulateSampled(
            config, benchmarkByName(benchmark), opts, sopts));
    } else if (seeds == 1) {
        opts.seed = nextSweepSeed(opts.seed);
        results.push_back(simulateCheckpointed(
            config, benchmarkByName(benchmark), opts, ckpt, stats_out));
    } else {
        results = simulateSeeds(config, benchmarkByName(benchmark), opts,
                                static_cast<unsigned>(seeds),
                                static_cast<unsigned>(jobs));
    }

    if (!trace_out.empty()) {
        // One file per run: the plain path for a single run, .N suffixes
        // for multi-seed batches.
        if (results.size() == 1) {
            writeTrace(results[0], trace_out, trace_format);
        } else {
            for (std::size_t i = 0; i < results.size(); ++i)
                writeTrace(results[i],
                           trace_out + "." + std::to_string(i),
                           trace_format);
        }
    }

    if (json) {
        std::cout << toJson(results);
        return 0;
    }

    for (const auto &r : results) {
        printSummary(r);
        std::printf("\n");
    }
    if (results.size() > 1) {
        const RunSummary s = runtimeSummary(results);
        std::printf("runtime over %zu seeds: mean %.0f cycles "
                    "(95%% CI ±%.0f)\n",
                    results.size(), s.mean, s.ci95Half);
    }
    return 0;
}
