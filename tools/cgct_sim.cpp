/**
 * @file
 * cgct_sim — the command-line simulator driver. Runs any benchmark (or a
 * recorded trace) on a configurable system, baseline or CGCT, and prints
 * a human-readable summary, the full component statistics, or JSON.
 *
 *   cgct_sim ocean --region 512 --ops 20000 --seed 1730938251562416563
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
#include <vector>

#include "common/argparse.hpp"
#include "common/log.hpp"
#include "common/config.hpp"
#include "common/trace_sink.hpp"
#include "sim/json_stats.hpp"
#include "sim/sampling.hpp"
#include "sim/simulator.hpp"
#include "snapshot/snapshot.hpp"
#include "workload/benchmarks.hpp"
#include "workload/trace.hpp"

#include "run_flags.hpp"

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
    RunFlags run;
    // The first seed of cgct_sweep's chain, so a default run is the first
    // row of a default sweep cell.
    std::uint64_t seed = nextSweepSeed(20050609);
    unsigned jobs = 0;
    unsigned rca_sets = 8192;
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
    parser.addUnsigned("rca-sets", &rca_sets, "RCA sets (2-way)");
    parser.addFlag("three-state", &three_state,
                   "use the scaled-back 3-state protocol (paper 3.4)");
    parser.addFlag("no-self-invalidation", &no_self_inval,
                   "disable line-count self-invalidation");
    parser.addFlag("no-favor-empty", &no_favor_empty,
                   "plain-LRU RCA replacement");
    parser.addFlag("shared-rca", &shared_rca,
                   "one RCA per chip shared by its cores (paper 3.2)");
    parser.addFlag("dma", &dma, "enable I/O-bridge DMA traffic");
    run.add(parser);
    parser.addU64("seed", &seed,
                  "random seed of the run, used as given (a cgct_sweep "
                  "row's seed reproduces that row)");
    parser.addUnsigned("jobs", &jobs,
                       "with --sample, the window workers (0 = hardware "
                       "concurrency, 1 = serial)");
    parser.addString("replay", &replay_path,
                     "replay this recorded trace file instead of a "
                     "benchmark (docs/TRACE_FORMAT.md)");
    parser.addString("capture", &capture_path,
                     "record every op the run consumes to this v2 trace "
                     "file; replaying it reproduces the run's statistics "
                     "byte-for-byte");
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
    // A replay's length is the trace's, so --ops does not apply to it.
    if (!run.validate("cgct_sim", !replay_path.empty()))
        return 1;

    SystemConfig config = makeDefaultConfig();
    run.configure(config);
    if (!baseline) {
        config = config.withCgct(region, rca_sets, 2);
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
    opts.opsPerCpu = run.ops;
    // A replay's op count is the trace's, not --ops: derive the default
    // warmup from the header so a capture replays to the live stats.
    opts.warmupOps = run.warmupFor(
        replay_path.empty() ? run.ops
                            : readTraceInfo(replay_path).opsDeclared);
    opts.seed = seed;
    opts.capturePath = capture_path;

    const bool checkpointing =
        checkpoint_every || !checkpoint_path.empty() ||
        !restore_path.empty();
    if (!capture_path.empty() && (!replay_path.empty() || checkpointing)) {
        std::fprintf(stderr, "cgct_sim: --capture records a live run from "
                             "its first op; it does not combine with "
                             "--replay or checkpoint/restore\n");
        return 1;
    }
    if (run.sample &&
        (!replay_path.empty() || checkpointing || !capture_path.empty() ||
         !trace_out.empty() || stats || dma)) {
        std::fprintf(stderr,
                     "cgct_sim: --sample is a live generated run; it "
                     "does not combine with --replay, checkpoint/restore, "
                     "--capture, --trace, --stats or --dma "
                     "(docs/SAMPLING.md)\n");
        return 1;
    }
    if (!checkpoint_path.empty() && !checkpoint_every &&
        restore_path.empty()) {
        std::fprintf(stderr, "cgct_sim: --checkpoint needs "
                             "--checkpoint-every to know where to drain\n");
        return 1;
    }

    // Replays and generated runs share one harness; a replay's stream is
    // the trace's.
    const CheckpointOptions ckpt{checkpoint_every, checkpoint_path,
                                 restore_path};
    std::ostream *stats_out = stats ? &std::cout : nullptr;
    RunResult result;
    if (!replay_path.empty()) {
        result =
            simulateCheckpointed(config, replay_path, opts, ckpt, stats_out);
    } else if (run.sample) {
        SamplingOptions sopts = run.sampling();
        sopts.jobs = jobs;
        result = simulateSampled(config, benchmarkByName(benchmark), opts,
                                 sopts);
    } else {
        result = simulateCheckpointed(config, benchmarkByName(benchmark),
                                      opts, ckpt, stats_out);
    }

    if (!trace_out.empty()) {
        if (!result.trace)
            fatal("run produced no trace to write to %s", trace_out.c_str());
        std::ofstream os(trace_out);
        if (!os)
            fatal("cannot open trace output file %s", trace_out.c_str());
        if (trace_format == "chrome")
            TraceSink::writeChromeTrace(*result.trace, os);
        else
            TraceSink::writeJsonl(*result.trace, os);
    }

    if (json) {
        std::cout << toJson(std::vector<RunResult>{result});
        return 0;
    }
    printSummary(result);
    std::printf("\n");
    return 0;
}
