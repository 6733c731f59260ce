/**
 * @file
 * cgct_pgo_train — the fixed training run of the profile-guided Release
 * build (docs/PERF.md, "Profile-guided build"). Linked against the
 * instrumented twin of libcgct, it writes the counts the real library is
 * compiled against; linked against libcgct itself, it is the
 * `pgo_train_smoke` test that keeps this file building.
 *
 *   cgct_pgo_train <scratch-dir>
 *
 * The mix calls only the public entry points and uses seeds and sizes
 * that no benchmark job uses, so the profile is not fitted to the
 * measured jobs. Sampling runs at one job and there is no sweep pool,
 * but functional warming draws its ops on a second thread
 * (workload/op_feed.hpp). The twin counts with -fprofile-update=atomic,
 * and the feed keeps its waits out of the profile, so the counts, and
 * the order in which functions first ran, are the same on every build.
 */

#include <cstdio>
#include <string>

#include "common/config.hpp"
#include "sim/sampling.hpp"
#include "sim/simulator.hpp"
#include "workload/benchmarks.hpp"

using namespace cgct;

namespace {

/** Base of the training seed chain; no benchmark or sweep seed. */
constexpr std::uint64_t kTrainSeed = 0x50474f5452ULL;

RunOptions
trainOptions(std::uint64_t ops, std::uint64_t &seed)
{
    seed = nextSweepSeed(seed);
    RunOptions opts;
    opts.opsPerCpu = ops;
    opts.warmupOps = ops / 5;
    opts.seed = seed;
    return opts;
}

SystemConfig
topologyConfig(unsigned cpus, TopologyKind topology)
{
    SystemConfig c = makeDefaultConfig();
    c.topology.numCpus = cpus;
    c.interconnect.topology = topology;
    return c.withCgct(512);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: cgct_pgo_train <scratch-dir>\n");
        return 1;
    }
    const std::string trace_path =
        std::string(argv[1]) + "/cgct_pgo_train.trace";
    std::uint64_t seed = kTrainSeed;
    unsigned runs = 0;

    // The nine profiles on the 4-CPU bus, baseline and 512 B regions.
    const SystemConfig bus = makeDefaultConfig();
    const SystemConfig cgct = bus.withCgct(512);
    for (const WorkloadProfile &p : standardBenchmarks()) {
        simulateOnce(bus, p, trainOptions(30000, seed));
        simulateOnce(cgct, p, trainOptions(30000, seed));
        runs += 2;
    }

    // The two scalable interconnects at 16 CPUs.
    simulateOnce(topologyConfig(16, TopologyKind::Hier),
                 benchmarkByName("specjbb2000"), trainOptions(8000, seed));
    simulateOnce(topologyConfig(16, TopologyKind::Dir),
                 benchmarkByName("tpc-b"), trainOptions(8000, seed));
    runs += 2;

    // Functional warming with an in-memory checkpoint per window. It
    // comes after the full runs, so the feed's thread draws through
    // functions that have already run; the few it runs first (its own
    // loop, setPauseAt) run before it hands over a single op.
    SamplingOptions sopts;
    sopts.windows = 8;
    sopts.windowOps = 1500;
    sopts.warmMode = WarmMode::Functional;
    sopts.jobs = 1;
    simulateSampled(cgct, benchmarkByName("specweb99"),
                    trainOptions(400000, seed), sopts);
    ++runs;

    // A capture and its replay, which must reproduce the live run.
    RunOptions capture = trainOptions(30000, seed);
    capture.capturePath = trace_path;
    const RunResult live =
        simulateOnce(cgct, benchmarkByName("specjbb2000"), capture);
    capture.capturePath.clear();
    const RunResult replay = simulateReplay(cgct, trace_path, capture);
    runs += 2;
    std::remove(trace_path.c_str());
    if (replay.cycles != live.cycles ||
        replay.requestsTotal != live.requestsTotal ||
        replay.broadcasts != live.broadcasts) {
        std::fprintf(stderr, "cgct_pgo_train: the replay did not "
                             "reproduce the captured run\n");
        return 1;
    }

    std::printf("cgct_pgo_train: %u runs\n", runs);
    return 0;
}
