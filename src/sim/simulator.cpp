#include "sim/simulator.hpp"

#include "common/log.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"

namespace cgct {

namespace {

HistogramSnapshot
snapshot(const char *name, const char *desc, const Histogram &h)
{
    HistogramSnapshot s{name, desc, h.bucketWidth(), h.samples(), h.sum(),
                        {}};
    for (std::size_t i = 0; i < h.numBuckets(); ++i)
        s.buckets.push_back(h.bucketCount(i));
    return s;
}

DistributionSnapshot
snapshot(const char *name, const char *desc, const Distribution &d)
{
    return {name, desc, d.samples(), d.min(), d.max(), d.mean(), d.stddev()};
}

} // namespace

void
scheduleWarmupCheck(System &sys, std::function<std::uint64_t()> min_ops,
                    std::uint64_t warmup_ops, Tick *measure_start,
                    bool *done)
{
    constexpr Tick kCheckInterval = 5000;
    sys.eq().scheduleIn(kCheckInterval, [&sys, min_ops, warmup_ops,
                                         measure_start, done] {
        // A run that completed before this check has nothing left to
        // measure — resetting stats now would zero the whole result
        // and put measure_start past the final clock.
        if (sys.allCoresFinished())
            return;
        if (min_ops() >= warmup_ops) {
            *measure_start = sys.eq().now();
            sys.resetStats(sys.eq().now());
            if (done)
                *done = true;
            return; // Warmed up: stop checking.
        }
        scheduleWarmupCheck(sys, min_ops, warmup_ops, measure_start, done);
    });
}

void
runPhase(System &sys, bool resume, std::uint64_t max_events,
         const std::function<void()> &after_start)
{
    if (resume)
        sys.resumePhase();
    else
        sys.start();
    if (after_start)
        after_start();

    if (sys.run(max_events) >= max_events)
        fatal("run: event cap hit (%llu) — runaway simulation?",
              static_cast<unsigned long long>(max_events));
    if (!sys.allCoresFinished())
        panic("run: event queue drained before cores reached the pause "
              "point");
}

RunResult
simulateOnce(const SystemConfig &config, const WorkloadProfile &profile,
             const RunOptions &opts)
{
    return simulateCheckpointed(config, profile, opts, {});
}

RunResult
simulateReplay(const SystemConfig &config, const std::string &trace_path,
               const RunOptions &opts, std::ostream *stats_out)
{
    return simulateCheckpointed(config, trace_path, opts, {}, stats_out);
}

RunResult
collectRunResult(System &sys, const std::string &workload_name,
                 std::uint64_t seed, Tick measure_start)
{
    const SystemConfig &config = sys.config();
    RunResult r;
    r.workload = workload_name;
    r.regionBytes = config.cgct.enabled ? config.cgct.regionBytes : 0;
    r.seed = seed;
    r.cycles = sys.maxCoreClock() - measure_start;

    const System::Totals t = sys.totals();
    r.requestsTotal = t.node.requestsTotal;
    r.broadcasts = t.node.broadcasts;
    r.directs = t.node.directs;
    r.locals = t.node.localCompletes;
    r.writebacks = t.node.writebacksIssued;
    for (std::size_t c = 0; c < kNumCategories; ++c) {
        r.broadcastsByCat[c] = t.node.broadcastsByCat[c];
        r.directsByCat[c] = t.node.directsByCat[c];
        r.localsByCat[c] = t.node.localByCat[c];
    }
    r.inclusionWritebacks = t.node.inclusionWritebacks;
    r.instructions = t.instructions;

    r.rcaEvictedEmpty = t.rca.evictedEmpty;
    r.rcaEvictedOne = t.rca.evictedOneLine;
    r.rcaEvictedTwo = t.rca.evictedTwoLines;
    r.rcaEvictedMore = t.rca.evictedMoreLines;
    r.rcaSelfInvalidations = t.rca.selfInvalidations;
    r.avgLinesPerEvictedRegion = t.avgLinesPerEvictedRegion;

    const std::uint64_t probes = t.l2.hits + t.l2.misses;
    r.l2MissRatio = probes ? static_cast<double>(t.l2.misses) /
                                 static_cast<double>(probes)
                           : 0.0;
    r.avgMissLatency = t.node.memLatencyCount
                           ? static_cast<double>(t.node.memLatencySum) /
                                 static_cast<double>(t.node.memLatencyCount)
                           : 0.0;

    const Oracle &oracle = sys.oracle();
    r.oracleTotal = oracle.total();
    r.oracleUnnecessary = oracle.unnecessary();
    for (std::size_t c = 0; c < kNumCategories; ++c) {
        const auto &counts =
            oracle.category(static_cast<RequestCategory>(c));
        r.oracleTotalByCat[c] = counts.total;
        r.oracleUnnecessaryByCat[c] = counts.unnecessary;
    }

    r.avgBroadcastsPer100k =
        sys.bus().traffic().averagePerWindow(sys.eq().now());
    r.peakBroadcastsPer100k =
        static_cast<double>(sys.bus().traffic().peakWindowCount());
    r.cacheToCache = sys.bus().stats().cacheToCache;
    r.memorySupplied = sys.bus().stats().memorySupplied;
    r.topology = topologyKindName(config.interconnect.topology);
    r.nodes = config.topology.numCpus;
    r.localResolves = sys.bus().localDomainResolves();
    r.interChipBroadcasts = sys.bus().interChipBroadcasts();

    // The observability histograms/distributions, system-wide.
    r.histograms.push_back(snapshot("node.miss_latency",
                                    "demand miss latency distribution "
                                    "(cycles)",
                                    t.missLatency));
    if (t.rcas > 0) {
        r.histograms.push_back(snapshot("rca.lines_at_eviction",
                                        "lines cached per region at "
                                        "eviction",
                                        t.rcaLinesAtEviction));
        r.distributions.push_back(snapshot("rca.region_lifetime",
                                           "allocation-to-eviction region "
                                           "lifetime (cycles)",
                                           t.rcaLifetime));
    }

    // End-of-run invariant sweep over every region still live anywhere.
    if (InvariantChecker *checker = sys.invariantChecker()) {
        const std::string err = checker->checkAll();
        if (!err.empty())
            fatal("end-of-run region invariant violation: %s",
                  err.c_str());
    }

    if (sys.config().obs.trace) {
        r.trace = std::make_shared<const std::vector<TraceEvent>>(
            sys.traceSink().takeEvents());
    }
    return r;
}

} // namespace cgct
