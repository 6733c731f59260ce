#include "sim/simulator.hpp"

#include "common/log.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"

namespace cgct {

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
        if (!sys.allCoresFinished())
            scheduleWarmupCheck(sys, min_ops, warmup_ops, measure_start,
                                done);
    });
}

unsigned
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
    if (sys.allCoresFinished())
        return 0;
    if (const unsigned blocked = sys.coresWaitingOnSync())
        return blocked;
    panic("run: event queue drained before cores reached the pause point");
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

    for (unsigned i = 0; i < sys.numCpus(); ++i) {
        const Node::Stats &ns = sys.node(i).stats();
        r.requestsTotal += ns.requestsTotal;
        r.broadcasts += ns.broadcasts;
        r.directs += ns.directs;
        r.locals += ns.localCompletes;
        r.writebacks += ns.writebacksIssued;
        for (std::size_t c = 0; c < RunResult::kNumCat; ++c) {
            r.broadcastsByCat[c] += ns.broadcastsByCat[c];
            r.directsByCat[c] += ns.directsByCat[c];
            r.localsByCat[c] += ns.localByCat[c];
        }
        r.inclusionWritebacks += ns.inclusionWritebacks;
        r.instructions += sys.core(i).instructions();
    }

    // Each CGCT controller once: with sharedPerChip the chip's cores
    // share one.
    std::vector<const CgctController *> ctrls;
    for (const System::OwnedTracker &t : sys.trackers())
        if (const auto *c = dynamic_cast<const CgctController *>(t.tracker))
            ctrls.push_back(c);
    for (const CgctController *c : ctrls) {
        const auto &rs = c->rca().stats();
        r.rcaEvictedEmpty += rs.evictedEmpty;
        r.rcaEvictedOne += rs.evictedOneLine;
        r.rcaEvictedTwo += rs.evictedTwoLines;
        r.rcaEvictedMore += rs.evictedMoreLines;
        r.rcaSelfInvalidations += rs.selfInvalidations;
        if (rs.lineCountSamples > 0) {
            r.avgLinesPerEvictedRegion +=
                static_cast<double>(rs.lineCountSum) /
                static_cast<double>(rs.lineCountSamples);
        }
    }
    if (!ctrls.empty())
        r.avgLinesPerEvictedRegion /= static_cast<double>(ctrls.size());

    // Convert the accumulators into proper averages.
    {
        std::uint64_t probes = 0;
        std::uint64_t lat_count = 0;
        double lat_sum = 0.0;
        double misses = 0.0;
        for (unsigned i = 0; i < sys.numCpus(); ++i) {
            const Cache::Stats &l2s = sys.node(i).l2().stats();
            probes += l2s.hits + l2s.misses;
            misses += static_cast<double>(l2s.misses);
            lat_sum += static_cast<double>(sys.node(i).stats().memLatencySum);
            lat_count += sys.node(i).stats().memLatencyCount;
        }
        r.l2MissRatio = probes ? misses / static_cast<double>(probes) : 0.0;
        r.avgMissLatency = lat_count
                               ? lat_sum / static_cast<double>(lat_count)
                               : 0.0;
    }

    const Oracle &oracle = sys.oracle();
    r.oracleTotal = oracle.total();
    r.oracleUnnecessary = oracle.unnecessary();
    for (std::size_t c = 0; c < RunResult::kNumCat; ++c) {
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

    // Aggregate the observability histograms/distributions system-wide.
    {
        auto snapshotHist = [](std::string name, std::string desc,
                               const Histogram &h) {
            HistogramSnapshot s;
            s.name = std::move(name);
            s.desc = std::move(desc);
            s.bucketWidth = h.bucketWidth();
            s.samples = h.samples();
            s.sum = h.sum();
            s.buckets.resize(h.numBuckets());
            for (std::size_t i = 0; i < h.numBuckets(); ++i)
                s.buckets[i] = h.bucketCount(i);
            return s;
        };

        Histogram miss(Node::kMissLatencyBucketWidth,
                       Node::kMissLatencyBuckets);
        for (unsigned i = 0; i < sys.numCpus(); ++i)
            miss.merge(sys.node(i).missLatencyHistogram());
        r.histograms.push_back(snapshotHist(
            "node.miss_latency",
            "demand miss latency distribution (cycles)", miss));

        if (!ctrls.empty()) {
            Histogram lines = ctrls.front()->rca().evictedLinesHistogram();
            Distribution life = ctrls.front()->rca().regionLifetime();
            for (std::size_t i = 1; i < ctrls.size(); ++i) {
                lines.merge(ctrls[i]->rca().evictedLinesHistogram());
                life.merge(ctrls[i]->rca().regionLifetime());
            }
            r.histograms.push_back(snapshotHist(
                "rca.lines_at_eviction",
                "lines cached per region at eviction", lines));
            DistributionSnapshot d;
            d.name = "rca.region_lifetime";
            d.desc = "allocation-to-eviction region lifetime (cycles)";
            d.samples = life.samples();
            d.min = life.min();
            d.max = life.max();
            d.mean = life.mean();
            d.stddev = life.stddev();
            r.distributions.push_back(std::move(d));
        }
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

RunSummary
runtimeSummary(const std::vector<RunResult> &runs)
{
    std::vector<double> cycles;
    cycles.reserve(runs.size());
    for (const auto &r : runs)
        cycles.push_back(static_cast<double>(r.cycles));
    return summarize(cycles);
}

} // namespace cgct
