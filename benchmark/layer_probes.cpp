#include "layer_probes.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "cache/cache.hpp"
#include "common/random.hpp"
#include "core/rca.hpp"
#include "event/event_queue.hpp"

namespace bench {

using namespace cgct;

double
calibrationSeconds()
{
    constexpr std::uint32_t kRing = 1u << 18; // 4-byte entries: 1 MB
    static const std::vector<std::uint32_t> ring = [] {
        std::vector<std::uint32_t> order(kRing);
        for (std::uint32_t i = 0; i < kRing; ++i)
            order[i] = i;
        std::uint64_t lcg = 0x5eed;
        for (std::uint32_t i = kRing; i > 1; --i) {
            lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
            std::swap(order[i - 1], order[(lcg >> 33) % i]);
        }
        std::vector<std::uint32_t> next(kRing);
        for (std::uint32_t i = 0; i < kRing; ++i)
            next[order[i]] = order[(i + 1) % kRing];
        return next;
    }();
    static volatile std::uint64_t sink = 0;

    std::uint32_t at = 0;
    for (std::uint32_t i = 0; i < kRing; ++i) // warm the ring, untimed
        at = ring[at];
    const Clock::time_point t0 = Clock::now();
    for (std::uint32_t i = 0; i < 2 * kRing; ++i)
        at = ring[at];
    std::uint64_t x = 0x9e3779b97f4a7c15ULL ^ at, h = 0;
    for (int i = 0; i < 2000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        h += (x * 0xff51afd7ed558ccdULL) >> 29;
    }
    const double s = secondsBetween(t0, Clock::now());
    sink = sink + h;
    return s;
}

namespace {

/** Median host seconds of one back-to-back Clock::now() pair. */
double
clockPairSeconds()
{
    static const double cost = [] {
        std::vector<double> pairs(4001);
        for (double &p : pairs) {
            const Clock::time_point t0 = Clock::now();
            p = secondsBetween(t0, Clock::now());
        }
        std::nth_element(pairs.begin(), pairs.begin() + 2000, pairs.end());
        return pairs[2000];
    }();
    return cost;
}

} // namespace

double
TimedSource::estimatedSeconds() const
{
    if (samples_ == 0)
        return 0.0;
    const double per_call =
        std::max(0.0, sampledS_ / static_cast<double>(samples_) -
                          clockPairSeconds());
    return per_call * static_cast<double>(calls_);
}

double
eventKernelNsPerEvent(std::uint64_t seed, std::uint64_t events)
{
    const SystemConfig cfg = makeDefaultConfig();
    const InterconnectParams &ic = cfg.interconnect;
    const Tick delays[] = {
        ic.directOwnChip,  ic.busSlot,        cfg.l2.latency,
        ic.xferOwnChip,    ic.xferSameSwitch, ic.xferRemote,
        ic.snoopLatency,   ic.dramLatency + ic.dramOverlappedExtra,
        2 * EventQueue::kWheelTicks,
    };
    constexpr std::size_t kTable = 4096;
    std::vector<std::pair<Tick, EventPriority>> table(kTable);
    Rng rng(seed);
    for (auto &e : table) {
        e.first = delays[rng.nextBelow(std::size(delays))];
        e.second =
            static_cast<EventPriority>(rng.nextBelow(kNumEventPriorities));
    }

    struct Drive {
        EventQueue eq;
        const std::vector<std::pair<Tick, EventPriority>> *table;
        std::size_t next = 0;
        std::uint64_t left = 0;

        void
        fire()
        {
            if (left == 0)
                return;
            --left;
            const auto &e = (*table)[next++ % kTable];
            eq.scheduleIn(e.first, [this] { fire(); }, e.second);
        }
    } drive;
    drive.table = &table;
    drive.left = events;
    for (int i = 0; i < 64; ++i)
        drive.fire();

    const Clock::time_point t0 = Clock::now();
    const std::uint64_t ran = drive.eq.run();
    return secondsBetween(t0, Clock::now()) * 1e9 /
           static_cast<double>(std::max<std::uint64_t>(ran, 1));
}

double
drawNsPerOp(OpSource &source, unsigned lanes, std::uint64_t max_ops,
            std::vector<Addr> &addrs)
{
    addrs.clear();
    addrs.reserve(max_ops);
    const Clock::time_point t0 = Clock::now();
    bool drew = true;
    while (drew && addrs.size() < max_ops) {
        drew = false;
        for (unsigned lane = 0; lane < lanes && addrs.size() < max_ops;
             ++lane) {
            CpuOp op;
            if (!source.next(static_cast<CpuId>(lane), op))
                continue;
            drew = true;
            addrs.push_back(op.addr);
        }
    }
    return secondsBetween(t0, Clock::now()) * 1e9 /
           static_cast<double>(std::max<std::size_t>(addrs.size(), 1));
}

double
l2NsPerAccess(const CacheParams &params, const std::vector<Addr> &addrs,
              std::uint64_t accesses)
{
    Cache l2("l2", params);
    Tick t = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < accesses; ++i) {
        const Addr a = addrs[i % addrs.size()];
        if (l2.probe(a, ++t))
            continue;
        Eviction ev;
        l2.fill(a, LineState::Exclusive, t, t, ev);
    }
    return secondsBetween(t0, Clock::now()) * 1e9 /
           static_cast<double>(accesses);
}

double
rcaNsPerAccess(const CgctParams &cgct, const std::vector<Addr> &addrs,
               std::uint64_t accesses)
{
    RegionCoherenceArray rca(cgct.rcaSets, cgct.rcaWays, cgct.regionBytes,
                             cgct.favorEmptyRegions);
    Tick t = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < accesses; ++i) {
        const Addr a = addrs[i % addrs.size()];
        ++t;
        if (RegionEntry *e = rca.find(a)) {
            rca.touch(*e, t);
            continue;
        }
        RegionEviction ev;
        RegionEntry *e = rca.allocate(a, t, ev);
        e->state = RegionState::CleanInvalid;
        // Alternate empty and occupied regions so the favor-empty
        // replacement scan has both kinds to choose from.
        e->lineCount = static_cast<std::uint32_t>(i & 1);
    }
    return secondsBetween(t0, Clock::now()) * 1e9 /
           static_cast<double>(accesses);
}

} // namespace bench
