#include "cache/cache.hpp"

#include "snapshot/serializer.hpp"

namespace cgct {

Cache::Cache(std::string name, const CacheParams &params)
    : name_(std::move(name)), params_(params),
      array_("cache", params.numSets(), params.associativity,
             params.lineBytes)
{
}

CacheLine *
Cache::probe(Addr addr, Tick now)
{
    CacheLine *line = array_.find(addr);
    if (line) {
        ++stats_.hits;
        array_.touch(*line, now);
    } else {
        ++stats_.misses;
    }
    return line;
}

CacheLine *
Cache::fill(Addr addr, LineState state, Tick now, Tick ready,
            Eviction &evicted)
{
    std::optional<CacheLine> victim;
    CacheLine *line = array_.allocate(addr, victim);
    line->state = state;
    line->readyTick = ready;
    line->lastUse = now;
    ++stats_.fills;
    evicted = Eviction{};
    if (victim) {
        evicted = Eviction{true, victim->lineAddr, victim->state};
        if (isDirty(victim->state))
            ++stats_.evictionsDirty;
        else
            ++stats_.evictionsClean;
    }
    return line;
}

LineState
Cache::invalidateLine(Addr addr)
{
    const std::optional<CacheLine> prior = array_.invalidate(addr);
    if (!prior)
        return LineState::Invalid;
    ++stats_.invalidations;
    return prior->state;
}

double
Cache::missRatio() const
{
    const auto total = stats_.hits + stats_.misses;
    return total ? static_cast<double>(stats_.misses) /
                       static_cast<double>(total)
                 : 0.0;
}

void
Cache::transfer(Archive &ar)
{
    ar.expect("cache sets", array_.numSets());
    ar.expect("cache ways", array_.ways());
    ar.expect("cache line bytes", params_.lineBytes);
    array_.transfer(ar, [&ar](CacheLine &line) {
        ar.u64(line.lineAddr);
        ar.enumerant("cache line state", line.state, LineState::Modified);
        ar.u64(line.readyTick);
        ar.u64(line.lastUse);
    });
    ar.u64(stats_.hits);
    ar.u64(stats_.misses);
    ar.u64(stats_.fills);
    ar.u64(stats_.evictionsClean);
    ar.u64(stats_.evictionsDirty);
    ar.u64(stats_.invalidations);
}

void
Cache::addStats(StatGroup &group) const
{
    group.addScalar(name_ + ".hits", "probe hits", &stats_.hits);
    group.addScalar(name_ + ".misses", "probe misses", &stats_.misses);
    group.addScalar(name_ + ".fills", "lines installed", &stats_.fills);
    group.addScalar(name_ + ".evictions_clean",
                    "clean lines displaced by fills",
                    &stats_.evictionsClean);
    group.addScalar(name_ + ".evictions_dirty",
                    "dirty lines displaced by fills",
                    &stats_.evictionsDirty);
    group.addScalar(name_ + ".invalidations",
                    "lines invalidated by snoops or back-invalidation",
                    &stats_.invalidations);
    group.addDerived(name_ + ".miss_ratio", "misses / probes",
                     [this] { return missRatio(); });
}

} // namespace cgct
