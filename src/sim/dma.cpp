#include "sim/dma.hpp"

#include "snapshot/serializer.hpp"

namespace cgct {

DmaEngine::DmaEngine(EventQueue &eq, Interconnect &bus, const DmaParams &params,
                     const TopologyParams &topo, std::uint64_t seed)
    : eq_(eq), bus_(bus), params_(params), id_(dmaRequesterId(topo)),
      rng_(seed ^ 0xD1A5ULL)
{
}

void
DmaEngine::start(std::function<bool()> keep_running)
{
    keepRunning_ = std::move(keep_running);
    if (params_.enabled)
        scheduleNext();
}

void
DmaEngine::scheduleNext()
{
    // Exponential-ish spacing around the mean keeps transfers from
    // beating against workload phases.
    const Tick delay = rng_.nextGeometric(1.0 /
                                          static_cast<double>(
                                              params_.meanInterval));
    eq_.scheduleIn(delay, [this] {
        if (stopped_ || (keepRunning_ && !keepRunning_()))
            return;
        transfer();
        scheduleNext();
    });
}

void
DmaEngine::transfer()
{
    ++stats_.transfers;
    const bool is_read = rng_.chance(params_.readFraction);
    const std::uint64_t buffers = params_.targetBytes / params_.bufferBytes;
    const Addr base = params_.targetBase +
                      rng_.nextBelow(buffers) * params_.bufferBytes;

    for (Addr a = base; a < base + params_.bufferBytes; a += 64) {
        SystemRequest req;
        req.cpu = id_;
        // A DMA read must find dirty copies; a DMA write invalidates all
        // cached copies before memory is overwritten.
        req.type = is_read ? RequestType::Read : RequestType::Dcbi;
        req.lineAddr = a;
        if (is_read)
            ++stats_.readLines;
        else
            ++stats_.writeLines;
        bus_.broadcast(req, [this, is_read](const SnoopResponse &resp,
                                            Tick) {
            if (is_read && resp.line.anyDirty)
                ++stats_.dirtyHits;
        });
    }
}

void
DmaEngine::transfer(Archive &ar)
{
    rng_.transfer(ar);
    ar.u64(stats_.transfers);
    ar.u64(stats_.readLines);
    ar.u64(stats_.writeLines);
    ar.u64(stats_.dirtyHits);
}

void
DmaEngine::addStats(StatGroup &group) const
{
    group.addScalar("dma.transfers", "DMA buffer transfers issued",
                    &stats_.transfers);
    group.addScalar("dma.read_lines", "lines read from memory by DMA",
                    &stats_.readLines);
    group.addScalar("dma.write_lines", "lines written to memory by DMA",
                    &stats_.writeLines);
    group.addScalar("dma.dirty_hits",
                    "DMA reads that found a dirty cached copy",
                    &stats_.dirtyHits);
}

} // namespace cgct
