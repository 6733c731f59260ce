/**
 * @file
 * DMA engine: models the I/O traffic of Table 3's 512-byte DMA buffers.
 * The paper's introduction lists "non-cacheable I/O data" among the
 * requests that do not need to be seen by other processors' caches; this
 * engine injects that traffic so systems can be studied under I/O load.
 *
 * A transfer moves one buffer (bufferBytes, line by line) between memory
 * and the I/O bridge: DMA reads snoop for dirty copies (a processor may
 * hold newer data); DMA writes invalidate cached copies before memory is
 * overwritten. The engine has no cache and no RCA — its requests always
 * use the broadcast network, in both baseline and CGCT systems.
 */

#pragma once

#include <cstdint>

#include "common/config.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "event/event_queue.hpp"
#include "interconnect/interconnect.hpp"

namespace cgct {

/** The requester id used by the I/O bridge on the bus. */
constexpr CpuId
dmaRequesterId(const TopologyParams &topo)
{
    return static_cast<CpuId>(topo.numCpus);
}

/** One DMA engine (I/O bridge). */
class DmaEngine
{
  public:
    DmaEngine(EventQueue &eq, Interconnect &bus, const DmaParams &params,
              const TopologyParams &topo, std::uint64_t seed);

    /**
     * Schedule the first transfer. @p keep_running is polled before every
     * transfer; when it returns false the engine stops rescheduling so
     * the event queue can drain (e.g. once all cores finished).
     */
    void start(std::function<bool()> keep_running = nullptr);

    /** Stop issuing new transfers (in-flight ones drain). */
    void stop() { stopped_ = true; }

    struct Stats {
        std::uint64_t transfers = 0;
        std::uint64_t readLines = 0;
        std::uint64_t writeLines = 0;
        std::uint64_t dirtyHits = 0;   ///< Reads that found dirty data.

        static void
        visit(auto &&f, auto &...s)
        {
            f("dma.transfers", "DMA buffer transfers issued", s.transfers...);
            f("dma.read_lines", "lines read from memory by DMA",
              s.readLines...);
            f("dma.write_lines", "lines written to memory by DMA",
              s.writeLines...);
            f("dma.dirty_hits", "DMA reads that found a dirty cached copy",
              s.dirtyHits...);
        }
    };

    const Stats &stats() const { return stats_; }
    void addStats(StatGroup &group) const { group.addCounters(stats_); }

    /**
     * Checkpoint layout: the RNG stream and counters. The pending
     * transfer event is not saved — scheduleNext() draws the delay
     * *before* checking keep_running, so the aborted event's draw is
     * already in the saved RNG state and start() after restore
     * re-creates the identical schedule.
     */
    void transfer(Archive &ar);

  private:
    void scheduleNext();
    void transfer();

    EventQueue &eq_;
    Interconnect &bus_;
    DmaParams params_;
    CpuId id_;
    Rng rng_;
    bool stopped_ = false;
    std::function<bool()> keepRunning_;
    Stats stats_;
};

} // namespace cgct
