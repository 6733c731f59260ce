/**
 * @file
 * Assembles the full simulated machine of Table 3: event queue, address
 * map, per-chip memory controllers, data network, broadcast bus, one Node
 * (caches + RCA) and one CoreModel per processor, and the oracle.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/trace_sink.hpp"
#include "cpu/core_model.hpp"
#include "event/event_queue.hpp"
#include "interconnect/bus.hpp"
#include "interconnect/directory.hpp"
#include "interconnect/interconnect.hpp"
#include "interconnect/topology.hpp"
#include "interconnect/data_network.hpp"
#include "mem/address_map.hpp"
#include "mem/memory_controller.hpp"
#include "sim/dma.hpp"
#include "sim/invariants.hpp"
#include "sim/node.hpp"
#include "sim/oracle.hpp"

namespace cgct {

class Archive;
class Serializer;
class Deserializer;

/** The whole machine. */
class System
{
  public:
    /** Builds the region tracker of one processor. */
    using TrackerFactory =
        std::function<std::shared_ptr<RegionTracker>(CpuId cpu)>;

    /**
     * @param config validated system configuration
     * @param source workload op streams (must outlive the system)
     * @param make_tracker builds each processor's region tracker in place
     *        of makeTracker(config.cgct), e.g. RegionScout for the
     *        comparison of the paper's Section 2; a CGCT configuration
     *        with sharedPerChip calls it once per chip
     */
    System(const SystemConfig &config, OpSource &source,
           const TrackerFactory &make_tracker = {});

    /** Kick off every core. */
    void start();

    /**
     * Execute pending events. @return events executed; a value >=
     * @p max_events means the runaway guard tripped (the system is NOT
     * drained and must not be serialized).
     */
    std::uint64_t run(std::uint64_t max_events)
    {
        return eq_.run(max_events);
    }

    EventQueue &eq() { return eq_; }
    const SystemConfig &config() const { return config_; }
    Interconnect &bus() { return *bus_; }
    DataNetwork &dataNetwork() { return *dataNet_; }
    Oracle &oracle() { return oracle_; }
    unsigned numCpus() const { return config_.topology.numCpus; }
    Node &node(unsigned i) { return *nodes_[i]; }
    CoreModel &core(unsigned i) { return *cores_[i]; }
    MemoryController &memCtrl(unsigned i) { return *memCtrls_[i]; }
    unsigned numMemCtrls() const
    {
        return static_cast<unsigned>(memCtrls_.size());
    }

    /** A region tracker and the first core that owns it. */
    struct OwnedTracker {
        unsigned firstOwner;
        RegionTracker *tracker;
    };

    /**
     * Every distinct region tracker, in core order: a chip-shared
     * tracker appears once, under its first owner. Empty when no core
     * tracks regions.
     */
    const std::vector<OwnedTracker> &trackers() const { return trackers_; }

    /** The DMA engine, or nullptr when config.dma.enabled is false. */
    DmaEngine *dma() { return dma_.get(); }

    /** The trace sink; components emit to it only when
     *  config.obs.trace is set. */
    TraceSink &traceSink() { return trace_; }
    const TraceSink &traceSink() const { return trace_; }

    /**
     * The invariant checker, or nullptr when not active. Active when
     * config.obs.checkInvariants is set, and automatically in debug
     * (NDEBUG-undefined) builds whenever CGCT is enabled.
     */
    InvariantChecker *invariantChecker() { return checker_.get(); }

    bool allCoresFinished() const;
    Tick maxCoreClock() const;

    /**
     * Switch the whole machine into (or out of) functional mode for
     * warming (docs/SAMPLING.md): every request then resolves at once
     * through Interconnect::resolveNow, with no events, MSHRs or timing.
     * Only Node::warmAccess drives a functional system.
     */
    void setFunctional(bool on) { bus_->setFunctional(on); }

    /** Reset all statistics at @p now (end of warmup). */
    void resetStats(Tick now);

    /** Dump every component's statistics. */
    void dumpStats(std::ostream &os) const;

    /**
     * Checkpoint layout (see docs/SNAPSHOT.md): one section per
     * component ("eq", "bus", "datanet", "oracle", "dma", "memctrl<i>",
     * "core<i>", "node<i>", "tracker<i>"). Saving requires a drained
     * system — event queue empty, every core Finished, no requests in
     * flight — and panics otherwise. Chip-shared region trackers are
     * stored once, under the section of the first core that owns them.
     * Loading requires a system freshly constructed under the same
     * configuration; the caller checks the config fingerprint first.
     */
    void transfer(Archive &ar);

    /** Append the sections to @p s: transfer() over a saving Archive. */
    void serializeState(Serializer &s) const;

    /** Restore from @p d: transfer() over a loading Archive. */
    void restoreState(const Deserializer &d);

    /**
     * Resume execution for the next checkpoint phase after the op
     * source's pause point advanced: wakes every drained core and
     * restarts the DMA engine. Also used directly after restoreState().
     */
    void resumePhase();

  private:
    SystemConfig config_;
    EventQueue eq_;
    AddressMap map_;
    std::vector<std::unique_ptr<MemoryController>> memCtrls_;
    std::unique_ptr<DataNetwork> dataNet_;
    std::unique_ptr<Interconnect> bus_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::vector<std::unique_ptr<CoreModel>> cores_;
    std::vector<OwnedTracker> trackers_;
    Oracle oracle_;
    std::unique_ptr<DmaEngine> dma_;
    TraceSink trace_;
    std::unique_ptr<InvariantChecker> checker_;
};

} // namespace cgct
