#include "sim/system.hpp"

#include <algorithm>
#include <ostream>
#include <string>

#include "common/log.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

System::System(const SystemConfig &config, OpSource &source,
               const TrackerFactory &make_tracker)
    : config_(config), map_(config.topology)
{
    config_.validate();

    const unsigned n_ctrl = config_.topology.numMemCtrls();
    std::vector<MemoryController *> ctrl_ptrs;
    for (unsigned i = 0; i < n_ctrl; ++i) {
        memCtrls_.push_back(std::make_unique<MemoryController>(
            static_cast<MemCtrlId>(i), eq_, config_.interconnect));
        ctrl_ptrs.push_back(memCtrls_.back().get());
    }

    // One extra data-network link for the I/O bridge (DMA).
    dataNet_ = std::make_unique<DataNetwork>(config_.topology.numCpus + 1,
                                             config_.interconnect);
    switch (config_.interconnect.topology) {
      case TopologyKind::Bus:
        bus_ = std::make_unique<Bus>(eq_, config_.interconnect, map_,
                                     *dataNet_, ctrl_ptrs);
        break;
      case TopologyKind::Hier:
        bus_ = std::make_unique<HierRouter>(
            eq_, config_.interconnect, map_, *dataNet_, ctrl_ptrs,
            config_.topology, config_.cgct.regionBytes);
        break;
      case TopologyKind::Dir:
        bus_ = std::make_unique<DirectoryInterconnect>(
            eq_, config_.interconnect, map_, *dataNet_, ctrl_ptrs,
            config_.topology, config_.cgct.regionBytes);
        break;
    }

    const auto build_tracker = [&](CpuId cpu) {
        return make_tracker ? make_tracker(cpu)
                            : makeTracker(cpu, config_.cgct,
                                          config_.l2.lineBytes);
    };

    // One tracker per core, or one per chip shared by its cores
    // (Section 3.2) when configured.
    std::vector<std::shared_ptr<RegionTracker>> chip_trackers(
        config_.topology.numChips());
    std::vector<Node *> node_ptrs;
    for (unsigned i = 0; i < config_.topology.numCpus; ++i) {
        std::shared_ptr<RegionTracker> tracker;
        if (config_.cgct.enabled && config_.cgct.sharedPerChip) {
            auto &slot = chip_trackers[config_.topology.chipOfCpu(
                static_cast<CpuId>(i))];
            if (!slot)
                slot = build_tracker(static_cast<CpuId>(i));
            tracker = slot;
        } else {
            tracker = build_tracker(static_cast<CpuId>(i));
        }
        nodes_.push_back(std::make_unique<Node>(
            static_cast<CpuId>(i), config_, eq_, *bus_, *dataNet_,
            map_, ctrl_ptrs, std::move(tracker)));
        bus_->addClient(nodes_.back().get());
        node_ptrs.push_back(nodes_.back().get());
    }
    for (unsigned i = 0; i < nodes_.size(); ++i) {
        RegionTracker *tracker = nodes_[i]->tracker();
        if (tracker && std::none_of(trackers_.begin(), trackers_.end(),
                                    [tracker](const OwnedTracker &t) {
                                        return t.tracker == tracker;
                                    }))
            trackers_.push_back({i, tracker});
    }

    bus_->setOracle(&oracle_);

    for (unsigned i = 0; i < config_.topology.numCpus; ++i) {
        cores_.push_back(std::make_unique<CoreModel>(
            static_cast<CpuId>(i), config_.core, eq_, *nodes_[i],
            source));
    }

    if (config_.dma.enabled) {
        dma_ = std::make_unique<DmaEngine>(eq_, *bus_, config_.dma,
                                           config_.topology,
                                           /*seed=*/0x10b71d9e);
    }

    // Observability: components see the trace sink only when the run is
    // traced (a null sink is off); the checker only when requested, or
    // in debug builds whenever CGCT runs.
    bool check = config_.obs.checkInvariants;
#ifndef NDEBUG
    check = check || config_.cgct.enabled;
#endif
    if (config_.obs.trace) {
        bus_->setTraceSink(&trace_);
        for (auto &mc : memCtrls_)
            mc->setTraceSink(&trace_);
        for (auto &node : nodes_)
            node->setTraceSink(&trace_);
    }

    if (check) {
        std::vector<const Node *> const_nodes(node_ptrs.begin(),
                                              node_ptrs.end());
        checker_ = std::make_unique<InvariantChecker>(config_,
                                                      const_nodes);
        checker_->setEventQueue(&eq_);
        checker_->setInterconnect(bus_.get());
        bus_->setPostResolveHook([this](const SystemRequest &req) {
            checker_->onTransition(req.lineAddr, "bus_resolve");
        });
        for (auto &node : nodes_)
            node->setInvariantChecker(checker_.get());
        // A region eviction flushes every core sharing the tracker, one
        // flush handler each; the region is consistent only after the
        // last of them, so the check is one more handler after those.
        for (const OwnedTracker &t : trackers_)
            t.tracker->setFlushHandler(
                [this](Addr region, std::uint64_t, MemCtrlId) {
                    checker_->onTransition(region, "region_flush");
                });
    }
}

void
System::start()
{
    for (auto &core : cores_)
        core->start();
    if (dma_) {
        // The engine stops itself once every core has retired its stream,
        // letting the event queue drain.
        dma_->start([this] { return !allCoresFinished(); });
    }
}

bool
System::allCoresFinished() const
{
    for (const auto &core : cores_)
        if (!core->finished())
            return false;
    return true;
}

Tick
System::maxCoreClock() const
{
    Tick m = 0;
    for (const auto &core : cores_)
        m = std::max(m, core->clock());
    return m;
}

void
System::resetStats(Tick now)
{
    for (auto &node : nodes_)
        node->resetStats();
    for (auto &mc : memCtrls_)
        mc->resetStats();
    bus_->resetStats(now);
    dataNet_->resetStats();
    oracle_.reset();
}

void
System::transfer(Archive &ar)
{
    if (ar.saving() && !allCoresFinished())
        panic("System: serializing before every core drained");

    ar.section("eq", [&] { eq_.transfer(ar); });
    ar.section("bus", [&] { bus_->transfer(ar); });
    ar.section("datanet", [&] { dataNet_->transfer(ar); });
    ar.section("oracle", [&] { oracle_.transfer(ar); });
    if (dma_)
        ar.section("dma", [&] { dma_->transfer(ar); });
    for (std::size_t i = 0; i < memCtrls_.size(); ++i)
        ar.section("memctrl" + std::to_string(i),
                   [&] { memCtrls_[i]->transfer(ar); });

    // Chip-shared trackers appear once, under their first owner's index.
    auto owned = trackers_.begin();
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const std::string id = std::to_string(i);
        ar.section("core" + id, [&] { cores_[i]->transfer(ar); });
        ar.section("node" + id, [&] { nodes_[i]->transfer(ar); });
        if (owned != trackers_.end() && owned->firstOwner == i) {
            ar.section("tracker" + id, [&] {
                owned->tracker->transfer(
                    ar, static_cast<unsigned>(memCtrls_.size()));
            });
            ++owned;
        }
    }
}

void
System::serializeState(Serializer &s) const
{
    Archive ar(s);
    // Saving reads every field and writes none.
    const_cast<System *>(this)->transfer(ar);
}

void
System::restoreState(const Deserializer &d)
{
    Archive ar(d);
    transfer(ar);
}

void
System::resumePhase()
{
    for (auto &core : cores_)
        core->resume();
    if (dma_)
        dma_->start([this] { return !allCoresFinished(); });
}

void
System::dumpStats(std::ostream &os) const
{
    {
        StatGroup g("system");
        oracle_.addStats(g);
        bus_->addStats(g);
        dataNet_->addStats(g);
        if (dma_)
            dma_->addStats(g);
        for (const auto &mc : memCtrls_)
            mc->addStats(g);
        g.dump(os);
    }
    for (unsigned i = 0; i < nodes_.size(); ++i) {
        StatGroup g("cpu" + std::to_string(i));
        nodes_[i]->addStats(g);
        cores_[i]->addStats(g);
        g.dump(os);
    }
}

} // namespace cgct
