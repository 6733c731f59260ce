#include "sim/system.hpp"

#include <ostream>
#include <string>
#include <unordered_map>

#include "common/log.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

System::System(const SystemConfig &config, OpSource &source)
    : config_(config), map_(config.topology)
{
    config_.validate();

    // Sources that schedule their own wakeups (trace replay sync
    // events) need the event queue before any core binds its waiter.
    source.attach(eq_);

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
                slot = makeTracker(static_cast<CpuId>(i), config_.cgct,
                                   config_.l2.lineBytes);
            tracker = slot;
        } else {
            tracker = makeTracker(static_cast<CpuId>(i), config_.cgct,
                                  config_.l2.lineBytes);
        }
        nodes_.push_back(std::make_unique<Node>(
            static_cast<CpuId>(i), config_, eq_, *bus_, *dataNet_,
            map_, ctrl_ptrs, std::move(tracker)));
        bus_->addClient(nodes_.back().get());
        node_ptrs.push_back(nodes_.back().get());
    }

    oracle_ = std::make_unique<Oracle>(node_ptrs);
    bus_->setOracle(oracle_.get());

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

    // Observability: the trace sink is always present (one pointer + bool
    // test per site when disabled); the checker only when requested, or
    // in debug builds whenever CGCT runs.
    bool check = config_.obs.checkInvariants;
#ifndef NDEBUG
    check = check || config_.cgct.enabled;
#endif
    trace_.setEnabled(config_.obs.trace);
    bus_->setTraceSink(&trace_);
    for (auto &mc : memCtrls_)
        mc->setTraceSink(&trace_);
    for (auto &node : nodes_)
        node->setTraceSink(&trace_);

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

unsigned
System::coresWaitingOnSync() const
{
    unsigned n = 0;
    for (const auto &core : cores_)
        n += core->waitingOnSync() ? 1 : 0;
    return n;
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
    oracle_->reset();
}

void
System::serializeState(Serializer &s) const
{
    if (!allCoresFinished())
        panic("System: serializing before every core drained");

    s.beginSection("eq");
    eq_.serialize(s);
    s.endSection();

    s.beginSection("bus");
    bus_->serialize(s);
    s.endSection();

    s.beginSection("datanet");
    dataNet_->serialize(s);
    s.endSection();

    s.beginSection("oracle");
    oracle_->serialize(s);
    s.endSection();

    if (dma_) {
        s.beginSection("dma");
        dma_->serialize(s);
        s.endSection();
    }

    for (std::size_t i = 0; i < memCtrls_.size(); ++i) {
        s.beginSection("memctrl" + std::to_string(i));
        memCtrls_[i]->serialize(s);
        s.endSection();
    }

    // Chip-shared trackers appear once, under their first owner's index.
    std::unordered_map<const RegionTracker *, bool> seen;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        s.beginSection("core" + std::to_string(i));
        cores_[i]->serialize(s);
        s.endSection();

        s.beginSection("node" + std::to_string(i));
        nodes_[i]->serialize(s);
        s.endSection();

        const RegionTracker *tracker = nodes_[i]->tracker();
        if (tracker && !seen.count(tracker)) {
            seen.emplace(tracker, true);
            s.beginSection("tracker" + std::to_string(i));
            tracker->serialize(s);
            s.endSection();
        }
    }
}

void
System::restoreState(const Deserializer &d)
{
    {
        SectionReader r = d.section("eq");
        eq_.deserialize(r);
    }
    {
        SectionReader r = d.section("bus");
        bus_->deserialize(r);
    }
    {
        SectionReader r = d.section("datanet");
        dataNet_->deserialize(r);
    }
    {
        SectionReader r = d.section("oracle");
        oracle_->deserialize(r);
    }
    if (dma_) {
        SectionReader r = d.section("dma");
        dma_->deserialize(r);
    }
    for (std::size_t i = 0; i < memCtrls_.size(); ++i) {
        SectionReader r = d.section("memctrl" + std::to_string(i));
        memCtrls_[i]->deserialize(r);
    }
    std::unordered_map<RegionTracker *, bool> seen;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        {
            SectionReader r = d.section("core" + std::to_string(i));
            cores_[i]->deserialize(r);
        }
        {
            SectionReader r = d.section("node" + std::to_string(i));
            nodes_[i]->deserialize(r);
        }
        RegionTracker *tracker = nodes_[i]->tracker();
        if (tracker && !seen.count(tracker)) {
            seen.emplace(tracker, true);
            SectionReader r = d.section("tracker" + std::to_string(i));
            tracker->deserialize(r);
        }
    }
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
        oracle_->addStats(g);
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
