#include "sim/energy.hpp"

#include "core/cgct_controller.hpp"
#include "sim/system.hpp"

namespace cgct {

EnergyBreakdown
computeEnergy(System &system, const EnergyParams &p)
{
    EnergyBreakdown e;

    const auto &bus = system.bus().stats();
    const unsigned cpus = system.numCpus();

    // Each broadcast is driven to every agent and probes every *other*
    // processor's L2 tags; a direct request touches only its controller.
    std::uint64_t directs = 0;
    for (unsigned i = 0; i < cpus; ++i) {
        const Node::Stats &ns = system.node(i).stats();
        directs += ns.directs;

        e.tagLookups += p.l2TagLookupNj *
                        static_cast<double>(ns.snoopsReceived);

        const Cache::Stats &l1i = system.node(i).l1i().stats();
        const Cache::Stats &l1d = system.node(i).l1d().stats();
        const Cache::Stats &l2 = system.node(i).l2().stats();
        e.cacheAccess +=
            p.l1AccessNj * static_cast<double>(l1i.hits + l1i.misses +
                                               l1d.hits + l1d.misses) +
            p.l2TagLookupNj * static_cast<double>(l2.hits + l2.misses) +
            p.l2DataAccessNj * static_cast<double>(l2.hits + l2.fills);

        if (auto *cgct_ctrl = dynamic_cast<CgctController *>(
                system.node(i).tracker())) {
            const auto &rs = cgct_ctrl->rca().stats();
            e.rca += p.rcaLookupNj *
                         static_cast<double>(rs.hits + rs.misses) +
                     p.rcaUpdateNj * static_cast<double>(rs.allocations);
        }
    }

    e.network = p.busBroadcastPerAgentNj *
                    static_cast<double>(bus.broadcasts) *
                    static_cast<double>(cpus) +
                p.directRequestNj * static_cast<double>(directs);

    double dram_accesses = 0.0;
    for (unsigned i = 0; i < system.numMemCtrls(); ++i) {
        const auto &mc = system.memCtrl(i).stats();
        dram_accesses += static_cast<double>(
            mc.overlappedReads + mc.directReads + mc.writebacks);
    }
    e.dram = p.dramAccessNj * dram_accesses;

    e.dataTransfer = p.dataPerByteNj *
                     static_cast<double>(system.dataNetwork().stats().bytes);
    return e;
}

} // namespace cgct
