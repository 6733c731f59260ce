#include "sim/energy.hpp"

#include "core/cgct_controller.hpp"
#include "sim/system.hpp"

namespace cgct {

namespace {

// Per-event energy costs in nanojoules.
constexpr double kL2TagLookupNj = 0.20;  ///< L2 tag lookup (access or snoop).
constexpr double kL1AccessNj = 0.05;     ///< One L1 access.
constexpr double kL2DataAccessNj = 0.60; ///< L2 data array (hit or fill).
constexpr double kBusBroadcastPerAgentNj = 0.80; ///< Broadcast, per agent.
constexpr double kDirectRequestNj = 0.90; ///< To one memory controller.
constexpr double kDramAccessNj = 12.0;   ///< DRAM line read or write-back.
constexpr double kDataPerByteNj = 0.01;  ///< One byte on the data network.
constexpr double kRcaLookupNj = 0.12;    ///< RCA lookup ("additional logic").
constexpr double kRcaUpdateNj = 0.15;    ///< RCA allocation/update.

} // namespace

EnergyBreakdown
computeEnergy(System &system)
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

        e.tagLookups += kL2TagLookupNj *
                        static_cast<double>(ns.snoopsReceived);

        const Cache::Stats &l1i = system.node(i).l1i().stats();
        const Cache::Stats &l1d = system.node(i).l1d().stats();
        const Cache::Stats &l2 = system.node(i).l2().stats();
        e.cacheAccess +=
            kL1AccessNj * static_cast<double>(l1i.hits + l1i.misses +
                                              l1d.hits + l1d.misses) +
            kL2TagLookupNj * static_cast<double>(l2.hits + l2.misses) +
            kL2DataAccessNj * static_cast<double>(l2.hits + l2.fills);
    }

    // A chip-shared RCA is one array: count its accesses once.
    for (const System::OwnedTracker &t : system.trackers()) {
        if (const auto *cgct_ctrl =
                dynamic_cast<const CgctController *>(t.tracker)) {
            const auto &rs = cgct_ctrl->rca().stats();
            e.rca += kRcaLookupNj *
                         static_cast<double>(rs.hits + rs.misses) +
                     kRcaUpdateNj * static_cast<double>(rs.allocations);
        }
    }

    e.network = kBusBroadcastPerAgentNj *
                    static_cast<double>(bus.broadcasts) *
                    static_cast<double>(cpus) +
                kDirectRequestNj * static_cast<double>(directs);

    double dram_accesses = 0.0;
    for (unsigned i = 0; i < system.numMemCtrls(); ++i) {
        const auto &mc = system.memCtrl(i).stats();
        dram_accesses += static_cast<double>(
            mc.overlappedReads + mc.directReads + mc.writebacks);
    }
    e.dram = kDramAccessNj * dram_accesses;

    e.dataTransfer = kDataPerByteNj *
                     static_cast<double>(system.dataNetwork().stats().bytes);
    return e;
}

} // namespace cgct
