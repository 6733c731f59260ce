#include "sim/energy.hpp"

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
    const System::Totals t = system.totals();
    EnergyBreakdown e;
    // Each broadcast is driven to every agent and probes every *other*
    // processor's L2 tags; a direct request touches only its controller.
    e.tagLookups = kL2TagLookupNj * static_cast<double>(t.node.snoopsReceived);
    e.network = kBusBroadcastPerAgentNj *
                    static_cast<double>(system.bus().stats().broadcasts) *
                    static_cast<double>(system.numCpus()) +
                kDirectRequestNj * static_cast<double>(t.node.directs);
    e.cacheAccess =
        kL1AccessNj * static_cast<double>(t.l1i.hits + t.l1i.misses +
                                          t.l1d.hits + t.l1d.misses) +
        kL2TagLookupNj * static_cast<double>(t.l2.hits + t.l2.misses) +
        kL2DataAccessNj * static_cast<double>(t.l2.hits + t.l2.fills);
    // A chip-shared RCA is one array: its accesses count once.
    e.rca = kRcaLookupNj * static_cast<double>(t.rca.hits + t.rca.misses) +
            kRcaUpdateNj * static_cast<double>(t.rca.allocations);
    e.dram = kDramAccessNj * static_cast<double>(t.mem.overlappedReads +
                                                 t.mem.directReads +
                                                 t.mem.writebacks);
    e.dataTransfer = kDataPerByteNj *
                     static_cast<double>(system.dataNetwork().stats().bytes);
    return e;
}

} // namespace cgct
