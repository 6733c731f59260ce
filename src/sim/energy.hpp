/**
 * @file
 * Energy accounting for the memory system — the paper's Section 6:
 * "by reducing network activity [17], tag array lookups [15, 18], and
 * DRAM accesses power can be saved. However, the additional logic may
 * cancel out some of that savings."
 *
 * The model charges per-event energies (derived from CACTI-class numbers
 * for 130 nm-era structures; the nine weights are constants in
 * sim/energy.cpp) to the event counts the simulator already collects,
 * including the RCA's own lookup and update energy so the "additional
 * logic" cost appears explicitly.
 */

#pragma once

#include <cstdint>

namespace cgct {

class System;

/** Where the energy went. */
struct EnergyBreakdown {
    double tagLookups = 0.0;    ///< Snoop-induced L2 tag lookups.
    double cacheAccess = 0.0;   ///< Local L1/L2 activity.
    double network = 0.0;       ///< Broadcasts + direct requests.
    double dram = 0.0;
    double dataTransfer = 0.0;
    double rca = 0.0;           ///< The CGCT structure's own cost.

    double
    total() const
    {
        return tagLookups + cacheAccess + network + dram + dataTransfer +
               rca;
    }
};

/** Charge the per-event energies against a finished system's counts. */
EnergyBreakdown computeEnergy(System &system);

} // namespace cgct
