/**
 * @file
 * Energy accounting for the memory system — the paper's Section 6:
 * "by reducing network activity [17], tag array lookups [15, 18], and
 * DRAM accesses power can be saved. However, the additional logic may
 * cancel out some of that savings."
 *
 * The model charges per-event energies (derived from CACTI-class numbers
 * for 130 nm-era structures; every weight is configurable) to the event
 * counts the simulator already collects, including the RCA's own lookup
 * and update energy so the "additional logic" cost appears explicitly.
 */

#pragma once

#include <cstdint>

namespace cgct {

class System;

/** Per-event energy costs in nanojoules. */
struct EnergyParams {
    /** One L2 tag-array lookup (local access or incoming snoop). */
    double l2TagLookupNj = 0.20;
    /** One L1 access. */
    double l1AccessNj = 0.05;
    /** One L2 data-array access (hit or fill). */
    double l2DataAccessNj = 0.60;
    /** Driving one request across the broadcast address network,
     *  per receiving agent. */
    double busBroadcastPerAgentNj = 0.80;
    /** A point-to-point direct request to one memory controller. */
    double directRequestNj = 0.90;
    /** One DRAM line access (read or write-back sink). */
    double dramAccessNj = 12.0;
    /** Moving one byte over the data network. */
    double dataPerByteNj = 0.01;
    /** One RCA lookup (the CGCT "additional logic"). */
    double rcaLookupNj = 0.12;
    /** One RCA allocation/update. */
    double rcaUpdateNj = 0.15;
};

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

/** Charge @p params against the event counts of a finished system. */
EnergyBreakdown computeEnergy(System &system,
                              const EnergyParams &params = {});

} // namespace cgct
