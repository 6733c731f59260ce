/**
 * @file
 * System configuration: the Table 3 parameters of the paper that the model
 * reads, the CGCT (Region Coherence Array) knobs, and derived topology
 * helpers. Defaults reproduce the paper's four-processor Fireplane-like
 * system with 1.5 GHz UltraSparc-IV-class out-of-order processors.
 *
 * All latencies are stored in CPU cycles (1.5 GHz); Table 3 values given in
 * 150 MHz system cycles are converted via systemCycles().
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/types.hpp"

namespace cgct {

/** Cache geometry for one level. */
struct CacheParams {
    std::uint64_t sizeBytes = 0;
    unsigned associativity = 1;
    unsigned lineBytes = 64;
    Tick latency = 1;            ///< Access (hit) latency in CPU cycles.

    std::uint64_t numLines() const { return sizeBytes / lineBytes; }
    std::uint64_t numSets() const { return numLines() / associativity; }
};

/**
 * Out-of-order core parameters (Table 3, "Processor"): the ones the
 * interval core (cpu/core_model.hpp) and the L2 MSHRs model. The rest of
 * Table 3's processor rows are constants of SystemConfig::print.
 */
struct CoreParams {
    static constexpr unsigned commitWidth = 4;
    unsigned robEntries = 64;
    unsigned lsqEntries = 32;
    unsigned maxOutstandingMisses = 8;   ///< L2 MSHRs per processor.
};

/** Prefetch parameters (Power4 streams; stores prefetch exclusive). */
struct PrefetchParams {
    bool enabled = true;
    static constexpr unsigned streams = 8;
    static constexpr unsigned runahead = 5; ///< Lines ahead per stream.
};

/**
 * Interconnect organization (docs/TOPOLOGY.md). `Bus` is the paper's flat
 * Fireplane-like broadcast network; `Hier` splits it into per-chip snoop
 * domains bridged by an inter-chip broadcast level; `Dir` replaces the
 * inter-chip broadcast with a full-map directory at the home memory
 * controller.
 */
enum class TopologyKind : std::uint8_t {
    Bus = 0,
    Hier = 1,
    Dir = 2,
};

const char *topologyKindName(TopologyKind k);
bool parseTopologyKind(const std::string &s, TopologyKind *out);

/** Interconnect organization (settable) and memory latencies (constants,
 *  Table 3 "Interconnect"). */
struct InterconnectParams {
    /** Interconnect organization (bus / hier / dir, docs/TOPOLOGY.md). */
    TopologyKind topology = TopologyKind::Bus;
    /**
     * Snoop-combining latency of one per-chip snoop domain (hier only):
     * the intra-chip ring is short, so a local resolution costs a
     * fraction of the full Fireplane snoop.
     */
    static constexpr Tick localSnoopLatency = systemCycles(6);
    /** Directory-bank tag lookup latency at the home controller. */
    static constexpr Tick dirLookupLatency = systemCycles(4);
    static constexpr Tick snoopLatency = systemCycles(16);  ///< 106 ns.
    static constexpr Tick dramLatency = systemCycles(16);   ///< 106 ns.
    /** Extra DRAM time beyond the snoop when overlapped (47 ns). */
    static constexpr Tick dramOverlappedExtra = systemCycles(7);
    /** Critical-word transfer latency per distance class. */
    static constexpr Tick xferOwnChip = systemCycles(2);
    static constexpr Tick xferSameSwitch = systemCycles(3); ///< 20 ns.
    static constexpr Tick xferSameBoard = systemCycles(7);  ///< 47 ns.
    static constexpr Tick xferRemote = systemCycles(12);    ///< 80 ns.
    /** Direct (non-broadcast) request delivery latency per distance. */
    static constexpr Tick directOwnChip = 1;   ///< 0.7 ns, 1 CPU cycle.
    static constexpr Tick directSameSwitch = systemCycles(2); ///< 13 ns.
    static constexpr Tick directSameBoard = systemCycles(4);  ///< 27 ns.
    static constexpr Tick directRemote = systemCycles(6);     ///< 40 ns.
    /** Address-bus occupancy per broadcast (one per system cycle). */
    static constexpr Tick busSlot = systemCycles(1);
    /**
     * L2 tag-port occupancy charged to a processor for each incoming
     * snoop: external lookups contend with the processor's own accesses
     * (one of the overheads CGCT removes, Section 1.2).
     */
    static constexpr Tick snoopTagOccupancy = systemCycles(1);
    /** Per-memory-controller service initiation interval. */
    static constexpr Tick memCtrlSlot = systemCycles(1);
    /** Data network bandwidth per processor: 16 B per system cycle. */
    static constexpr std::uint64_t dataBytesPerSystemCycle = 16;

    static Tick xferLatency(Distance d);
    static Tick directLatency(Distance d);
};

/** Coarse-Grain Coherence Tracking configuration. */
struct CgctParams {
    bool enabled = false;
    std::uint64_t regionBytes = 512;     ///< 256, 512, or 1024 in the paper.
    unsigned rcaSets = 8192;             ///< Table 3: 8192 sets, 2-way.
    unsigned rcaWays = 2;
    /** Line-count-based self-invalidation of empty regions (Section 3.1). */
    bool selfInvalidation = true;
    /** RCA replacement favors regions with no cached lines (Section 3.2). */
    bool favorEmptyRegions = true;
    /**
     * Scaled-back protocol of Section 3.4: one snoop-response bit, three
     * region states (exclusive / not-exclusive / invalid).
     */
    bool threeStateProtocol = false;
    /**
     * One RCA per processor chip, shared by its cores (Section 3.2: "In
     * systems with multiple processing cores per chip, only one RCA is
     * needed for the chip"). Halves the RCA storage of the default
     * four-processor system.
     */
    bool sharedPerChip = false;

    unsigned rcaEntries() const { return rcaSets * rcaWays; }
};

/**
 * Observability knobs (docs/TRACING.md). Both default off; neither
 * affects simulated behavior, only what is recorded / verified.
 */
struct ObservabilityParams {
    /** Buffer structured trace events for the whole run. */
    bool trace = false;
    /**
     * Cross-validate region states against ground-truth cache contents
     * after every transition (sim/invariants.hpp). Debug builds enable
     * this automatically whenever CGCT is on.
     */
    bool checkInvariants = false;
};

/** DMA / I/O-bridge traffic (Table 3's 512-byte DMA buffers). */
struct DmaParams {
    bool enabled = false;
    /** Mean cycles between transfers (exponential-ish spacing). */
    Tick meanInterval = 20000;
    /** Bytes per transfer (Table 3: 512-byte DMA buffers). */
    std::uint64_t bufferBytes = 512;
    /** Fraction of transfers that are reads (device <- memory). */
    double readFraction = 0.5;
    /** Physical range the device targets. */
    Addr targetBase = 0x08000000;
    std::uint64_t targetBytes = 64ULL << 20;
};

/** Topology (Table 3, "System"): chips, data switches, boards. */
struct TopologyParams {
    unsigned numCpus = 4;
    unsigned cpusPerChip = 2;            ///< Cores per processor chip.
    unsigned chipsPerSwitch = 2;         ///< Processor chips per data switch.
    unsigned switchesPerBoard = 2;
    /** Memory interleave granularity across controllers (one per chip). */
    static constexpr std::uint64_t interleaveBytes = 4096;
    static_assert(isPowerOfTwo(interleaveBytes),
                  "the interleave granularity must be a power of two");

    unsigned numChips() const
    {
        return (numCpus + cpusPerChip - 1) / cpusPerChip;
    }
    unsigned numMemCtrls() const { return numChips(); }
    unsigned chipOfCpu(CpuId cpu) const
    {
        return static_cast<unsigned>(cpu) / cpusPerChip;
    }
    unsigned switchOfChip(unsigned chip) const
    {
        return chip / chipsPerSwitch;
    }
    unsigned boardOfSwitch(unsigned sw) const
    {
        return sw / switchesPerBoard;
    }
    /** Distance class between a CPU and a memory controller (chip). */
    Distance distanceCpuToChip(CpuId cpu, unsigned chip) const;
};

/** Top-level system configuration (the modelled part of Table 3). */
struct SystemConfig {
    TopologyParams topology;
    CoreParams core;
    CacheParams l1i{32 * 1024, 4, 64, 1};
    CacheParams l1d{64 * 1024, 4, 64, 1};
    CacheParams l2{1024 * 1024, 2, 64, 12};
    PrefetchParams prefetch;
    InterconnectParams interconnect;
    CgctParams cgct;
    /** I/O-bridge DMA traffic (disabled by default). */
    DmaParams dma;
    /** Tracing / invariant checking (disabled by default). */
    ObservabilityParams obs;

    /** Validate invariants (power-of-two sizes, region >= line, ...). */
    void validate() const;

    /** Pretty-print the Table 3 parameter list. */
    void print(std::ostream &os) const;

    /** Baseline (CGCT disabled) copy of this configuration. */
    SystemConfig baseline() const;

    /** Copy with CGCT enabled at the given region size, keeping this
     *  configuration's RCA geometry. */
    SystemConfig withCgct(std::uint64_t region_bytes) const;

    /** Copy with CGCT enabled at the given region size and RCA
     *  geometry. */
    SystemConfig withCgct(std::uint64_t region_bytes, unsigned rca_sets,
                          unsigned rca_ways) const;
};

/** The paper's default four-processor configuration (Table 3). */
SystemConfig makeDefaultConfig();

} // namespace cgct
