#include "common/config.hpp"

#include <cstdint>
#include <limits>
#include <ostream>

#include "common/log.hpp"

namespace cgct {

const char *
topologyKindName(TopologyKind k)
{
    switch (k) {
      case TopologyKind::Bus:  return "bus";
      case TopologyKind::Hier: return "hier";
      case TopologyKind::Dir:  return "dir";
    }
    return "bus";
}

bool
parseTopologyKind(const std::string &s, TopologyKind *out)
{
    if (s == "bus")
        *out = TopologyKind::Bus;
    else if (s == "hier")
        *out = TopologyKind::Hier;
    else if (s == "dir")
        *out = TopologyKind::Dir;
    else
        return false;
    return true;
}

Tick
InterconnectParams::xferLatency(Distance d) const
{
    switch (d) {
      case Distance::OwnChip:    return xferOwnChip;
      case Distance::SameSwitch: return xferSameSwitch;
      case Distance::SameBoard:  return xferSameBoard;
      case Distance::Remote:     return xferRemote;
    }
    return xferRemote;
}

Tick
InterconnectParams::directLatency(Distance d) const
{
    switch (d) {
      case Distance::OwnChip:    return directOwnChip;
      case Distance::SameSwitch: return directSameSwitch;
      case Distance::SameBoard:  return directSameBoard;
      case Distance::Remote:     return directRemote;
    }
    return directRemote;
}

Distance
TopologyParams::distanceCpuToChip(CpuId cpu, unsigned chip) const
{
    const unsigned my_chip = chipOfCpu(cpu);
    if (my_chip == chip)
        return Distance::OwnChip;
    const unsigned my_switch = switchOfChip(my_chip);
    const unsigned their_switch = switchOfChip(chip);
    if (my_switch == their_switch)
        return Distance::SameSwitch;
    if (boardOfSwitch(my_switch) == boardOfSwitch(their_switch))
        return Distance::SameBoard;
    return Distance::Remote;
}

void
SystemConfig::validate() const
{
    if (topology.numCpus == 0)
        fatal("config: numCpus must be > 0");
    if (!isPowerOfTwo(l2.lineBytes))
        fatal("config: L2 line size must be a power of two");
    if (l1i.lineBytes != l2.lineBytes || l1d.lineBytes != l2.lineBytes)
        fatal("config: L1/L2 line sizes must match (inclusive hierarchy)");
    for (const CacheParams *c : {&l1i, &l1d, &l2}) {
        if (!isPowerOfTwo(c->sizeBytes) || !isPowerOfTwo(c->associativity))
            fatal("config: cache size/associativity must be powers of two");
        if (c->numLines() % c->associativity != 0)
            fatal("config: cache lines not divisible by associativity");
    }
    if (cgct.enabled) {
        if (!isPowerOfTwo(cgct.regionBytes))
            fatal("config: region size must be a power of two");
        if (cgct.regionBytes < l2.lineBytes)
            fatal("config: region size must be >= line size");
        if (!isPowerOfTwo(cgct.rcaSets))
            fatal("config: RCA sets must be a power of two");
        if (cgct.regionBytes > topology.interleaveBytes)
            fatal("config: region size must not exceed memory interleave "
                  "granularity (a region must map to one controller)");
    }
    if (!isPowerOfTwo(topology.interleaveBytes))
        fatal("config: interleave granularity must be a power of two");
    if (interconnect.topology != TopologyKind::Bus &&
        topology.numCpus > 64)
        fatal("config: hier/dir topologies track presence in 64-bit "
              "processor masks; numCpus must be <= 64");
    // An RCA entry holds its memory-controller id in a std::int16_t
    // (core/rca.hpp); Table 2's storage model gives the id only 6 bits.
    if (topology.numMemCtrls() >
        static_cast<unsigned>(std::numeric_limits<std::int16_t>::max()))
        fatal("config: %u memory controllers (one per chip) exceed the "
              "RCA's 16-bit controller id",
              topology.numMemCtrls());
}

SystemConfig
SystemConfig::baseline() const
{
    SystemConfig c = *this;
    c.cgct.enabled = false;
    return c;
}

SystemConfig
SystemConfig::withCgct(std::uint64_t region_bytes) const
{
    SystemConfig c = *this;
    c.cgct.enabled = true;
    c.cgct.regionBytes = region_bytes;
    return c;
}

SystemConfig
SystemConfig::withCgct(std::uint64_t region_bytes, unsigned rca_sets,
                       unsigned rca_ways) const
{
    SystemConfig c = withCgct(region_bytes);
    c.cgct.rcaSets = rca_sets;
    c.cgct.rcaWays = rca_ways;
    return c;
}

void
SystemConfig::print(std::ostream &os) const
{
    os << "System\n"
       << "  Processors (cores)                 " << topology.numCpus << "\n"
       << "  Cores per processor chip           " << topology.cpusPerChip
       << "\n"
       << "  Processor chips per data switch    " << topology.chipsPerSwitch
       << "\n"
       << "  DMA buffer size                    " << dma.bufferBytes
       << " B\n"
       << "Processor\n"
       << "  Clock                              1.5 GHz\n"
       << "  Pipeline                           " << core.pipelineStages
       << " stages\n"
       << "  Fetch queue                        " << core.fetchQueue
       << " instructions\n"
       << "  Decode/Issue/Commit width          " << core.decodeWidth << "/"
       << core.issueWidth << "/" << core.commitWidth << "\n"
       << "  Issue window                       " << core.issueWindow
       << " entries\n"
       << "  ROB                                " << core.robEntries
       << " entries\n"
       << "  Load/Store queue                   " << core.lsqEntries
       << " entries\n"
       << "  Memory ports                       " << core.memPorts << "\n"
       << "Caches\n"
       << "  L1 I: " << l1i.sizeBytes / 1024 << "KB " << l1i.associativity
       << "-way, " << l1i.lineBytes << "B lines, " << l1i.latency
       << "-cycle\n"
       << "  L1 D: " << l1d.sizeBytes / 1024 << "KB " << l1d.associativity
       << "-way, " << l1d.lineBytes << "B lines, " << l1d.latency
       << "-cycle (writeback)\n"
       << "  L2  : " << l2.sizeBytes / 1024 << "KB " << l2.associativity
       << "-way, " << l2.lineBytes << "B lines, " << l2.latency
       << "-cycle (writeback)\n"
       << "  Prefetch: " << (prefetch.enabled ? "Power4-style" : "off")
       << ", " << prefetch.streams << " streams, " << prefetch.runahead
       << "-line runahead, exclusive-prefetch "
       << (prefetch.exclusivePrefetch ? "on" : "off") << "\n"
       << "  Coherence: write-invalidate MOESI (L2), MSI (L1)\n"
       << "Interconnect (CPU cycles, 10 per system cycle)\n"
       << "  Snoop latency                      "
       << interconnect.snoopLatency << "\n"
       << "  DRAM latency                       "
       << interconnect.dramLatency << "\n"
       << "  DRAM latency (overlapped extra)    "
       << interconnect.dramOverlappedExtra << "\n"
       << "  Critical word xfer (own chip)      "
       << interconnect.xferOwnChip << "\n"
       << "  Critical word xfer (same switch)   "
       << interconnect.xferSameSwitch << "\n"
       << "  Critical word xfer (same board)    "
       << interconnect.xferSameBoard << "\n"
       << "  Critical word xfer (remote)        "
       << interconnect.xferRemote << "\n"
       << "  Data bandwidth per processor       "
       << interconnect.dataBytesPerSystemCycle << " B/system-cycle\n"
       << "Coarse-Grain Coherence Tracking\n"
       << "  Enabled                            "
       << (cgct.enabled ? "yes" : "no") << "\n"
       << "  Region size                        " << cgct.regionBytes
       << " B\n"
       << "  Region Coherence Array             " << cgct.rcaSets
       << " sets, " << cgct.rcaWays << "-way ("
       << cgct.rcaEntries() / 1024 << "K entries)\n"
       << "  Direct request latency (own chip)  "
       << interconnect.directOwnChip << "\n"
       << "  Direct request latency (same sw)   "
       << interconnect.directSameSwitch << "\n"
       << "  Direct request latency (same brd)  "
       << interconnect.directSameBoard << "\n"
       << "  Direct request latency (remote)    "
       << interconnect.directRemote << "\n";
}

SystemConfig
makeDefaultConfig()
{
    return SystemConfig{};
}

} // namespace cgct
