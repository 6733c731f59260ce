#include "interconnect/data_network.hpp"

#include "common/log.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

Tick
DataNetwork::deliver(CpuId dst, Tick start, Distance d, unsigned bytes)
{
    Tick &link = linkFree_[static_cast<unsigned>(dst)];
    const Tick begin = start > link ? start : link;
    stats_.linkWaitCycles += begin - start;
    // Link occupancy: bytes at dataBytesPerSystemCycle.
    constexpr Tick kBytesPerSlot = InterconnectParams::dataBytesPerSystemCycle;
    const Tick occupancy = (bytes + kBytesPerSlot - 1) / kBytesPerSlot *
                           kCpuCyclesPerSystemCycle;
    link = begin + occupancy;
    ++stats_.transfers;
    stats_.bytes += bytes;
    return begin + InterconnectParams::xferLatency(d);
}

void
DataNetwork::transfer(Archive &ar)
{
    ar.expect("data-network links",
              static_cast<std::uint64_t>(linkFree_.size()));
    for (Tick &t : linkFree_)
        ar.u64(t);
    ar.counters(stats_);
}

} // namespace cgct
