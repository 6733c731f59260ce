#include "interconnect/data_network.hpp"

#include "common/log.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

DataNetwork::DataNetwork(unsigned num_cpus, const InterconnectParams &params)
    : params_(params), linkFree_(num_cpus, 0)
{
}

Tick
DataNetwork::deliver(CpuId dst, Tick start, Distance d, unsigned bytes)
{
    Tick &link = linkFree_[static_cast<unsigned>(dst)];
    const Tick begin = start > link ? start : link;
    stats_.linkWaitCycles += begin - start;
    // Link occupancy: bytes at dataBytesPerSystemCycle.
    const Tick occupancy =
        (bytes + params_.dataBytesPerSystemCycle - 1) /
        params_.dataBytesPerSystemCycle * kCpuCyclesPerSystemCycle;
    link = begin + occupancy;
    ++stats_.transfers;
    stats_.bytes += bytes;
    return begin + params_.xferLatency(d);
}

void
DataNetwork::transfer(Archive &ar)
{
    ar.expect("data-network links",
              static_cast<std::uint64_t>(linkFree_.size()));
    for (Tick &t : linkFree_)
        ar.u64(t);
    ar.u64(stats_.transfers);
    ar.u64(stats_.bytes);
    ar.u64(stats_.linkWaitCycles);
}

void
DataNetwork::addStats(StatGroup &group) const
{
    group.addScalar("data_net.transfers", "data transfers delivered",
                    &stats_.transfers);
    group.addScalar("data_net.bytes", "total bytes moved", &stats_.bytes);
    group.addScalar("data_net.link_wait_cycles",
                    "cycles transfers waited for a busy link",
                    &stats_.linkWaitCycles);
}

} // namespace cgct
