#include "interconnect/interconnect.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/trace_sink.hpp"
#include "sim/oracle.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

Interconnect::Interconnect(EventQueue &eq, const InterconnectParams &params,
                           const AddressMap &map, DataNetwork &data_net,
                           std::vector<MemoryController *> mem_ctrls)
    : eq_(eq), params_(params), map_(map), dataNet_(data_net),
      memCtrls_(std::move(mem_ctrls))
{
}

SnoopResponse
Interconnect::fanOut(const SystemRequest &req, std::uint64_t snoop_mask,
                     Tick now)
{
    // Phase 1: conventional line snoop on every selected processor.
    SnoopResponse resp;
    for (SnoopClient *client : clients_) {
        if (client->cpuId() != req.cpu &&
            snoopMaskHas(snoop_mask, client->cpuId()))
            resp.line.fold(client->cpuId(), client->snoopLine(req));
    }

    const bool gets_exclusive =
        requesterGetsExclusive(req.type, resp.line.anyCopy);
    noteResolution(req, gets_exclusive);

    // Phase 2: region snoop — gather the paper's two response bits and
    // apply the Figure 5 downgrades on the other processors. Write-backs
    // need no region information and must not downgrade anyone.
    if (req.type != RequestType::Writeback) {
        for (SnoopClient *client : clients_) {
            if (client->cpuId() != req.cpu &&
                snoopMaskHas(snoop_mask, client->cpuId()))
                resp.region.merge(
                    client->snoopRegion(req, gets_exclusive, now));
        }
    }

    // The snoop response identifies the owning memory controller; the
    // requester's RCA caches it for direct write-backs (Section 5.1).
    resp.memCtrl = map_.controllerOf(req.lineAddr);
    return resp;
}

void
Interconnect::resolveRequest(const SystemRequest &req, ResponseFn &fn,
                             std::uint64_t snoop_mask)
{
    const Tick now = eq_.now();
    const SnoopResponse resp = fanOut(req, snoop_mask, now);

    // The oracle classifies against pre-snoop state, which the summary
    // holds for every CPU caching the line: the snoop mask covers them
    // all (invariants F/G), and no CPU outside it has a copy to report.
    if (oracle_)
        oracle_->observe(req, resp.line);

    MemoryController *mc = memCtrls_[static_cast<unsigned>(resp.memCtrl)];
    Tick data_ready = now;
    const SnoopKind kind = snoopKindOf(req.type);
    const bool needs_data = kind == SnoopKind::Read ||
                            kind == SnoopKind::ReadInvalidate;
    if (req.type == RequestType::Writeback) {
        mc->acceptWriteback(now);
    } else if (resp.line.anyWroteBack) {
        mc->acceptWriteback(now);
    }

    if (needs_data) {
        if (resp.line.cacheSupplied) {
            ++stats_.cacheToCache;
            const Distance d = map_.cpuToCpu(req.cpu, resp.line.supplier);
            data_ready = dataNet_.deliver(req.cpu, now, d, 64);
        } else {
            ++stats_.memorySupplied;
            const Tick from_mem = mc->accessOverlapped(now);
            const Distance d = map_.distanceToCtrl(req.cpu, resp.memCtrl);
            data_ready = dataNet_.deliver(req.cpu, from_mem, d, 64);
        }
    }

    CGCT_TRACE(trace_,
               busResolve(now, req.cpu, req.type, req.lineAddr, resp,
                          requesterGetsExclusive(req.type,
                                                 resp.line.anyCopy),
                          data_ready));

    fn(resp, data_ready);

    // Response delivered and requester-side state settled: let the
    // invariant checker cross-validate region state vs cache contents.
    if (postResolve_)
        postResolve_(req);
}

void
Interconnect::addCommonStats(StatGroup &group, const std::string &prefix,
                             const std::string &noun) const
{
    group.addScalar(prefix + ".cache_to_cache",
                    "reads whose data came from another cache",
                    &stats_.cacheToCache);
    group.addScalar(prefix + ".memory_supplied",
                    "reads whose data came from DRAM",
                    &stats_.memorySupplied);
    group.addDerived(prefix + ".avg_per_100k",
                     "average " + noun + " per 100K cycles",
                     [this] { return traffic_.averagePerWindow(eq_.now()); });
    group.addDerived(prefix + ".peak_per_100k",
                     "peak " + noun + " in any 100K-cycle window",
                     [this] {
                         return static_cast<double>(
                             traffic_.peakWindowCount());
                     });
}

void
Interconnect::transferStats(Archive &ar, bool domain_counters)
{
    ar.u64(stats_.broadcasts);
    ar.u64(stats_.queueCycles);
    ar.u64(stats_.cacheToCache);
    ar.u64(stats_.memorySupplied);
    if (domain_counters) {
        ar.u64(stats_.localResolves);
        ar.u64(stats_.interChip);
    }
    traffic_.transfer(ar);
}

FilteredInterconnect::FilteredInterconnect(
    EventQueue &eq, const InterconnectParams &params, const AddressMap &map,
    DataNetwork &data_net, std::vector<MemoryController *> mem_ctrls,
    const TopologyParams &topo, std::uint64_t region_bytes)
    : Interconnect(eq, params, map, data_net, std::move(mem_ctrls)),
      topo_(topo), regionBytes_(region_bytes)
{
    if (topo_.numCpus > 64)
        panic("%s: presence masks are 64-bit; numCpus must be <= 64 "
              "(config.validate should have rejected this)",
              topologyKindName(params.topology));
}

void
FilteredInterconnect::noteResolution(const SystemRequest &req,
                                     bool gets_exclusive)
{
    (void)gets_exclusive;
    if (fromCpu(req) && req.type != RequestType::Writeback)
        presence_.findOrInsert(regionOf(req.lineAddr)) |=
            chipMask(topo_.chipOfCpu(req.cpu));
}

std::uint64_t
FilteredInterconnect::chipMask(unsigned chip) const
{
    const unsigned lo = chip * topo_.cpusPerChip;
    std::uint64_t m = 0;
    for (unsigned c = lo; c < lo + topo_.cpusPerChip && c < topo_.numCpus;
         ++c)
        m |= 1ULL << c;
    return m;
}

void
FilteredInterconnect::transferMaskTable(Archive &ar,
                                        AddrTable<std::uint64_t> &table)
{
    std::vector<std::pair<Addr, std::uint64_t>> entries;
    if (ar.saving()) {
        entries.reserve(table.size());
        table.forEach([&entries](Addr key, std::uint64_t bits) {
            entries.emplace_back(key, bits);
        });
        std::sort(entries.begin(), entries.end());
    }
    entries.resize(ar.count("mask-table entries",
                            static_cast<std::uint64_t>(entries.size()),
                            16));
    for (auto &[key, bits] : entries) {
        ar.u64(key);
        ar.u64(bits);
    }
    if (!ar.saving()) {
        table.clear();
        for (const auto &[key, bits] : entries)
            table.findOrInsert(key) = bits;
    }
}

} // namespace cgct
