#include "interconnect/interconnect.hpp"

#include <algorithm>

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

Interconnect::ResolveOutcome
Interconnect::resolveRequest(const SystemRequest &req, ResponseFn &fn,
                             std::uint64_t snoop_mask)
{
    const Tick now = eq_.now();

    // Phase 1: conventional line snoop on every selected processor.
    SnoopResponse resp;
    const SnoopKind kind = snoopKindOf(req.type);
    for (SnoopClient *client : clients_) {
        if (client->cpuId() == req.cpu)
            continue;
        if (!snoopMaskHas(snoop_mask, client->cpuId()))
            continue;
        resp.line.fold(client->cpuId(), client->snoopLine(req));
    }

    // The oracle classifies against pre-snoop state: the summary holds it
    // for the snooped CPUs, and the line snoop left the others untouched.
    if (oracle_)
        oracle_->observe(req, resp.line, snoop_mask);

    const bool gets_exclusive =
        requesterGetsExclusive(req.type, resp.line.anyCopy);

    // Phase 2: region snoop — gather the paper's two response bits and
    // apply the Figure 5 downgrades on the other processors. Write-backs
    // need no region information and must not downgrade anyone.
    if (req.type != RequestType::Writeback) {
        for (SnoopClient *client : clients_) {
            if (client->cpuId() == req.cpu)
                continue;
            if (!snoopMaskHas(snoop_mask, client->cpuId()))
                continue;
            resp.region.merge(
                client->snoopRegion(req, gets_exclusive, now));
        }
    }

    // The snoop response identifies the owning memory controller; the
    // requester's RCA caches it for direct write-backs (Section 5.1).
    resp.memCtrl = map_.controllerOf(req.lineAddr);
    MemoryController *mc = memCtrls_[static_cast<unsigned>(resp.memCtrl)];

    Tick data_ready = now;
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

    CGCT_TRACE(trace_, busResolve(now, req.cpu, req.type, req.lineAddr,
                                  resp, gets_exclusive, data_ready));

    fn(resp, data_ready);

    // Response delivered and requester-side state settled: let the
    // invariant checker cross-validate region state vs cache contents.
    if (postResolve_)
        postResolve_(req);

    return ResolveOutcome{gets_exclusive, data_ready};
}

void
Interconnect::saveMaskTable(Serializer &s,
                            const AddrTable<std::uint64_t> &table)
{
    std::vector<std::pair<Addr, std::uint64_t>> entries;
    entries.reserve(table.size());
    table.forEach([&entries](Addr key, std::uint64_t bits) {
        entries.emplace_back(key, bits);
    });
    std::sort(entries.begin(), entries.end());
    s.u64(entries.size());
    for (const auto &e : entries) {
        s.u64(e.first);
        s.u64(e.second);
    }
}

void
Interconnect::loadMaskTable(SectionReader &r,
                            AddrTable<std::uint64_t> &table)
{
    table.clear();
    const std::uint64_t entries = r.u64();
    for (std::uint64_t i = 0; i < entries; ++i) {
        const Addr key = r.u64();
        table.findOrInsert(key) = r.u64();
    }
}

} // namespace cgct
