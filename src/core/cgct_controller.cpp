#include "core/cgct_controller.hpp"

#include "common/log.hpp"
#include "common/trace_sink.hpp"

namespace cgct {

CgctController::CgctController(CpuId cpu, const CgctParams &params,
                               unsigned line_bytes)
    : cpu_(cpu), params_(params),
      rca_(params.rcaSets, params.rcaWays, params.regionBytes,
           params.favorEmptyRegions)
{
    if (params.regionBytes < line_bytes)
        fatal("CGCT: region size (%llu) smaller than line size (%u)",
              static_cast<unsigned long long>(params.regionBytes),
              line_bytes);
}

void
CgctController::setTraceSink(TraceSink *sink)
{
    trace_ = sink;
    rca_.setTraceSink(sink, cpu_);
}

void
CgctController::traceTransition(Tick now, Addr region_addr,
                                RegionState before, RegionState after,
                                TransitionCause cause, RegionSnoopBits bits,
                                std::uint32_t line_count)
{
    if (before == after)
        return;
    if (trace_)
        trace_->regionTransition(now, cpu_, region_addr, before, after,
                                 cause, bits, line_count);
}

RouteDecision
CgctController::route(RequestType type, Addr line_addr, Tick now)
{
    RouteDecision d;
    RegionEntry *entry = rca_.find(line_addr);
    const RegionState state = entry ? entry->state : RegionState::Invalid;
    d.kind = routeFor(type, state);
    d.state = state;
    if (entry) {
        d.memCtrl = entry->memCtrl;
        rca_.touch(*entry, now);
    }
    if (d.kind == RouteKind::Direct && d.memCtrl == kInvalidMemCtrl)
        panic("CGCT cpu%d: direct route without a memory-controller index",
              cpu_);
    return d;
}

void
CgctController::onBroadcastResponse(RequestType type, Addr line_addr,
                                    bool line_granted_exclusive,
                                    const SnoopResponse &resp, Tick now)
{
    if (type == RequestType::Writeback)
        return; // Write-backs carry no region consequences.

    RegionEntry *entry = rca_.find(line_addr);
    if (!entry) {
        RegionEviction evicted;
        entry = rca_.allocate(line_addr, now, evicted);
        if (evicted.valid && evicted.lineCount > 0) {
            // Inclusion: the displaced region's lines must leave every
            // sharing core's hierarchy; dirty ones go straight to the
            // region's memory controller.
            for (const auto &flush : flush_)
                flush(evicted.regionAddr, params_.regionBytes,
                      evicted.memCtrl);
        }
    }

    RegionSnoopBits bits = resp.region;
    if (params_.threeStateProtocol)
        bits = threeStateBits(bits);
    const RegionState before = entry->state;
    entry->state = squash(afterBroadcast(entry->state, type,
                                         line_granted_exclusive, bits));
    entry->memCtrl = resp.memCtrl;
    rca_.touch(*entry, now);
    traceTransition(now, entry->regionAddr, before, entry->state,
                    TransitionCause::BroadcastResponse, bits,
                    entry->lineCount);
}

void
CgctController::onDirectIssue(RequestType type, Addr line_addr,
                              bool line_granted_exclusive, Tick now)
{
    RegionEntry *entry = rca_.find(line_addr);
    if (!entry) {
        // Only write-backs racing a region eviction may arrive here; the
        // flush path routes them explicitly, so this is a protocol bug.
        panic("CGCT cpu%d: direct issue without a region entry", cpu_);
    }
    const RegionState before = entry->state;
    entry->state = squash(afterSilentLocal(entry->state, type,
                                           line_granted_exclusive));
    rca_.touch(*entry, now);
    traceTransition(now, entry->regionAddr, before, entry->state,
                    TransitionCause::DirectIssue, RegionSnoopBits{},
                    entry->lineCount);
}

void
CgctController::onLocalComplete(RequestType type, Addr line_addr, Tick now)
{
    RegionEntry *entry = rca_.find(line_addr);
    if (!entry)
        panic("CGCT cpu%d: local completion without a region entry", cpu_);
    const RegionState before = entry->state;
    entry->state = squash(afterSilentLocal(entry->state, type,
                                           /*granted_exclusive=*/true));
    rca_.touch(*entry, now);
    traceTransition(now, entry->regionAddr, before, entry->state,
                    TransitionCause::LocalComplete, RegionSnoopBits{},
                    entry->lineCount);
}

void
CgctController::onLineFill(Addr line_addr)
{
    RegionEntry *entry = rca_.find(line_addr);
    if (!entry) {
        // Inclusion violation: a line was installed without region
        // permission being acquired first.
        panic("CGCT cpu%d: line fill without a region entry", cpu_);
    }
    ++entry->lineCount;
}

void
CgctController::onLineEvict(Addr line_addr)
{
    RegionEntry *entry = rca_.find(line_addr);
    if (!entry)
        return; // The region was already evicted (flush in progress).
    if (entry->lineCount == 0)
        panic("CGCT cpu%d: line-count underflow", cpu_);
    --entry->lineCount;
}

RegionSnoopBits
CgctController::externalSnoop(Addr line_addr, bool external_gets_exclusive,
                              Tick now)
{
    RegionEntry *entry = rca_.find(line_addr);
    if (!entry)
        return RegionSnoopBits{};

    if (params_.selfInvalidation && entry->lineCount == 0) {
        // No lines cached: invalidate the region so the requester can take
        // it exclusively (Section 3.1's self-invalidation).
        ++rca_.stats().selfInvalidations;
        traceTransition(now, entry->regionAddr, entry->state,
                        RegionState::Invalid,
                        TransitionCause::SelfInvalidate, RegionSnoopBits{},
                        /*line_count=*/0);
        rca_.invalidate(line_addr);
        return RegionSnoopBits{};
    }

    RegionSnoopBits bits = regionResponseBits(entry->state);
    if (params_.threeStateProtocol)
        bits = threeStateBits(bits);
    const RegionState before = entry->state;
    entry->state = squash(afterExternalSnoop(entry->state,
                                             external_gets_exclusive));
    traceTransition(now, entry->regionAddr, before, entry->state,
                    TransitionCause::ExternalSnoop, bits,
                    entry->lineCount);
    return bits;
}

RegionState
CgctController::peekState(Addr line_addr)
{
    const RegionEntry *entry = rca_.find(line_addr);
    return entry ? entry->state : RegionState::Invalid;
}

std::shared_ptr<RegionTracker>
makeTracker(CpuId cpu, const CgctParams &params, unsigned line_bytes)
{
    if (!params.enabled)
        return nullptr;
    return std::make_shared<CgctController>(cpu, params, line_bytes);
}

} // namespace cgct
