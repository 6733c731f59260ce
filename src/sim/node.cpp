#include "sim/node.hpp"

#include "common/log.hpp"
#include "common/trace_sink.hpp"
#include "sim/invariants.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

namespace {

/** Demand ops: they train the prefetcher and refill the L1 on resolve. */
bool
isDemandOp(CpuOpKind kind)
{
    return kind == CpuOpKind::Ifetch || kind == CpuOpKind::Load ||
           kind == CpuOpKind::Store;
}

} // namespace

void
Node::setTraceSink(TraceSink *sink)
{
    trace_ = sink;
    if (tracker_)
        tracker_->setTraceSink(sink);
}

Node::Node(CpuId cpu, const SystemConfig &config, EventQueue &eq,
           Interconnect &bus,
           DataNetwork &data_net, const AddressMap &map,
           std::vector<MemoryController *> mem_ctrls,
           std::shared_ptr<RegionTracker> tracker)
    : cpu_(cpu), config_(config), eq_(eq), bus_(bus), dataNet_(data_net),
      map_(map), memCtrls_(std::move(mem_ctrls)),
      tracker_(std::move(tracker)),
      l1i_("l1i", config.l1i), l1d_("l1d", config.l1d),
      l2_("l2", config.l2), mshr_(config.core.maxOutstandingMisses),
      prefetcher_(config.prefetch, config.l2.lineBytes),
      mshrCtx_(config.core.maxOutstandingMisses)
{
    if (tracker_) {
        tracker_->setFlushHandler(
            [this](Addr region, std::uint64_t bytes, MemCtrlId mc) {
                flushRegion(region, bytes, mc, eq_.now());
            });
    }
}

const CacheLine *
Node::l1Hit(CpuOpKind kind, Addr addr, Tick now)
{
    switch (kind) {
      case CpuOpKind::Ifetch:
        return l1i_.probe(addr, now);

      case CpuOpKind::Load:
        return l1d_.probe(addr, now);

      case CpuOpKind::Store: {
        CacheLine *line = l1d_.probe(addr, now);
        if (!line || line->state == LineState::Modified)
            return line;
        // L1 hit on a shared copy: the L2 (inclusion) decides whether
        // the store may proceed silently.
        CacheLine *l2line = l2_.lookup(addr);
        if (!l2line || !isWritable(l2line->state))
            return nullptr;
        l2line->state = LineState::Modified;
        line->state = LineState::Modified;
        return line;
      }

      case CpuOpKind::Dcbz:
      case CpuOpKind::Dcbf:
      case CpuOpKind::Dcbi:
        return nullptr;
    }
    panic("Node::l1Hit: unknown op kind");
}

bool
Node::l2Hit(CpuOpKind kind, Addr addr, CacheLine *line, RequestType &type)
{
    switch (kind) {
      case CpuOpKind::Ifetch:
      case CpuOpKind::Load:
        if (line)
            return true;
        ++stats_.demandMisses;
        type = kind == CpuOpKind::Ifetch ? RequestType::Ifetch
                                         : RequestType::Read;
        return false;

      case CpuOpKind::Store:
        if (line) {
            if (isWritable(line->state)) {
                line->state = LineState::Modified;
                return true;
            }
            // Shared or Owned: upgrade to a modifiable copy.
            type = RequestType::Upgrade;
            return false;
        }
        ++stats_.demandMisses;
        type = RequestType::ReadExclusive;
        return false;

      case CpuOpKind::Dcbz:
        if (line && isWritable(line->state)) {
            line->state = LineState::Modified;
            if (CacheLine *l1line = l1d_.lookup(addr))
                l1line->state = LineState::Modified;
            return true;
        }
        type = RequestType::Dcbz;
        return false;

      case CpuOpKind::Dcbf:
        type = RequestType::Dcbf;
        return false;

      case CpuOpKind::Dcbi:
        type = RequestType::Dcbi;
        return false;
    }
    panic("Node::l2Hit: unknown op kind");
}

bool
Node::access(CpuOpKind kind, Addr addr, Tick now, Tick &ready_out,
             CompletionFn &&done)
{
    if (const CacheLine *line = l1Hit(kind, addr, now)) {
        const Cache &l1 = kind == CpuOpKind::Ifetch ? l1i_ : l1d_;
        ready_out = std::max(now + l1.latency(), line->readyTick);
        return true;
    }
    return accessL2(kind, addr, now, ready_out, std::move(done));
}

bool
Node::accessL2(CpuOpKind kind, Addr addr, Tick now, Tick &ready_out,
               CompletionFn &&done)
{
    // The snoops this node receives occupy its L2 tag port; local
    // accesses wait behind them (the contention CGCT relieves).
    if (l2TagBusy_ > now) {
        stats_.tagWaitCycles += l2TagBusy_ - now;
        now = l2TagBusy_;
    }

    const Addr line_addr = l2_.lineAlign(addr);

    // Merge with an in-flight transaction for the same line: wait for it
    // to resolve, then replay the access (it usually hits afterwards).
    if (mshr_.contains(line_addr)) {
        mshr_.promoteToDemand(line_addr);
        waiterPool_.push(waiterListFor(line_addr),
                         Waiter{std::move(done), addr, kind,
                                /*fill=*/false, /*replay=*/true});
        return false;
    }

    CacheLine *line = l2_.probe(addr, now);
    const bool demand = isDemandOp(kind);
    if (demand)
        maybePrefetch(line_addr, kind == CpuOpKind::Store, line == nullptr,
                      now);

    RequestType type;
    if (l2Hit(kind, addr, line, type)) {
        if (!demand) {
            ready_out = now + l2_.latency();
            return true;
        }
        fillL1(kind, addr, now, line->readyTick);
        ready_out = std::max(now + l2_.latency(), line->readyTick);
        return true;
    }
    issueSystemRequest(type, line_addr, now,
                       Completion{std::move(done), addr, kind,
                                  /*fill=*/demand},
                       /*is_prefetch=*/false);
    return false;
}

void
Node::issueSystemRequest(RequestType type, Addr line_addr, Tick now,
                         Completion &&c, bool is_prefetch)
{
    // The single switch between the two drivers: during functional
    // warming the request resolves synchronously through the same core
    // steps, with no MSHR, no events and data ready at once.
    if (bus_.functional()) {
        warmRequest(type, line_addr, now, is_prefetch);
        runCompletion(c, now);
        return;
    }

    const bool needs_mshr = type != RequestType::Writeback;
    if (needs_mshr) {
        if (mshr_.contains(line_addr)) {
            // Only prefetches race their own demand stream here.
            if (is_prefetch)
                return;
            panic("cpu%d: duplicate in-flight request for line %llx",
                  cpu_, static_cast<unsigned long long>(line_addr));
        }
        if (mshr_.full()) {
            if (is_prefetch)
                return; // Prefetches never queue for MSHRs.
            pendingPool_.push(pendingMisses_,
                              PendingMiss{type, line_addr, std::move(c),
                                          is_prefetch});
            return;
        }
        const std::uint32_t slot = mshr_.allocate(line_addr, is_prefetch);
        mshrCtx_[slot] = std::move(c);
    }
    dispatchSystemRequest(type, line_addr, now, is_prefetch);
}

RouteDecision
Node::routeRequest(RequestType type, Addr line_addr, Tick now)
{
    RouteDecision route;
    if (tracker_)
        route = tracker_->route(type, line_addr, now);
    if (trace_)
        trace_->route(now, cpu_, type, line_addr, route.kind, route.state);
    countRoute(type, route.kind);
    return route;
}

void
Node::countRoute(RequestType type, RouteKind kind)
{
    ++stats_.requestsTotal;
    const auto cat = static_cast<std::size_t>(categoryOf(type));
    switch (kind) {
      case RouteKind::Broadcast:
        ++stats_.broadcasts;
        ++stats_.broadcastsByCat[cat];
        break;
      case RouteKind::Direct:
        ++stats_.directs;
        ++stats_.directsByCat[cat];
        break;
      case RouteKind::LocalComplete:
        ++stats_.localCompletes;
        ++stats_.localByCat[cat];
        break;
    }
}

void
Node::dispatchSystemRequest(RequestType type, Addr line_addr, Tick now,
                            bool is_prefetch)
{
    // Merge with an in-flight region acquisition: the first broadcast to
    // an Invalid region fetches the region snoop response; later requests
    // to the same region wait for it rather than broadcasting too. The
    // waiter's Completion stays in its MSHR slot.
    if (tracker_ && type != RequestType::Writeback) {
        const Addr region = alignDown(line_addr, config_.cgct.regionBytes);
        if (auto *list = pendingRegionAcq_.find(region)) {
            regionWaiterPool_.push(
                *list, RegionWaiter{type, line_addr, is_prefetch, now});
            return;
        }
    }

    const RouteDecision route = routeRequest(type, line_addr, now);

    if (tracker_ && !drainingRegion_ && type != RequestType::Writeback &&
        route.kind == RouteKind::Broadcast &&
        tracker_->peekState(line_addr) == RegionState::Invalid) {
        // This broadcast acquires the region; queue followers behind it.
        pendingRegionAcq_.insert(
            alignDown(line_addr, config_.cgct.regionBytes));
    }

    switch (route.kind) {
      case RouteKind::Broadcast: {
        const SystemRequest req{cpu_, type, line_addr, is_prefetch};
        // The bus orders requests at their issue tick; the core's local
        // clock may be ahead of global event time, so enter the bus then.
        const Tick when = std::max(now, eq_.now());
        eq_.schedule(when,
                     [this, req, issued = now] {
                         postBroadcast(req, issued);
                     },
                     EventPriority::Cpu);
        break;
      }

      case RouteKind::Direct: {
        MemCtrlId mc = route.memCtrl;
        if (mc == kInvalidMemCtrl) {
            // Trackers without a memory-controller index (RegionScout)
            // rely on the fabric to route the packet.
            mc = map_.controllerOf(line_addr);
        }
        issueDirect(type, line_addr, mc, now, is_prefetch);
        break;
      }

      case RouteKind::LocalComplete:
        completeLocally(type, line_addr, now);
        break;
    }
}

void
Node::postBroadcast(const SystemRequest &req, Tick issued)
{
    bus_.broadcast(req, [this, req, issued](const SnoopResponse &resp,
                                            Tick data_ready) {
        handleBroadcastResponse(req.type, req.lineAddr, resp, data_ready);
        if (!req.isPrefetch && req.type != RequestType::Writeback)
            noteMissLatency(issued, data_ready);
    });
}

LineState
Node::directGrant(RequestType type, Addr line_addr, Tick now)
{
    // The region permission proves what copy we can take without asking.
    const bool region_exclusive =
        isRegionExclusive(tracker_->peekState(line_addr));
    const LineState granted =
        grantedState(type, /*other_had_copy=*/!region_exclusive);
    tracker_->onDirectIssue(type, line_addr, isWritable(granted), now);
    return granted;
}

void
Node::issueDirect(RequestType type, Addr line_addr, MemCtrlId mc, Tick now,
                  bool is_prefetch)
{
    const Distance dist = map_.distanceToCtrl(cpu_, mc);
    MemoryController *ctrl = memCtrls_[static_cast<unsigned>(mc)];
    const Tick arrival = now + config_.interconnect.directLatency(dist);

    if (type == RequestType::Writeback) {
        ctrl->acceptWriteback(arrival);
        return;
    }

    const LineState granted = directGrant(type, line_addr, now);
    const Tick from_mem = ctrl->accessDirect(arrival);
    const Tick data_ready = dataNet_.deliver(cpu_, from_mem, dist,
                                             config_.l2.lineBytes);

    installL2Line(line_addr, granted, now, data_ready);
    if (checker_)
        checker_->onTransition(line_addr, "direct_issue");

    // Backdated dispatches (speculative fetches resolved by a region
    // acquisition) may complete logically in the past; deliver them now.
    eq_.schedule(std::max(data_ready, eq_.now()),
                 [this, line_addr, issued = now, is_prefetch] {
                     Completion c = grabMshrCtx(line_addr);
                     releaseMshr(line_addr);
                     drainFillWaiters(line_addr, eq_.now());
                     if (!is_prefetch)
                         noteMissLatency(issued, eq_.now());
                     runCompletion(c, eq_.now());
                 },
                 EventPriority::Data);
}

void
Node::resolveLocal(RequestType type, Addr line_addr, Tick now, Tick ready)
{
    tracker_->onLocalComplete(type, line_addr, now);
    // Only an exclusive region completes locally: no other copy exists.
    applyResponse(type, line_addr,
                  grantedState(type, /*other_had_copy=*/false), now, ready);
    if (checker_)
        checker_->onTransition(line_addr, "local_complete");
}

void
Node::completeLocally(RequestType type, Addr line_addr, Tick now)
{
    const Tick ready = now + l2_.latency();
    resolveLocal(type, line_addr, now, ready);

    Completion c = grabMshrCtx(line_addr);
    releaseMshr(line_addr);
    if (c.done || c.fill) {
        // Defer the completion so callers never observe their callback
        // firing inside the access() call itself. Backdated dispatches
        // may have a logical completion in the past; deliver them now.
        eq_.schedule(std::max(ready, eq_.now()),
                     [this, c = std::move(c), ready]() mutable {
                         runCompletion(c, ready);
                     },
                     EventPriority::Data);
    }
}

void
Node::resolveBroadcast(RequestType type, Addr line_addr,
                       const SnoopResponse &resp, Tick now, Tick ready)
{
    const LineState granted = grantedState(type, resp.line.anyCopy);
    if (tracker_) {
        tracker_->onBroadcastResponse(type, line_addr, isWritable(granted),
                                      resp, now);
        if (type != RequestType::Writeback)
            releaseRegionWaiters(line_addr);
    }
    applyResponse(type, line_addr, granted, now, ready);
}

void
Node::applyResponse(RequestType type, Addr line_addr, LineState granted,
                    Tick now, Tick ready)
{
    switch (type) {
      case RequestType::Upgrade:
      case RequestType::Dcbz:
        if (CacheLine *line = l2_.lookup(line_addr)) {
            line->state = LineState::Modified;
            if (CacheLine *l1line = l1d_.lookup(line_addr))
                l1line->state = LineState::Modified;
            break;
        }
        // An earlier-ordered external request took the line away; the
        // upgrade degenerates into a refetch. The data latency is
        // approximated by the request that already ran.
        if (type == RequestType::Upgrade)
            ++stats_.upgradeRaces;
        [[fallthrough]];

      case RequestType::Read:
      case RequestType::ReadExclusive:
      case RequestType::Ifetch:
      case RequestType::Prefetch:
      case RequestType::PrefetchExclusive:
        installL2Line(line_addr, granted, now, ready);
        break;

      case RequestType::Dcbf:
      case RequestType::Dcbi:
        if (const CacheLine *line = l2_.lookup(line_addr)) {
            const bool dirty = isDirty(line->state) &&
                               type == RequestType::Dcbf;
            dropLine(line_addr);
            if (dirty)
                issueWriteback(line_addr, now);
        }
        break;

      case RequestType::Writeback:
        break; // The data already sank into the controller.
    }
}

void
Node::handleBroadcastResponse(RequestType type, Addr line_addr,
                              const SnoopResponse &resp, Tick data_ready)
{
    const Tick now = eq_.now();
    resolveBroadcast(type, line_addr, resp, now, data_ready);

    const bool needs_mshr = type != RequestType::Writeback;
    if (data_ready > now) {
        eq_.schedule(data_ready,
                     [this, line_addr, needs_mshr, data_ready] {
                         finishRequest(line_addr, needs_mshr, data_ready);
                     },
                     EventPriority::Data);
    } else {
        finishRequest(line_addr, needs_mshr, now);
    }
}

void
Node::releaseRegionWaiters(Addr line_addr)
{
    // The region snoop response arrived: release any requests that were
    // waiting behind this region acquisition. They re-route with the
    // fresh region state (usually direct or local now). Functional
    // warming never queues any.
    const Addr region = alignDown(line_addr, config_.cgct.regionBytes);
    PoolFifo<RegionWaiter>::List waiting;
    if (!pendingRegionAcq_.take(region, waiting))
        return;
    drainingRegion_ = true;
    RegionWaiter p;
    while (regionWaiterPool_.pop(waiting, p)) {
        // Requests that can now go direct had their memory fetch started
        // speculatively alongside the acquisition broadcast, so they
        // dispatch with their original timestamp; requests that must
        // broadcast pay full price from now (the bus schedules them at
        // >= now anyway).
        dispatchSystemRequest(p.type, p.lineAddr, p.queuedAt,
                              p.isPrefetch);
    }
    drainingRegion_ = false;
}

Node::Completion
Node::grabMshrCtx(Addr line_addr)
{
    Completion c;
    const std::uint32_t slot = mshr_.slotOf(line_addr);
    if (slot != MshrFile::kNoSlot) {
        c = std::move(mshrCtx_[slot]);
        mshrCtx_[slot] = Completion{};
    }
    return c;
}

void
Node::runCompletion(Completion &c, Tick ready)
{
    if (c.fill)
        fillL1(c.kind, c.addr, ready, ready);
    if (c.done)
        c.done(ready);
}

void
Node::finishRequest(Addr line_addr, bool needs_mshr, Tick ready)
{
    Completion c;
    if (needs_mshr) {
        // Grab the context before releasing: the release may start a
        // queued miss that claims (and overwrites) this very slot.
        c = grabMshrCtx(line_addr);
        releaseMshr(line_addr);
    }
    drainFillWaiters(line_addr, ready);
    runCompletion(c, ready);
}

void
Node::drainFillWaiters(Addr line_addr, Tick ready)
{
    PoolFifo<Waiter>::List list;
    if (!fillWaiters_.take(line_addr, list))
        return;
    // The list was moved out of the table, so re-registrations from the
    // replays below land on a fresh list for the next fill.
    Waiter w;
    while (waiterPool_.pop(list, w)) {
        if (w.replay) {
            Tick r;
            if (access(w.kind, w.addr, ready, r, std::move(w.done)))
                w.done(r);
        } else {
            if (w.fill)
                fillL1(w.kind, w.addr, ready, ready);
            if (w.done)
                w.done(ready);
        }
    }
}

PoolFifo<Node::Waiter>::List &
Node::waiterListFor(Addr line_addr)
{
    if (auto *list = fillWaiters_.find(line_addr))
        return *list;
    return fillWaiters_.insert(line_addr);
}

void
Node::installL2Line(Addr line_addr, LineState state, Tick now, Tick ready)
{
    Eviction evicted;
    l2_.fill(line_addr, state, now, ready, evicted);
    if (evicted.valid)
        evictL2Line(evicted.lineAddr, evicted.state, now);
    if (tracker_)
        tracker_->onLineFill(line_addr);
}

void
Node::fillL1(CpuOpKind kind, Addr addr, Tick now, Tick ready)
{
    // The L2 line may already have been displaced (or invalidated) between
    // the fill and this completion; skip the L1 install to keep inclusion.
    const CacheLine *l2line = l2_.lookup(addr);
    if (!l2line)
        return;
    Cache &l1 = (kind == CpuOpKind::Ifetch) ? l1i_ : l1d_;
    // The L1 copy takes the L2's *current* permission: an external snoop
    // may have downgraded the line (e.g. M -> O) between the grant and
    // this completion, and a Modified L1 copy over a non-Modified L2 line
    // would enable silent stores that remote sharers never observe.
    const LineState state = (kind == CpuOpKind::Store &&
                             l2line->state == LineState::Modified)
                                ? LineState::Modified
                                : LineState::Shared;
    if (CacheLine *line = l1.lookup(addr)) {
        if (state == LineState::Modified)
            line->state = LineState::Modified;
        if (ready > line->readyTick)
            line->readyTick = ready;
        l1.array().touch(*line, now);
        return;
    }
    Eviction evicted;
    l1.fill(addr, state, now, ready, evicted);
    if (evicted.valid && isDirty(evicted.state)) {
        // Fold the dirty L1 line back into the (inclusive) L2.
        if (CacheLine *l2line = l2_.lookup(evicted.lineAddr))
            l2line->state = LineState::Modified;
    }
}

void
Node::evictL2Line(Addr line_addr, LineState state, Tick now)
{
    // L1 copies must go (inclusion). A dirty L1 copy implies the L2 line
    // was already Modified (state is folded through on L1 fills).
    l1d_.invalidateLine(line_addr);
    l1i_.invalidateLine(line_addr);
    if (tracker_)
        tracker_->onLineEvict(line_addr);
    if (isDirty(state))
        issueWriteback(line_addr, now);
}

void
Node::issueWriteback(Addr line_addr, Tick now)
{
    ++stats_.writebacksIssued;
    issueSystemRequest(RequestType::Writeback, line_addr, now,
                       Completion{}, /*is_prefetch=*/false);
}

void
Node::flushRegion(Addr region_addr, std::uint64_t region_bytes,
                  MemCtrlId mc, Tick now)
{
    // Collect the region's lines first: invalidation mutates the array.
    flushScratch_.clear();
    l2_.array().forEachInRange(region_addr, region_bytes,
                               [this](const CacheLine &line) {
                                   flushScratch_.emplace_back(line.lineAddr,
                                                              line.state);
                               });
    for (const auto &[addr, state] : flushScratch_) {
        l1d_.invalidateLine(addr);
        l1i_.invalidateLine(addr);
        l2_.invalidateLine(addr);
        ++stats_.inclusionWritebacks;
        if (isDirty(state)) {
            // The dying region entry still knows its memory controller;
            // the write-back goes directly there. Functional warming
            // skips the controller timing, as for any other write-back.
            ++stats_.writebacksIssued;
            countRoute(RequestType::Writeback, RouteKind::Direct);
            if (!bus_.functional())
                issueDirect(RequestType::Writeback, addr, mc, now,
                            /*is_prefetch=*/false);
        }
    }
}

void
Node::maybePrefetch(Addr line_addr, bool is_store, bool was_miss, Tick now)
{
    prefetchScratch_.clear();
    prefetcher_.observe(line_addr, is_store, was_miss, prefetchScratch_);
    for (const PrefetchCandidate &c : prefetchScratch_) {
        if (l2_.lookup(c.lineAddr) || mshr_.contains(c.lineAddr))
            continue;
        // Keep headroom for demand misses.
        if (mshr_.inFlight() + 2 >= mshr_.capacity())
            break;
        if (tracker_ && config_.cgct.regionPrefetchHints) {
            // Section 6 extension: externally-dirty regions are poor
            // prefetch targets (the data would likely be stale or stolen).
            if (isExternallyDirty(tracker_->peekState(c.lineAddr)))
                continue;
        }
        ++stats_.prefetchesIssued;
        issueSystemRequest(c.exclusive ? RequestType::PrefetchExclusive
                                       : RequestType::Prefetch,
                           c.lineAddr, now, Completion{},
                           /*is_prefetch=*/true);
    }
}

void
Node::releaseMshr(Addr line_addr)
{
    if (!mshr_.release(line_addr))
        return;
    PendingMiss p;
    while (!mshr_.full() && pendingPool_.pop(pendingMisses_, p)) {
        const Tick now = eq_.now();
        // The world may have changed while the miss was queued.
        if (CacheLine *line = l2_.lookup(p.lineAddr)) {
            const bool store_like = wantsExclusive(p.type);
            if (!store_like || isWritable(line->state)) {
                if (store_like)
                    line->state = LineState::Modified;
                runCompletion(p.c, std::max(now + l2_.latency(),
                                            line->readyTick));
                continue;
            }
        }
        if (mshr_.contains(p.lineAddr)) {
            waiterPool_.push(waiterListFor(p.lineAddr),
                             Waiter{std::move(p.c.done), p.c.addr,
                                    p.c.kind, p.c.fill,
                                    /*replay=*/false});
            continue;
        }
        const std::uint32_t slot = mshr_.allocate(p.lineAddr, p.isPrefetch);
        mshrCtx_[slot] = std::move(p.c);
        dispatchSystemRequest(p.type, p.lineAddr, now, p.isPrefetch);
    }
}

void
Node::dropLine(Addr line_addr)
{
    l1d_.invalidateLine(line_addr);
    l1i_.invalidateLine(line_addr);
    l2_.invalidateLine(line_addr);
    if (tracker_)
        tracker_->onLineEvict(line_addr);
}

LineSnoopOutcome
Node::snoopLine(const SystemRequest &req)
{
    // The external lookup occupies this node's L2 tag port; functional
    // warming has no time to occupy.
    if (!bus_.functional()) {
        ++stats_.snoopsReceived;
        l2TagBusy_ = std::max(l2TagBusy_, eq_.now()) +
                     config_.interconnect.snoopTagOccupancy;
    }
    // A region this node's tracker proves empty here holds no line to
    // find (invariants D/E), and a missed lookup touches nothing, so the
    // lookup is skipped; the port is charged all the same.
    CacheLine *line = !tracker_ || tracker_->mayHoldLines(req.lineAddr)
                          ? l2_.lookup(req.lineAddr)
                          : nullptr;
    const LineSnoopOutcome out =
        applyLineSnoop(line ? line->state : LineState::Invalid,
                       snoopKindOf(req.type));
    if (line && out.next != out.before) {
        if (out.next == LineState::Invalid) {
            dropLine(req.lineAddr);
        } else {
            line->state = out.next;
            // The L1 keeps at most a shared copy after any snoop hit.
            if (CacheLine *l1line = l1d_.lookup(req.lineAddr))
                l1line->state = LineState::Shared;
        }
    }
    return out;
}

RegionSnoopBits
Node::snoopRegion(const SystemRequest &req, bool requester_gets_exclusive,
                  Tick now)
{
    if (!tracker_)
        return RegionSnoopBits{};
    // With one RCA per chip (Section 3.2), a sibling core's request is
    // not external to this tracker: it neither reports nor downgrades.
    if (config_.cgct.sharedPerChip && req.cpu >= 0 &&
        static_cast<unsigned>(req.cpu) < config_.topology.numCpus &&
        config_.topology.chipOfCpu(req.cpu) ==
            config_.topology.chipOfCpu(cpu_)) {
        return RegionSnoopBits{};
    }
    return tracker_->externalSnoop(req.lineAddr, requester_gets_exclusive,
                                   now);
}

// ---------------------------------------------------------------------------
// Functional warming (docs/SAMPLING.md): the second driver of the protocol
// core above. Each op resolves synchronously at the warm tick through the
// same core steps as a timed request, with data ready at once: no events,
// no bus arbitration, no MSHR occupancy and no latency. A broadcast
// resolves through the interconnect's fan-out without its timing tail.

void
Node::warmAccess(CpuOpKind kind, Addr addr, Tick now)
{
    if (!bus_.functional())
        panic("cpu%d: warmAccess outside functional mode", cpu_);
    if (!l1Hit(kind, addr, now))
        warmL2Access(kind, addr, now);
}

void
Node::warmL2Access(CpuOpKind kind, Addr addr, Tick now)
{
    const Addr line_addr = l2_.lineAlign(addr);
    CacheLine *line = l2_.probe(addr, now);
    const bool demand = isDemandOp(kind);
    if (demand) {
        maybePrefetch(line_addr, kind == CpuOpKind::Store, line == nullptr,
                      now);
        // The prefetches resolved at once and may have filled (or
        // displaced) the line.
        line = l2_.probe(addr, now);
    }

    RequestType type;
    if (l2Hit(kind, addr, line, type)) {
        if (demand)
            fillL1(kind, addr, now, now);
        return;
    }
    issueSystemRequest(type, line_addr, now,
                       Completion{{}, addr, kind, /*fill=*/demand},
                       /*is_prefetch=*/false);
}

void
Node::warmRequest(RequestType type, Addr line_addr, Tick now,
                  bool is_prefetch)
{
    const RouteDecision route = routeRequest(type, line_addr, now);
    switch (route.kind) {
      case RouteKind::Broadcast: {
        const SystemRequest req{cpu_, type, line_addr, is_prefetch};
        resolveBroadcast(type, line_addr, bus_.resolveNow(req, now), now,
                         now);
        if (checker_)
            checker_->onTransition(line_addr, "warm_broadcast");
        break;
      }

      case RouteKind::Direct:
        // A write-back changes no architectural state.
        if (type != RequestType::Writeback) {
            installL2Line(line_addr, directGrant(type, line_addr, now), now,
                          now);
            if (checker_)
                checker_->onTransition(line_addr, "direct_issue");
        }
        break;

      case RouteKind::LocalComplete:
        resolveLocal(type, line_addr, now, now);
        break;
    }
}

void
Node::noteMissLatency(Tick issued, Tick ready)
{
    stats_.memLatencySum += ready - issued;
    ++stats_.memLatencyCount;
    missLatencyHist_.record(ready - issued);
}

void
Node::transfer(Archive &ar)
{
    if (ar.saving() &&
        (mshr_.inFlight() != 0 || !fillWaiters_.empty() ||
         !pendingMisses_.empty() || !pendingRegionAcq_.empty() ||
         drainingRegion_))
        panic("Node: serializing cpu %d with requests in flight — "
              "snapshots require a drained (quiescent) system", cpu_);
    l1i_.transfer(ar);
    l1d_.transfer(ar);
    l2_.transfer(ar);
    mshr_.transfer(ar);
    prefetcher_.transfer(ar);
    ar.u64(l2TagBusy_);
    ar.u64(stats_.requestsTotal);
    ar.u64(stats_.broadcasts);
    ar.u64(stats_.directs);
    ar.u64(stats_.localCompletes);
    for (std::size_t i = 0; i < Stats::kNumCat; ++i) {
        ar.u64(stats_.broadcastsByCat[i]);
        ar.u64(stats_.directsByCat[i]);
        ar.u64(stats_.localByCat[i]);
    }
    ar.u64(stats_.writebacksIssued);
    ar.u64(stats_.demandMisses);
    ar.u64(stats_.prefetchesIssued);
    ar.u64(stats_.upgradeRaces);
    ar.u64(stats_.inclusionWritebacks);
    ar.u64(stats_.snoopsReceived);
    ar.u64(stats_.tagWaitCycles);
    ar.u64(stats_.memLatencySum);
    ar.u64(stats_.memLatencyCount);
    missLatencyHist_.transfer(ar);
}

void
Node::resetStats()
{
    stats_ = Stats{};
    missLatencyHist_.reset();
    l1i_.resetStats();
    l1d_.resetStats();
    l2_.resetStats();
}

void
Node::addStats(StatGroup &group) const
{
    group.addScalar("requests_total", "system requests issued",
                    &stats_.requestsTotal);
    group.addScalar("broadcasts", "requests broadcast",
                    &stats_.broadcasts);
    group.addScalar("directs", "requests sent directly to memory",
                    &stats_.directs);
    group.addScalar("local_completes",
                    "requests completed with no external request",
                    &stats_.localCompletes);
    group.addScalar("writebacks", "write-backs issued",
                    &stats_.writebacksIssued);
    group.addScalar("demand_misses", "demand L2 misses",
                    &stats_.demandMisses);
    group.addScalar("prefetches", "prefetches issued",
                    &stats_.prefetchesIssued);
    group.addScalar("upgrade_races",
                    "upgrades that lost the line before resolving",
                    &stats_.upgradeRaces);
    group.addScalar("inclusion_writebacks",
                    "lines flushed by region evictions",
                    &stats_.inclusionWritebacks);
    group.addScalar("snoops_received",
                    "external snoops that probed this node's tags",
                    &stats_.snoopsReceived);
    group.addScalar("tag_wait_cycles",
                    "cycles local accesses waited behind snoop lookups",
                    &stats_.tagWaitCycles);
    group.addDerived("avg_miss_latency",
                     "average demand miss latency (cycles)",
                     [this] {
                         return stats_.memLatencyCount
                                    ? static_cast<double>(
                                          stats_.memLatencySum) /
                                          static_cast<double>(
                                              stats_.memLatencyCount)
                                    : 0.0;
                     });
    group.addHistogram("miss_latency",
                       "demand miss latency distribution (cycles)",
                       &missLatencyHist_);
    l1i_.addStats(group);
    l1d_.addStats(group);
    l2_.addStats(group);
    prefetcher_.addStats(group);
    if (tracker_)
        tracker_->addStats(group);
}

} // namespace cgct
