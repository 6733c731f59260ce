#include "sim/node.hpp"

#include <string>
#include <unordered_map>

#include "common/log.hpp"
#include "sim/invariants.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

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

bool
Node::access(CpuOpKind kind, Addr addr, Tick now, Tick &ready_out,
             CompletionFn &&done)
{
    switch (kind) {
      case CpuOpKind::Ifetch:
        if (CacheLine *line = l1i_.probe(addr, now)) {
            ready_out = std::max(now + l1i_.latency(), line->readyTick);
            return true;
        }
        return accessL2(kind, addr, now, ready_out, std::move(done));

      case CpuOpKind::Load:
        if (CacheLine *line = l1d_.probe(addr, now)) {
            ready_out = std::max(now + l1d_.latency(), line->readyTick);
            return true;
        }
        return accessL2(kind, addr, now, ready_out, std::move(done));

      case CpuOpKind::Store:
        if (CacheLine *line = l1d_.probe(addr, now)) {
            if (line->state == LineState::Modified) {
                ready_out = std::max(now + l1d_.latency(), line->readyTick);
                return true;
            }
            // L1 hit on a shared copy: the L2 (inclusion) decides whether
            // the store may proceed silently.
            CacheLine *l2line = l2_.peekMutable(addr);
            if (l2line && isWritable(l2line->state)) {
                l2line->state = LineState::Modified;
                line->state = LineState::Modified;
                ready_out = std::max(now + l1d_.latency(), line->readyTick);
                return true;
            }
        }
        return accessL2(kind, addr, now, ready_out, std::move(done));

      case CpuOpKind::Dcbz:
      case CpuOpKind::Dcbf:
      case CpuOpKind::Dcbi:
        return accessL2(kind, addr, now, ready_out, std::move(done));
    }
    panic("Node::access: unknown op kind");
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
    const bool was_miss = line == nullptr;
    const bool is_store_like = kind == CpuOpKind::Store;

    if (kind == CpuOpKind::Ifetch || kind == CpuOpKind::Load ||
        kind == CpuOpKind::Store) {
        maybePrefetch(line_addr, is_store_like, was_miss, now);
    }

    switch (kind) {
      case CpuOpKind::Ifetch:
      case CpuOpKind::Load:
        if (line) {
            fillL1(kind, addr, now, line->readyTick);
            ready_out = std::max(now + l2_.latency(), line->readyTick);
            return true;
        }
        ++stats_.demandMisses;
        issueSystemRequest(kind == CpuOpKind::Ifetch
                               ? RequestType::Ifetch
                               : RequestType::Read,
                           line_addr, now,
                           Completion{std::move(done), addr, kind,
                                      /*fill=*/true},
                           /*is_prefetch=*/false);
        return false;

      case CpuOpKind::Store:
        if (line) {
            if (isWritable(line->state)) {
                line->state = LineState::Modified;
                fillL1(kind, addr, now, line->readyTick);
                ready_out = std::max(now + l2_.latency(), line->readyTick);
                return true;
            }
            // Shared or Owned: upgrade to a modifiable copy.
            issueSystemRequest(RequestType::Upgrade, line_addr, now,
                               Completion{std::move(done), addr, kind,
                                          /*fill=*/true},
                               /*is_prefetch=*/false);
            return false;
        }
        ++stats_.demandMisses;
        issueSystemRequest(RequestType::ReadExclusive, line_addr, now,
                           Completion{std::move(done), addr, kind,
                                      /*fill=*/true},
                           /*is_prefetch=*/false);
        return false;

      case CpuOpKind::Dcbz:
        if (line && isWritable(line->state)) {
            line->state = LineState::Modified;
            if (CacheLine *l1line = l1d_.peekMutable(addr))
                l1line->state = LineState::Modified;
            ready_out = now + l2_.latency();
            return true;
        }
        issueSystemRequest(RequestType::Dcbz, line_addr, now,
                           Completion{std::move(done), addr, kind,
                                      /*fill=*/false},
                           /*is_prefetch=*/false);
        return false;

      case CpuOpKind::Dcbf:
        issueSystemRequest(RequestType::Dcbf, line_addr, now,
                           Completion{std::move(done), addr, kind,
                                      /*fill=*/false},
                           /*is_prefetch=*/false);
        return false;

      case CpuOpKind::Dcbi:
        issueSystemRequest(RequestType::Dcbi, line_addr, now,
                           Completion{std::move(done), addr, kind,
                                      /*fill=*/false},
                           /*is_prefetch=*/false);
        return false;
    }
    panic("Node::accessL2: unknown op kind");
}

void
Node::issueSystemRequest(RequestType type, Addr line_addr, Tick now,
                         Completion &&c, bool is_prefetch)
{
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

    ++stats_.requestsTotal;
    const auto cat = static_cast<std::size_t>(categoryOf(type));

    RouteDecision route;
    if (tracker_)
        route = tracker_->route(type, line_addr, now);
    traceRouteDecision(trace_, now, cpu_, type, line_addr, route.kind,
                       route.state);

    if (tracker_ && !drainingRegion_ && type != RequestType::Writeback &&
        route.kind == RouteKind::Broadcast &&
        tracker_->peekState(line_addr) == RegionState::Invalid) {
        // This broadcast acquires the region; queue followers behind it.
        pendingRegionAcq_.insert(
            alignDown(line_addr, config_.cgct.regionBytes));
    }

    switch (route.kind) {
      case RouteKind::Broadcast: {
        ++stats_.broadcasts;
        ++stats_.broadcastsByCat[cat];
        SystemRequest req;
        req.cpu = cpu_;
        req.type = type;
        req.lineAddr = line_addr;
        req.isPrefetch = is_prefetch;
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
        ++stats_.directs;
        ++stats_.directsByCat[cat];
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
        ++stats_.localCompletes;
        ++stats_.localByCat[cat];
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

    // The region permission proves what copy we can take without asking.
    const RegionState region_state =
        tracker_ ? tracker_->peekState(line_addr) : RegionState::Invalid;
    const bool region_exclusive = isRegionExclusive(region_state);
    const LineState granted =
        grantedState(type, /*other_had_copy=*/!region_exclusive);

    tracker_->onDirectIssue(type, line_addr,
                            granted == LineState::Exclusive ||
                                granted == LineState::Modified,
                            now);

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
Node::completeLocally(RequestType type, Addr line_addr, Tick now)
{
    tracker_->onLocalComplete(type, line_addr, now);
    const Tick ready = now + l2_.latency();

    switch (type) {
      case RequestType::Upgrade: {
        CacheLine *line = l2_.peekMutable(line_addr);
        if (line) {
            line->state = LineState::Modified;
            if (CacheLine *l1line = l1d_.peekMutable(line_addr))
                l1line->state = LineState::Modified;
        } else {
            // The line was displaced between the store probe and now.
            ++stats_.upgradeRaces;
            installL2Line(line_addr, LineState::Modified, now, ready);
        }
        break;
      }

      case RequestType::Dcbz: {
        CacheLine *line = l2_.peekMutable(line_addr);
        if (line) {
            line->state = LineState::Modified;
            if (CacheLine *l1line = l1d_.peekMutable(line_addr))
                l1line->state = LineState::Modified;
        } else {
            installL2Line(line_addr, LineState::Modified, now, ready);
        }
        break;
      }

      case RequestType::Dcbf: {
        CacheLine *line = l2_.peekMutable(line_addr);
        if (line) {
            const bool dirty = isDirty(line->state);
            l1d_.invalidateLine(line_addr);
            l1i_.invalidateLine(line_addr);
            l2_.invalidateLine(line_addr);
            if (tracker_)
                tracker_->onLineEvict(line_addr);
            if (dirty)
                issueWriteback(line_addr, now);
        }
        break;
      }

      case RequestType::Dcbi: {
        if (l2_.peek(line_addr)) {
            l1d_.invalidateLine(line_addr);
            l1i_.invalidateLine(line_addr);
            l2_.invalidateLine(line_addr);
            if (tracker_)
                tracker_->onLineEvict(line_addr);
        }
        break;
      }

      default:
        panic("cpu%d: request type %d cannot complete locally", cpu_,
              static_cast<int>(type));
    }

    if (checker_)
        checker_->onTransition(line_addr, "local_complete");

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
Node::handleBroadcastResponse(RequestType type, Addr line_addr,
                              const SnoopResponse &resp, Tick data_ready)
{
    const Tick now = eq_.now();
    const LineState granted = grantedState(type, resp.line.anyCopy);
    const bool granted_exclusive = granted == LineState::Exclusive ||
                                   granted == LineState::Modified;

    if (tracker_)
        tracker_->onBroadcastResponse(type, line_addr, granted_exclusive,
                                      resp, now);

    // The region snoop response arrived: release any requests that were
    // waiting behind this region acquisition. They re-route with the
    // fresh region state (usually direct or local now).
    if (tracker_ && type != RequestType::Writeback) {
        const Addr region = alignDown(line_addr, config_.cgct.regionBytes);
        PoolFifo<RegionWaiter>::List waiting;
        if (pendingRegionAcq_.take(region, waiting)) {
            drainingRegion_ = true;
            RegionWaiter p;
            while (regionWaiterPool_.pop(waiting, p)) {
                // Requests that can now go direct had their memory fetch
                // started speculatively alongside the acquisition
                // broadcast, so they dispatch with their original
                // timestamp; requests that must broadcast pay full price
                // from now (the bus schedules them at >= now anyway).
                dispatchSystemRequest(p.type, p.lineAddr, p.queuedAt,
                                      p.isPrefetch);
            }
            drainingRegion_ = false;
        }
    }

    switch (type) {
      case RequestType::Read:
      case RequestType::ReadExclusive:
      case RequestType::Ifetch:
      case RequestType::Prefetch:
      case RequestType::PrefetchExclusive:
        installL2Line(line_addr, granted, now, data_ready);
        break;

      case RequestType::Upgrade: {
        CacheLine *line = l2_.peekMutable(line_addr);
        if (line) {
            line->state = LineState::Modified;
            if (CacheLine *l1line = l1d_.peekMutable(line_addr))
                l1line->state = LineState::Modified;
        } else {
            // An earlier-ordered external request took the line away; the
            // upgrade degenerates into a refetch. The data latency is
            // approximated by the broadcast that already ran.
            ++stats_.upgradeRaces;
            installL2Line(line_addr, LineState::Modified, now, data_ready);
        }
        break;
      }

      case RequestType::Dcbz: {
        CacheLine *line = l2_.peekMutable(line_addr);
        if (line) {
            line->state = LineState::Modified;
            if (CacheLine *l1line = l1d_.peekMutable(line_addr))
                l1line->state = LineState::Modified;
        } else {
            installL2Line(line_addr, LineState::Modified, now, data_ready);
        }
        break;
      }

      case RequestType::Dcbf:
      case RequestType::Dcbi: {
        CacheLine *line = l2_.peekMutable(line_addr);
        if (line) {
            const bool dirty = isDirty(line->state) &&
                               type == RequestType::Dcbf;
            l1d_.invalidateLine(line_addr);
            l1i_.invalidateLine(line_addr);
            l2_.invalidateLine(line_addr);
            if (tracker_)
                tracker_->onLineEvict(line_addr);
            if (dirty)
                issueWriteback(line_addr, now);
        }
        break;
      }

      case RequestType::Writeback:
        break; // The bus already sank the data into the controller.
    }

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
    const CacheLine *l2line = l2_.peek(addr);
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
    if (CacheLine *line = l1.peekMutable(addr)) {
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
        if (CacheLine *l2line = l2_.peekMutable(evicted.lineAddr))
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
    l2_.array().forEachLineInRegion(region_addr, region_bytes,
                                    [this](CacheLine &line) {
                                        flushScratch_.emplace_back(
                                            line.lineAddr, line.state);
                                    });
    for (const auto &[addr, state] : flushScratch_) {
        l1d_.invalidateLine(addr);
        l1i_.invalidateLine(addr);
        l2_.invalidateLine(addr);
        ++stats_.inclusionWritebacks;
        if (isDirty(state)) {
            // The dying region entry still knows its memory controller;
            // the write-back goes directly there.
            ++stats_.requestsTotal;
            ++stats_.writebacksIssued;
            ++stats_.directs;
            ++stats_.directsByCat[static_cast<std::size_t>(
                RequestCategory::Writeback)];
            const Distance dist = map_.distanceToCtrl(cpu_, mc);
            const Tick arrival =
                now + config_.interconnect.directLatency(dist);
            memCtrls_[static_cast<unsigned>(mc)]->acceptWriteback(arrival);
        }
    }
    if (checker_)
        checker_->onTransition(region_addr, "region_flush");
}

void
Node::maybePrefetch(Addr line_addr, bool is_store, bool was_miss, Tick now)
{
    prefetchScratch_.clear();
    prefetcher_.observe(line_addr, is_store, was_miss, prefetchScratch_);
    for (const PrefetchCandidate &c : prefetchScratch_) {
        if (l2_.peek(c.lineAddr) || mshr_.contains(c.lineAddr))
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
        if (CacheLine *line = l2_.peekMutable(p.lineAddr)) {
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

LineSnoopOutcome
Node::snoopLine(const SystemRequest &req)
{
    // The external lookup occupies this node's L2 tag port.
    ++stats_.snoopsReceived;
    const Tick now = eq_.now();
    l2TagBusy_ = std::max(l2TagBusy_, now) +
                 config_.interconnect.snoopTagOccupancy;

    const SnoopKind kind = snoopKindOf(req.type);
    CacheLine *line = l2_.peekMutable(req.lineAddr);
    const LineSnoopOutcome out =
        applyLineSnoop(line ? line->state : LineState::Invalid, kind);
    if (line && out.next != out.before) {
        if (out.next == LineState::Invalid) {
            l1d_.invalidateLine(req.lineAddr);
            l1i_.invalidateLine(req.lineAddr);
            l2_.invalidateLine(req.lineAddr);
            if (tracker_)
                tracker_->onLineEvict(req.lineAddr);
        } else {
            line->state = out.next;
            // The L1 keeps at most a shared copy after any snoop hit.
            if (CacheLine *l1line = l1d_.peekMutable(req.lineAddr))
                l1line->state = LineState::Shared;
        }
    }
    return out;
}

RegionSnoopBits
Node::snoopRegion(const SystemRequest &req, bool requester_gets_exclusive)
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
                                   eq_.now());
}

// ---------------------------------------------------------------------------
// Functional warming (docs/SAMPLING.md). Each warm* function is the
// architectural mirror of its timing twin above: identical cache, MOESI
// and region-tracker transitions, applied synchronously at the warm tick
// with no events, no bus arbitration, no MSHR occupancy and no latency.
// Keep the two in lockstep when changing either.

void
Node::warmAccess(CpuOpKind kind, Addr addr, Tick now)
{
    if (!warmPeers_)
        panic("cpu%d: warmAccess without setWarmPeers", cpu_);

    switch (kind) {
      case CpuOpKind::Ifetch:
        if (l1i_.probe(addr, now))
            return;
        warmL2Access(kind, addr, now);
        return;

      case CpuOpKind::Load:
        if (l1d_.probe(addr, now))
            return;
        warmL2Access(kind, addr, now);
        return;

      case CpuOpKind::Store:
        if (CacheLine *line = l1d_.probe(addr, now)) {
            if (line->state == LineState::Modified)
                return;
            CacheLine *l2line = l2_.peekMutable(addr);
            if (l2line && isWritable(l2line->state)) {
                l2line->state = LineState::Modified;
                line->state = LineState::Modified;
                return;
            }
        }
        warmL2Access(kind, addr, now);
        return;

      case CpuOpKind::Dcbz:
      case CpuOpKind::Dcbf:
      case CpuOpKind::Dcbi:
        warmL2Access(kind, addr, now);
        return;
    }
    panic("Node::warmAccess: unknown op kind");
}

void
Node::warmL2Access(CpuOpKind kind, Addr addr, Tick now)
{
    const Addr line_addr = l2_.lineAlign(addr);
    CacheLine *line = l2_.probe(addr, now);
    const bool was_miss = line == nullptr;
    const bool is_store_like = kind == CpuOpKind::Store;

    if (kind == CpuOpKind::Ifetch || kind == CpuOpKind::Load ||
        kind == CpuOpKind::Store) {
        warmMaybePrefetch(line_addr, is_store_like, was_miss, now);
        // The prefetcher may have filled (or displaced) the line.
        line = l2_.probe(addr, now);
    }

    switch (kind) {
      case CpuOpKind::Ifetch:
      case CpuOpKind::Load:
        if (line) {
            fillL1(kind, addr, now, now);
            return;
        }
        ++stats_.demandMisses;
        warmRequest(kind == CpuOpKind::Ifetch ? RequestType::Ifetch
                                              : RequestType::Read,
                    line_addr, now, /*is_prefetch=*/false);
        fillL1(kind, addr, now, now);
        return;

      case CpuOpKind::Store:
        if (line) {
            if (isWritable(line->state)) {
                line->state = LineState::Modified;
                fillL1(kind, addr, now, now);
                return;
            }
            warmRequest(RequestType::Upgrade, line_addr, now,
                        /*is_prefetch=*/false);
            fillL1(kind, addr, now, now);
            return;
        }
        ++stats_.demandMisses;
        warmRequest(RequestType::ReadExclusive, line_addr, now,
                    /*is_prefetch=*/false);
        fillL1(kind, addr, now, now);
        return;

      case CpuOpKind::Dcbz:
        if (line && isWritable(line->state)) {
            line->state = LineState::Modified;
            if (CacheLine *l1line = l1d_.peekMutable(addr))
                l1line->state = LineState::Modified;
            return;
        }
        warmRequest(RequestType::Dcbz, line_addr, now,
                    /*is_prefetch=*/false);
        return;

      case CpuOpKind::Dcbf:
        warmRequest(RequestType::Dcbf, line_addr, now,
                    /*is_prefetch=*/false);
        return;

      case CpuOpKind::Dcbi:
        warmRequest(RequestType::Dcbi, line_addr, now,
                    /*is_prefetch=*/false);
        return;
    }
    panic("Node::warmL2Access: unknown op kind");
}

void
Node::warmRequest(RequestType type, Addr line_addr, Tick now,
                  bool is_prefetch)
{
    ++stats_.requestsTotal;
    const auto cat = static_cast<std::size_t>(categoryOf(type));

    RouteDecision route;
    if (tracker_)
        route = tracker_->route(type, line_addr, now);

    switch (route.kind) {
      case RouteKind::Broadcast:
        ++stats_.broadcasts;
        ++stats_.broadcastsByCat[cat];
        warmBroadcast(type, line_addr, now, is_prefetch);
        break;

      case RouteKind::Direct: {
        ++stats_.directs;
        ++stats_.directsByCat[cat];
        MemCtrlId mc = route.memCtrl;
        if (mc == kInvalidMemCtrl)
            mc = map_.controllerOf(line_addr);
        warmDirect(type, line_addr, mc, now);
        break;
      }

      case RouteKind::LocalComplete:
        ++stats_.localCompletes;
        ++stats_.localByCat[cat];
        warmLocalComplete(type, line_addr, now);
        break;
    }
}

void
Node::warmBroadcast(RequestType type, Addr line_addr, Tick now,
                    bool is_prefetch)
{
    SystemRequest req;
    req.cpu = cpu_;
    req.type = type;
    req.lineAddr = line_addr;
    req.isPrefetch = is_prefetch;

    // Mirror of Interconnect::resolveRequest, minus the oracle
    // (measurement-only, reset at every window start), timing and data
    // movement.
    SnoopResponse resp;
    for (Node *peer : *warmPeers_) {
        if (peer->cpuId() == cpu_)
            continue;
        resp.line.fold(peer->cpuId(), peer->warmSnoopLine(req));
    }

    const bool gets_exclusive =
        wantsExclusive(type) || isDcbOp(type) ||
        ((type == RequestType::Read || type == RequestType::Prefetch) &&
         !resp.line.anyCopy);

    // Topology-private tracking state (presence / sharer maps) follows
    // the warmed caches just as it would follow a timed resolution.
    bus_.warmNote(req, gets_exclusive);

    if (type != RequestType::Writeback) {
        for (Node *peer : *warmPeers_) {
            if (peer->cpuId() == cpu_)
                continue;
            resp.region.merge(
                peer->warmSnoopRegion(req, gets_exclusive, now));
        }
    }
    resp.memCtrl = map_.controllerOf(line_addr);

    // Mirror of handleBroadcastResponse: requester-side state changes.
    const LineState granted = grantedState(type, resp.line.anyCopy);
    const bool granted_exclusive = granted == LineState::Exclusive ||
                                   granted == LineState::Modified;
    if (tracker_)
        tracker_->onBroadcastResponse(type, line_addr, granted_exclusive,
                                      resp, now);

    switch (type) {
      case RequestType::Read:
      case RequestType::ReadExclusive:
      case RequestType::Ifetch:
      case RequestType::Prefetch:
      case RequestType::PrefetchExclusive:
        warmInstallL2Line(line_addr, granted, now);
        break;

      case RequestType::Upgrade: {
        CacheLine *line = l2_.peekMutable(line_addr);
        if (line) {
            line->state = LineState::Modified;
            if (CacheLine *l1line = l1d_.peekMutable(line_addr))
                l1line->state = LineState::Modified;
        } else {
            ++stats_.upgradeRaces;
            warmInstallL2Line(line_addr, LineState::Modified, now);
        }
        break;
      }

      case RequestType::Dcbz: {
        CacheLine *line = l2_.peekMutable(line_addr);
        if (line) {
            line->state = LineState::Modified;
            if (CacheLine *l1line = l1d_.peekMutable(line_addr))
                l1line->state = LineState::Modified;
        } else {
            warmInstallL2Line(line_addr, LineState::Modified, now);
        }
        break;
      }

      case RequestType::Dcbf:
      case RequestType::Dcbi: {
        CacheLine *line = l2_.peekMutable(line_addr);
        if (line) {
            const bool dirty = isDirty(line->state) &&
                               type == RequestType::Dcbf;
            l1d_.invalidateLine(line_addr);
            l1i_.invalidateLine(line_addr);
            l2_.invalidateLine(line_addr);
            if (tracker_)
                tracker_->onLineEvict(line_addr);
            if (dirty)
                warmWriteback(line_addr, now);
        }
        break;
      }

      case RequestType::Writeback:
        break;
    }

    if (checker_)
        checker_->onTransition(line_addr, "warm_broadcast");
}

void
Node::warmDirect(RequestType type, Addr line_addr, MemCtrlId mc, Tick now)
{
    (void)mc; // Data movement and controller timing are skipped.
    if (type == RequestType::Writeback)
        return;

    const RegionState region_state =
        tracker_ ? tracker_->peekState(line_addr) : RegionState::Invalid;
    const bool region_exclusive = isRegionExclusive(region_state);
    const LineState granted =
        grantedState(type, /*other_had_copy=*/!region_exclusive);

    tracker_->onDirectIssue(type, line_addr,
                            granted == LineState::Exclusive ||
                                granted == LineState::Modified,
                            now);
    warmInstallL2Line(line_addr, granted, now);
    if (checker_)
        checker_->onTransition(line_addr, "warm_direct");
}

void
Node::warmLocalComplete(RequestType type, Addr line_addr, Tick now)
{
    tracker_->onLocalComplete(type, line_addr, now);

    switch (type) {
      case RequestType::Upgrade: {
        CacheLine *line = l2_.peekMutable(line_addr);
        if (line) {
            line->state = LineState::Modified;
            if (CacheLine *l1line = l1d_.peekMutable(line_addr))
                l1line->state = LineState::Modified;
        } else {
            ++stats_.upgradeRaces;
            warmInstallL2Line(line_addr, LineState::Modified, now);
        }
        break;
      }

      case RequestType::Dcbz: {
        CacheLine *line = l2_.peekMutable(line_addr);
        if (line) {
            line->state = LineState::Modified;
            if (CacheLine *l1line = l1d_.peekMutable(line_addr))
                l1line->state = LineState::Modified;
        } else {
            warmInstallL2Line(line_addr, LineState::Modified, now);
        }
        break;
      }

      case RequestType::Dcbf: {
        CacheLine *line = l2_.peekMutable(line_addr);
        if (line) {
            const bool dirty = isDirty(line->state);
            l1d_.invalidateLine(line_addr);
            l1i_.invalidateLine(line_addr);
            l2_.invalidateLine(line_addr);
            if (tracker_)
                tracker_->onLineEvict(line_addr);
            if (dirty)
                warmWriteback(line_addr, now);
        }
        break;
      }

      case RequestType::Dcbi: {
        if (l2_.peek(line_addr)) {
            l1d_.invalidateLine(line_addr);
            l1i_.invalidateLine(line_addr);
            l2_.invalidateLine(line_addr);
            if (tracker_)
                tracker_->onLineEvict(line_addr);
        }
        break;
      }

      default:
        panic("cpu%d: request type %d cannot complete locally", cpu_,
              static_cast<int>(type));
    }

    if (checker_)
        checker_->onTransition(line_addr, "warm_local_complete");
}

void
Node::warmInstallL2Line(Addr line_addr, LineState state, Tick now)
{
    Eviction evicted;
    l2_.fill(line_addr, state, now, now, evicted);
    if (evicted.valid)
        warmEvictL2Line(evicted.lineAddr, evicted.state, now);
    if (tracker_)
        tracker_->onLineFill(line_addr);
}

void
Node::warmEvictL2Line(Addr line_addr, LineState state, Tick now)
{
    l1d_.invalidateLine(line_addr);
    l1i_.invalidateLine(line_addr);
    if (tracker_)
        tracker_->onLineEvict(line_addr);
    if (isDirty(state))
        warmWriteback(line_addr, now);
}

void
Node::warmWriteback(Addr line_addr, Tick now)
{
    ++stats_.writebacksIssued;
    warmRequest(RequestType::Writeback, line_addr, now,
                /*is_prefetch=*/false);
}

void
Node::warmMaybePrefetch(Addr line_addr, bool is_store, bool was_miss,
                        Tick now)
{
    prefetchScratch_.clear();
    prefetcher_.observe(line_addr, is_store, was_miss, prefetchScratch_);
    for (const PrefetchCandidate &c : prefetchScratch_) {
        if (l2_.peek(c.lineAddr))
            continue;
        if (tracker_ && config_.cgct.regionPrefetchHints) {
            if (isExternallyDirty(tracker_->peekState(c.lineAddr)))
                continue;
        }
        ++stats_.prefetchesIssued;
        warmRequest(c.exclusive ? RequestType::PrefetchExclusive
                                : RequestType::Prefetch,
                    c.lineAddr, now, /*is_prefetch=*/true);
    }
}

LineSnoopOutcome
Node::warmSnoopLine(const SystemRequest &req)
{
    // Same transitions as snoopLine, without the tag-port occupancy or
    // the snoop statistics (the warm phase is not measured).
    const SnoopKind kind = snoopKindOf(req.type);
    CacheLine *line = l2_.peekMutable(req.lineAddr);
    const LineSnoopOutcome out =
        applyLineSnoop(line ? line->state : LineState::Invalid, kind);
    if (line && out.next != out.before) {
        if (out.next == LineState::Invalid) {
            l1d_.invalidateLine(req.lineAddr);
            l1i_.invalidateLine(req.lineAddr);
            l2_.invalidateLine(req.lineAddr);
            if (tracker_)
                tracker_->onLineEvict(req.lineAddr);
        } else {
            line->state = out.next;
            if (CacheLine *l1line = l1d_.peekMutable(req.lineAddr))
                l1line->state = LineState::Shared;
        }
    }
    return out;
}

RegionSnoopBits
Node::warmSnoopRegion(const SystemRequest &req,
                      bool requester_gets_exclusive, Tick now)
{
    if (!tracker_)
        return RegionSnoopBits{};
    if (config_.cgct.sharedPerChip && req.cpu >= 0 &&
        static_cast<unsigned>(req.cpu) < config_.topology.numCpus &&
        config_.topology.chipOfCpu(req.cpu) ==
            config_.topology.chipOfCpu(cpu_)) {
        return RegionSnoopBits{};
    }
    return tracker_->externalSnoop(req.lineAddr, requester_gets_exclusive,
                                   now);
}

LineState
Node::peekLine(Addr addr) const
{
    const CacheLine *line = l2_.peek(addr);
    return line ? line->state : LineState::Invalid;
}

std::string
Node::checkInvariants() const
{
    std::string err;
    // L1 inclusion: every valid L1 line must be present in the L2.
    for (const Cache *l1 : {&l1i_, &l1d_}) {
        l1->array().forEachValidLine([&](const CacheLine &line) {
            if (!err.empty())
                return;
            if (!l2_.peek(line.lineAddr)) {
                err = l1->name() + " holds line not in L2 at 0x" +
                      std::to_string(line.lineAddr);
            }
        });
    }
    if (!err.empty())
        return err;

    const auto *cgct_ctrl =
        dynamic_cast<const CgctController *>(tracker_.get());
    if (!cgct_ctrl)
        return err;
    const RegionCoherenceArray &rca = cgct_ctrl->rca();

    // RCA inclusion: every cached line's region must have a valid entry.
    std::unordered_map<Addr, std::uint32_t> lines_per_region;
    l2_.array().forEachValidLine([&](const CacheLine &line) {
        ++lines_per_region[alignDown(line.lineAddr, rca.regionBytes())];
    });
    // With a per-chip RCA the entry counts aggregate the sibling core's
    // lines too, so only the per-node exactness checks are skipped.
    const bool shared = config_.cgct.sharedPerChip;
    for (const auto &[region, count] : lines_per_region) {
        const RegionEntry *entry = rca.find(region);
        if (!entry) {
            err = "L2 line cached without RCA entry for region 0x" +
                  std::to_string(region);
            return err;
        }
        if (!shared && entry->lineCount != count) {
            err = "RCA line count mismatch for region 0x" +
                  std::to_string(region) + ": entry says " +
                  std::to_string(entry->lineCount) + ", L2 holds " +
                  std::to_string(count);
            return err;
        }
        if (shared && entry->lineCount < count) {
            err = "shared RCA line count below this core's lines for "
                  "region 0x" + std::to_string(region);
            return err;
        }
    }

    // Line counts for regions with no cached lines must be zero.
    if (!shared) {
        rca.forEachValidEntry([&](const RegionEntry &entry) {
            if (!err.empty())
                return;
            if (entry.lineCount != 0 &&
                lines_per_region.find(entry.regionAddr) ==
                    lines_per_region.end()) {
                err = "RCA entry has nonzero count but no cached lines: "
                      "0x" + std::to_string(entry.regionAddr);
            }
        });
    }
    return err;
}

void
Node::noteMissLatency(Tick issued, Tick ready)
{
    stats_.memLatencySum += ready - issued;
    ++stats_.memLatencyCount;
    missLatencyHist_.record(ready - issued);
}

void
Node::serialize(Serializer &s) const
{
    if (mshr_.inFlight() != 0 || !fillWaiters_.empty() ||
        !pendingMisses_.empty() || !pendingRegionAcq_.empty() ||
        drainingRegion_)
        panic("Node: serializing cpu %d with requests in flight — "
              "snapshots require a drained (quiescent) system", cpu_);
    l1i_.serialize(s);
    l1d_.serialize(s);
    l2_.serialize(s);
    mshr_.serialize(s);
    prefetcher_.serialize(s);
    s.u64(l2TagBusy_);
    s.u64(stats_.requestsTotal);
    s.u64(stats_.broadcasts);
    s.u64(stats_.directs);
    s.u64(stats_.localCompletes);
    for (std::size_t i = 0; i < Stats::kNumCat; ++i) {
        s.u64(stats_.broadcastsByCat[i]);
        s.u64(stats_.directsByCat[i]);
        s.u64(stats_.localByCat[i]);
    }
    s.u64(stats_.writebacksIssued);
    s.u64(stats_.demandMisses);
    s.u64(stats_.prefetchesIssued);
    s.u64(stats_.upgradeRaces);
    s.u64(stats_.inclusionWritebacks);
    s.u64(stats_.snoopsReceived);
    s.u64(stats_.tagWaitCycles);
    s.u64(stats_.memLatencySum);
    s.u64(stats_.memLatencyCount);
    missLatencyHist_.serialize(s);
}

void
Node::deserialize(SectionReader &r)
{
    l1i_.deserialize(r);
    l1d_.deserialize(r);
    l2_.deserialize(r);
    mshr_.deserialize(r);
    prefetcher_.deserialize(r);
    l2TagBusy_ = r.u64();
    stats_.requestsTotal = r.u64();
    stats_.broadcasts = r.u64();
    stats_.directs = r.u64();
    stats_.localCompletes = r.u64();
    for (std::size_t i = 0; i < Stats::kNumCat; ++i) {
        stats_.broadcastsByCat[i] = r.u64();
        stats_.directsByCat[i] = r.u64();
        stats_.localByCat[i] = r.u64();
    }
    stats_.writebacksIssued = r.u64();
    stats_.demandMisses = r.u64();
    stats_.prefetchesIssued = r.u64();
    stats_.upgradeRaces = r.u64();
    stats_.inclusionWritebacks = r.u64();
    stats_.snoopsReceived = r.u64();
    stats_.tagWaitCycles = r.u64();
    stats_.memLatencySum = r.u64();
    stats_.memLatencyCount = r.u64();
    missLatencyHist_.deserialize(r);
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
