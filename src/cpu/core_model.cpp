#include "cpu/core_model.hpp"

#include <bit>

#include "common/log.hpp"
#include "snapshot/serializer.hpp"

namespace cgct {

CoreModel::CoreModel(CpuId cpu, const CoreParams &params, EventQueue &eq,
                     Node &node, OpSource &source)
    : cpu_(cpu), params_(params), eq_(eq), node_(node), source_(source),
      loads_(std::bit_ceil(std::size_t{params.robEntries} + 2))
{
}

void
CoreModel::start()
{
    scheduleRun(eq_.now());
}

void
CoreModel::scheduleRun(Tick when)
{
    if (runScheduled_)
        return;
    runScheduled_ = true;
    eq_.schedule(when < eq_.now() ? eq_.now() : when, [this] {
        runScheduled_ = false;
        run();
    }, EventPriority::Cpu);
}

void
CoreModel::wake(Tick ready)
{
    if (clock_ < ready)
        clock_ = ready;
    if (state_ == State::Draining) {
        checkDrained();
        return;
    }
    state_ = State::Running;
    run();
}

void
CoreModel::checkDrained()
{
    while (!loadsEmpty() && load(loadHead_).resolved) {
        if (load(loadHead_).ready > clock_)
            clock_ = load(loadHead_).ready;
        ++loadHead_;
    }
    if (loadsEmpty() && outstandingStores_ == 0)
        state_ = State::Finished;
}

bool
CoreModel::enforceWindow()
{
    // Retire loads whose data has arrived within the core's current time.
    while (!loadsEmpty() && load(loadHead_).resolved &&
           load(loadHead_).ready <= clock_) {
        ++loadHead_;
    }
    // The oldest outstanding load pins the ROB: once the core has retired
    // a full window past it, it cannot proceed until the data arrives.
    while (!loadsEmpty() &&
           instructions_ - load(loadHead_).inst >= params_.robEntries) {
        const LoadSlot &head = load(loadHead_);
        if (!head.resolved) {
            state_ = State::WaitRobHead;
            return false;
        }
        if (head.ready > clock_) {
            stats_.robStallCycles += head.ready - clock_;
            clock_ = head.ready;
        }
        ++loadHead_;
    }
    return true;
}

bool
CoreModel::step()
{
    if (!enforceWindow())
        return false;

    CpuOp op;
    if (!source_.next(cpu_, op)) {
        state_ = State::Draining;
        checkDrained();
        return false;
    }

    // Front-end: gap instructions retire at the machine width.
    gapCarry_ += op.gap;
    const Tick frontend = gapCarry_ / params_.commitWidth;
    gapCarry_ %= params_.commitWidth;
    clock_ += frontend > 0 ? frontend : 1; // A memory op costs >= 1 cycle.
    instructions_ += op.gap + 1;
    ++memOps_;

    Tick ready = 0;
    switch (op.kind) {
      case CpuOpKind::Ifetch: {
        const bool sync = node_.access(CpuOpKind::Ifetch, op.addr, clock_,
                                       ready,
                                       [this](Tick r) {
                                           stats_.ifetchStallCycles +=
                                               r > clock_ ? r - clock_ : 0;
                                           wake(r);
                                       });
        if (sync) {
            // A short in-flight wait stalls fetch; plain hits are hidden.
            if (ready > clock_ + 2) {
                stats_.ifetchStallCycles += ready - clock_;
                clock_ = ready;
            }
            return true;
        }
        state_ = State::WaitIfetch;
        return false;
      }

      case CpuOpKind::Load: {
        const std::uint64_t seq = loadTail_;
        const bool sync = node_.access(
            CpuOpKind::Load, op.addr, clock_, ready,
            [this, seq](Tick r) {
                // Unresolved loads never retire: slot seq is this load.
                load(seq).resolved = true;
                load(seq).ready = r;
                const Tick stall = r > clock_ ? r - clock_ : 0;
                if (state_ == State::WaitRobHead && seq == loadHead_) {
                    stats_.robStallCycles += stall;
                    wake(r);
                } else if (state_ == State::WaitLoadDep &&
                           seq + 1 == loadTail_) {
                    stats_.loadStallCycles += stall;
                    wake(r);
                } else if (state_ == State::Draining) {
                    wake(r);
                }
            });
        if (sync && (op.dependent || ready <= clock_)) {
            // Retired at once, after any dependent stall: no slot.
            if (ready > clock_) {
                stats_.loadStallCycles += ready - clock_;
                clock_ = ready;
            }
            return true;
        }
        if (loadTail_ - loadHead_ == loads_.size())
            panic("CoreModel: cpu %d load window overflow", cpu_);
        load(loadTail_++) = LoadSlot{instructions_, sync ? ready : 0, sync};
        if (sync || !op.dependent)
            return true;
        state_ = State::WaitLoadDep;
        return false;
      }

      case CpuOpKind::Store:
      case CpuOpKind::Dcbz:
      case CpuOpKind::Dcbf:
      case CpuOpKind::Dcbi: {
        const bool sync = node_.access(
            op.kind, op.addr, clock_, ready, [this](Tick) {
                if (outstandingStores_ > 0)
                    --outstandingStores_;
                if (state_ == State::WaitStore) {
                    // The core really waited if the completion arrived
                    // after its local clock.
                    if (eq_.now() > clock_) {
                        stats_.storeStallCycles += eq_.now() - clock_;
                        clock_ = eq_.now();
                    }
                    state_ = State::Running;
                    run();
                } else if (state_ == State::Draining) {
                    checkDrained();
                }
            });
        if (sync)
            return true;
        ++outstandingStores_;
        if (outstandingStores_ >= params_.lsqEntries) {
            state_ = State::WaitStore;
            return false;
        }
        return true;
      }
    }
    panic("CoreModel: unknown op kind");
}

void
CoreModel::run()
{
    if (state_ != State::Running)
        return;
    const Tick quantum_end = eq_.now() + kQuantum;
    while (state_ == State::Running) {
        if (clock_ >= quantum_end) {
            scheduleRun(clock_);
            return;
        }
        if (!step())
            return;
    }
}

void
CoreModel::transfer(Archive &ar)
{
    if (ar.saving() && (state_ != State::Finished || !loadsEmpty() ||
                        outstandingStores_ != 0 || runScheduled_))
        panic("CoreModel: serializing cpu %d before it drained — "
              "snapshots require a quiescent system", cpu_);
    ar.u64(clock_);
    ar.u64(instructions_);
    ar.u64(memOps_);
    ar.u32(gapCarry_);
    ar.u64(stats_.ifetchStallCycles);
    ar.u64(stats_.loadStallCycles);
    ar.u64(stats_.robStallCycles);
    ar.u64(stats_.storeStallCycles);
    ar.expect("sync_stall_cycles", std::uint64_t{0}); // Retired.
    if (!ar.saving()) {
        state_ = State::Finished;
        loadHead_ = loadTail_;
        outstandingStores_ = 0;
        runScheduled_ = false;
    }
}

void
CoreModel::warmAdvance(Tick clock, std::uint64_t instructions,
                       std::uint64_t mem_ops)
{
    if ((state_ != State::Running && state_ != State::Finished) ||
        !loadsEmpty() || outstandingStores_ != 0 || runScheduled_)
        panic("CoreModel: warmAdvance on cpu %d with timing state in "
              "flight — functional warming requires an idle core", cpu_);
    if (clock < clock_)
        panic("CoreModel: warmAdvance moves cpu %d clock backwards",
              cpu_);
    clock_ = clock;
    instructions_ += instructions;
    memOps_ += mem_ops;
    state_ = State::Finished;
}

void
CoreModel::resume()
{
    if (state_ != State::Finished)
        panic("CoreModel: resume on a core that has not drained");
    state_ = State::Running;
    scheduleRun(clock_);
}

void
CoreModel::addStats(StatGroup &group) const
{
    group.addScalar("ifetch_stall_cycles",
                    "cycles fetch waited on instruction misses",
                    &stats_.ifetchStallCycles);
    group.addScalar("load_stall_cycles",
                    "cycles serialized on dependent loads",
                    &stats_.loadStallCycles);
    group.addScalar("rob_stall_cycles",
                    "cycles the ROB head load blocked retirement",
                    &stats_.robStallCycles);
    group.addScalar("store_stall_cycles",
                    "cycles stalled on a full store queue",
                    &stats_.storeStallCycles);
}

} // namespace cgct
