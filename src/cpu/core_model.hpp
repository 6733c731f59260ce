/**
 * @file
 * Out-of-order core timing model. An interval-style model of the paper's
 * 4-wide, 15-stage, 64-entry-ROB processor: the core retires the workload's
 * instruction stream at the front-end rate, overlaps cache misses up to the
 * ROB/LSQ/MSHR limits, stalls on instruction-fetch misses and on dependent
 * loads, and blocks when the oldest outstanding load exceeds the ROB reach.
 * This exposes exactly the levers CGCT moves — average memory latency and
 * the overlap window — without simulating individual instructions.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "event/event_queue.hpp"
#include "sim/node.hpp"

namespace cgct {

class Archive;

/** Outcome of OpSource::fetch. */
enum class OpFetch : std::uint8_t {
    Op,  ///< @p op holds the next operation.
    End, ///< Stream exhausted (or paused, see setPauseAt users).
};

/**
 * Produces per-processor operation streams: the synthetic generator, a
 * trace replayer, or a capture tee around either. Every consumer, the
 * core model and the warm path alike, fetches through next().
 */
class OpSource
{
  public:
    virtual ~OpSource() = default;

    /** Next op for @p cpu; false when the stream is exhausted. */
    virtual bool next(CpuId cpu, CpuOp &op) = 0;

    /** Unused; kept while benchmark/'s TimedSource overrides them. */
    virtual OpFetch
    fetch(CpuId cpu, Tick &now, CpuOp &op)
    {
        (void)now;
        return next(cpu, op) ? OpFetch::Op : OpFetch::End;
    }
    virtual void attach(EventQueue &eq) { (void)eq; }
    virtual void
    bindWaiter(CpuId cpu, std::function<void(Tick)> wake)
    {
        (void)cpu;
        (void)wake;
    }
};

/** One simulated processor core. */
class CoreModel
{
  public:
    CoreModel(CpuId cpu, const CoreParams &params, EventQueue &eq,
              Node &node, OpSource &source);

    /** Schedule the core's first activation. */
    void start();

    bool finished() const { return state_ == State::Finished; }

    /** Local clock; at Finished this is the core's completion time. */
    Tick clock() const { return clock_; }

    /** Instructions retired (memory ops plus gap instructions). */
    std::uint64_t instructions() const { return instructions_; }
    std::uint64_t memOps() const { return memOps_; }

    struct Stats {
        std::uint64_t ifetchStallCycles = 0;
        std::uint64_t loadStallCycles = 0;
        std::uint64_t robStallCycles = 0;
        std::uint64_t storeStallCycles = 0;
    };

    const Stats &stats() const { return stats_; }
    void addStats(StatGroup &group) const;

    /**
     * Checkpoint layout. Snapshots are taken at quiescence, so the core
     * must be Finished with no outstanding loads or stores when saved
     * (panics otherwise). Stores the local clock, retire counts, the
     * gap carry and the stall-cycle statistics (and, expected as 0, the
     * retired sync-stall slot); a load leaves the core Finished and
     * drained.
     */
    void transfer(Archive &ar);

    /**
     * Wake a drained (Finished) core for the next checkpoint phase after
     * the op source's pause point advanced. Re-resuming a core whose
     * stream is truly exhausted is harmless: it re-drains at the same
     * local clock without touching the memory system.
     */
    void resume();

    /**
     * Functional-warming bookkeeping (docs/SAMPLING.md): credit this
     * core with ops it executed outside the timing model and move its
     * local clock to the shared warm tick, leaving it Finished so the
     * warm system is quiescent and serializable. The core must be idle
     * (fresh, or drained by an earlier warm phase); panics otherwise.
     */
    void warmAdvance(Tick clock, std::uint64_t instructions,
                     std::uint64_t mem_ops);

  private:
    enum class State : std::uint8_t {
        Running,
        WaitIfetch,    ///< Fetch stalled on an instruction miss.
        WaitLoadDep,   ///< Pipeline serialized on a dependent load.
        WaitRobHead,   ///< Oldest outstanding load pins the ROB.
        WaitStore,     ///< Store queue full.
        Draining,      ///< Stream done; waiting for outstanding ops.
        Finished,
    };

    /** One outstanding load tracked against the ROB window. */
    struct LoadSlot {
        std::uint64_t inst = 0;  ///< Retire index at issue.
        Tick ready = 0;          ///< 0 while the miss is unresolved.
        bool resolved = false;
    };

    LoadSlot &load(std::uint64_t s) { return loads_[s & (loads_.size() - 1)]; }
    bool loadsEmpty() const { return loadHead_ == loadTail_; }

    /** Main execution loop; runs until a wait state or the quantum ends. */
    void run();

    /** Process one operation; returns false if the core must wait. */
    bool step();

    /** Retire resolved loads and enforce the ROB window. */
    bool enforceWindow();

    /** A memory completion arrived; wake the core if it was waiting. */
    void wake(Tick ready);

    void scheduleRun(Tick when);
    void checkDrained();

    CpuId cpu_;
    CoreParams params_;
    EventQueue &eq_;
    Node &node_;
    OpSource &source_;

    State state_ = State::Running;
    Tick clock_ = 0;
    std::uint64_t instructions_ = 0;
    std::uint64_t memOps_ = 0;
    std::uint32_t gapCarry_ = 0;

    /** Outstanding loads, oldest first: a ring indexed by load sequence
     *  number, live over [loadHead_, loadTail_) and at most robEntries + 1
     *  long; a WaitLoadDep core waits on the last one issued. */
    std::vector<LoadSlot> loads_;
    std::uint64_t loadHead_ = 0;
    std::uint64_t loadTail_ = 0;
    unsigned outstandingStores_ = 0;
    bool runScheduled_ = false;

    /** Yield to the event queue after this many local cycles. */
    static constexpr Tick kQuantum = 2048;

    Stats stats_;
};

} // namespace cgct
