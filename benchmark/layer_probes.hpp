/**
 * @file
 * Host-time probes. Per layer, all driven from outside libcgct through its
 * public API: an op-source decorator that samples the frontend's cost
 * inside a live simulation, and isolated drives of the event kernel, the
 * workload frontend, the L2 cache array and the Region Coherence Array.
 * For the host itself: a speed calibration that does not touch libcgct.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "cpu/core_model.hpp"
#include "spans.hpp"

namespace bench {

/**
 * Forwards every call to the wrapped op source and times one call in
 * kSampleEvery. Timing every call costs about as much as a generator draw
 * and would distort the run it measures; sampling keeps the decorator
 * near free while still estimating the frontend's total time.
 */
class TimedSource : public cgct::OpSource
{
  public:
    static constexpr std::uint64_t kSampleEvery = 64;

    explicit TimedSource(cgct::OpSource &inner) : inner_(inner) {}

    bool
    next(cgct::CpuId cpu, cgct::CpuOp &op) override
    {
        return timed([&] { return inner_.next(cpu, op); });
    }

    cgct::OpFetch
    fetch(cgct::CpuId cpu, cgct::Tick &now, cgct::CpuOp &op) override
    {
        return timed([&] { return inner_.fetch(cpu, now, op); });
    }

    void attach(cgct::EventQueue &eq) override { inner_.attach(eq); }

    void
    bindWaiter(cgct::CpuId cpu, std::function<void(cgct::Tick)> wake) override
    {
        inner_.bindWaiter(cpu, std::move(wake));
    }

    std::uint64_t calls() const { return calls_; }

    /** Estimated host seconds spent inside the wrapped source, with the
     *  clock's own cost removed from every sample. */
    double estimatedSeconds() const;

  private:
    template <class F>
    std::invoke_result_t<F &>
    timed(F &&f)
    {
        if ((calls_++ % kSampleEvery) != 0)
            return f();
        const Clock::time_point t0 = Clock::now();
        auto r = f();
        sampledS_ += secondsBetween(t0, Clock::now());
        ++samples_;
        return r;
    }

    cgct::OpSource &inner_;
    std::uint64_t calls_ = 0;
    std::uint64_t samples_ = 0;
    double sampledS_ = 0.0;
};

/**
 * Host seconds of a fixed integer workload that uses no libcgct code: a
 * dependent walk over a 1 MB ring (warmed first, so it runs from the
 * core's L2 whatever the previous job left in the caches) plus a
 * register-only mixing loop. It tracks the speed the shared host grants
 * this process, which drifts by several percent over minutes as other
 * tenants come and go.
 */
double calibrationSeconds();

/**
 * Host ns per event of an isolated EventQueue drive: 64 events in flight,
 * each rescheduling one successor with a delay and priority drawn from
 * the simulator's latency mix (Table 3 defaults, plus a far-future delay
 * that takes the overflow-heap path).
 */
double eventKernelNsPerEvent(std::uint64_t seed, std::uint64_t events);

/**
 * Draw up to @p max_ops ops round-robin over @p lanes from @p source with
 * no System attached, storing their addresses in @p addrs. Returns host
 * ns per op.
 */
double drawNsPerOp(cgct::OpSource &source, unsigned lanes,
                   std::uint64_t max_ops, std::vector<cgct::Addr> &addrs);

/** Host ns per access of Cache::probe (plus fill on a miss) at the L2
 *  geometry of @p params, cycling over @p addrs. */
double l2NsPerAccess(const cgct::CacheParams &params,
                     const std::vector<cgct::Addr> &addrs,
                     std::uint64_t accesses);

/** Host ns per access of RegionCoherenceArray::find (plus allocate on a
 *  miss) at the RCA geometry of @p cgct, cycling over @p addrs. */
double rcaNsPerAccess(const cgct::CgctParams &cgct,
                      const std::vector<cgct::Addr> &addrs,
                      std::uint64_t accesses);

} // namespace bench
