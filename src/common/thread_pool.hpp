/**
 * @file
 * A small work-stealing thread pool for the experiment harness. Each
 * worker owns a deque; submitted tasks are distributed round-robin and an
 * idle worker steals from the back of its siblings' deques, so a handful
 * of long simulation jobs spread across cores without a central bottleneck.
 *
 * Semantics:
 *  - submit() returns a std::future; exceptions thrown by the task are
 *    captured and rethrown from future::get().
 *  - wait() blocks until every task submitted so far has finished.
 *  - The destructor drains all pending work (it never drops tasks), then
 *    joins the workers.
 *
 * Tasks must not call submit()/wait() on their own pool (no nested
 * scheduling) — sweep jobs are independent simulations, which is all the
 * harness needs.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace cgct {

/** Fixed-size work-stealing thread pool. */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 = defaultThreads(). */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains all pending work, then joins. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /** Enqueue a fire-and-forget task. Must not throw when invoked. */
    void post(std::function<void()> task);

    /** Enqueue a task and get a future for its result (or exception). */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> fut = task->get_future();
        post([task] { (*task)(); });
        return fut;
    }

    /** Block until every task submitted so far has completed. */
    void wait();

    /** Hardware concurrency, never 0. */
    static unsigned defaultThreads();

  private:
    /** One worker's queue. Owner pops the front; thieves take the back. */
    struct Queue {
        std::mutex mutex;
        std::deque<std::function<void()>> tasks;
    };

    void workerLoop(unsigned self);
    bool tryPop(unsigned self, std::function<void()> *fn_out);
    bool anyQueued();
    void finishOne();

    std::vector<std::unique_ptr<Queue>> queues_;
    std::vector<std::thread> workers_;

    std::mutex sleepMutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::atomic<std::uint64_t> pending_{0};
    std::atomic<std::uint64_t> nextQueue_{0};
    std::atomic<bool> stop_{false};
};

} // namespace cgct
