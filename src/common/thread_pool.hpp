/**
 * @file
 * A fixed-size thread pool for the experiment harness: one FIFO queue
 * under one mutex and one condition variable. Its callers (the sweep's
 * cells, the sampling engine's windows) submit a few coarse,
 * independent simulations from one thread, so a shared queue is never
 * contended enough to matter.
 *
 * Semantics:
 *  - submit() returns a std::future; exceptions thrown by the task are
 *    captured and rethrown from future::get().
 *  - Workers take tasks in submission order.
 *  - The destructor drains all pending work (it never drops tasks), then
 *    joins the workers.
 *
 * Tasks must not submit to their own pool (no nested scheduling) —
 * sweep jobs are independent simulations, which is all the harness
 * needs.
 */

#pragma once

#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace cgct {

/** Fixed-size FIFO thread pool. */
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

    /** Enqueue a task and get a future for its result (or exception). */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        std::packaged_task<R()> task(std::forward<F>(fn));
        std::future<R> fut = task.get_future();
        {
            std::lock_guard<std::mutex> g(mutex_);
            queue_.emplace_back(
                [task = std::move(task)]() mutable { task(); });
        }
        wake_.notify_one();
        return fut;
    }

    /** Hardware concurrency, never 0. */
    static unsigned defaultThreads();

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable wake_;
    /** The wrapper never throws: the inner task stores any exception. */
    std::deque<std::packaged_task<void()>> queue_;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

} // namespace cgct
