#include "common/thread_pool.hpp"

namespace cgct {

unsigned
ThreadPool::defaultThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = defaultThreads();
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> g(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::packaged_task<void()> task;
        {
            std::unique_lock<std::mutex> lk(mutex_);
            wake_.wait(lk, [this] { return stop_ || !queue_.empty(); });
            // Stopping, but drain what is queued before leaving.
            if (queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

} // namespace cgct
