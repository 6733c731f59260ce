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
    queues_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        queues_.push_back(std::make_unique<Queue>());
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    wait();
    {
        std::lock_guard<std::mutex> g(sleepMutex_);
        stop_.store(true);
    }
    wake_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::post(std::function<void()> task)
{
    pending_.fetch_add(1);
    const std::size_t q =
        static_cast<std::size_t>(nextQueue_.fetch_add(1)) % queues_.size();
    {
        std::lock_guard<std::mutex> g(queues_[q]->mutex);
        queues_[q]->tasks.push_back(std::move(task));
    }
    // Empty critical section pairs with the predicate re-check in
    // workerLoop, so a worker between "queues empty" and sleeping cannot
    // miss this task.
    { std::lock_guard<std::mutex> g(sleepMutex_); }
    wake_.notify_one();
}

bool
ThreadPool::tryPop(unsigned self, std::function<void()> *fn_out)
{
    {
        Queue &own = *queues_[self];
        std::lock_guard<std::mutex> g(own.mutex);
        if (!own.tasks.empty()) {
            *fn_out = std::move(own.tasks.front());
            own.tasks.pop_front();
            return true;
        }
    }
    for (std::size_t i = 1; i < queues_.size(); ++i) {
        Queue &victim = *queues_[(self + i) % queues_.size()];
        std::lock_guard<std::mutex> g(victim.mutex);
        if (!victim.tasks.empty()) {
            *fn_out = std::move(victim.tasks.back());
            victim.tasks.pop_back();
            return true;
        }
    }
    return false;
}

bool
ThreadPool::anyQueued()
{
    for (auto &q : queues_) {
        std::lock_guard<std::mutex> g(q->mutex);
        if (!q->tasks.empty())
            return true;
    }
    return false;
}

void
ThreadPool::finishOne()
{
    if (pending_.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> g(sleepMutex_);
        done_.notify_all();
    }
}

void
ThreadPool::workerLoop(unsigned self)
{
    for (;;) {
        std::function<void()> fn;
        if (tryPop(self, &fn)) {
            fn();
            finishOne();
            continue;
        }
        std::unique_lock<std::mutex> lk(sleepMutex_);
        wake_.wait(lk, [this] { return stop_.load() || anyQueued(); });
        if (stop_.load() && !anyQueued())
            return;
    }
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lk(sleepMutex_);
    done_.wait(lk, [this] { return pending_.load() == 0; });
}

} // namespace cgct
