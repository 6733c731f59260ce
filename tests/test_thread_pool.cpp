/**
 * @file
 * Tests for the FIFO thread pool: submit semantics, exception
 * propagation through futures, submission order, destruction with
 * pending work, and result ordering via futures.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace cgct {
namespace {

TEST(ThreadPool, RunsSubmittedTasks)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);

    std::atomic<int> count{0};
    std::vector<std::future<void>> done;
    for (int i = 0; i < 64; ++i)
        done.push_back(pool.submit([&count] { count.fetch_add(1); }));
    for (auto &f : done)
        f.get();
    EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, SubmitReturnsValues)
{
    ThreadPool pool(3);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    ThreadPool pool(2);
    auto ok = pool.submit([] { return 7; });
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_EQ(ok.get(), 7);
    EXPECT_THROW(bad.get(), std::runtime_error);
    // The pool survives a throwing task.
    auto after = pool.submit([] { return 11; });
    EXPECT_EQ(after.get(), 11);
}

TEST(ThreadPool, DestructionDrainsPendingWork)
{
    auto count = std::make_shared<std::atomic<int>>(0);
    {
        ThreadPool pool(2);
        for (int i = 0; i < 24; ++i)
            pool.submit([count] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                count->fetch_add(1);
            });
        // Destroyed while most tasks are still queued; the futures were
        // dropped, which must not cancel anything.
    }
    EXPECT_EQ(count->load(), 24);
}

TEST(ThreadPool, SingleThreadPoolStillWorks)
{
    // One worker takes the queue front to back: submission order.
    ThreadPool pool(1);
    std::vector<int> order;
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(pool.submit([i, &order] {
            order.push_back(i);
            return i;
        }));
    int sum = 0;
    for (auto &f : futures)
        sum += f.get();
    EXPECT_EQ(sum, 28);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ThreadPool, DefaultThreadsNonZero)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
    ThreadPool pool;
    EXPECT_EQ(pool.size(), ThreadPool::defaultThreads());
}

TEST(ThreadPool, ManyMoreTasksThanThreads)
{
    std::atomic<std::uint64_t> sum{0};
    {
        ThreadPool pool(4);
        for (std::uint64_t i = 1; i <= 1000; ++i)
            pool.submit([&sum, i] { sum.fetch_add(i); });
    }
    EXPECT_EQ(sum.load(), 500500u);
}

} // namespace
} // namespace cgct
