/**
 * @file
 * Tests for the work-stealing thread pool: submit/wait semantics,
 * exception propagation through futures, destruction with pending work,
 * and result ordering via futures.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
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
    for (int i = 0; i < 64; ++i)
        pool.post([&count] { count.fetch_add(1); });
    pool.wait();
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
            pool.post([count] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                count->fetch_add(1);
            });
        // Destroyed while most tasks are still queued.
    }
    EXPECT_EQ(count->load(), 24);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.post([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.post([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, PostAndSubmitInterleave)
{
    // wait() covers fire-and-forget posts and future-returning submits
    // alike, and the pool stays usable after it.
    ThreadPool pool(2);
    std::atomic<int> n{0};
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 50; ++i) {
        pool.post([&n] { n.fetch_add(1); });
        futures.push_back(pool.submit([&n, i] {
            n.fetch_add(1);
            return i;
        }));
    }
    pool.wait();
    EXPECT_EQ(n.load(), 100);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i);

    pool.post([&n] { n.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(n.load(), 101);
}

TEST(ThreadPool, SingleThreadPoolStillWorks)
{
    ThreadPool pool(1);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(pool.submit([i] { return i; }));
    int sum = 0;
    for (auto &f : futures)
        sum += f.get();
    EXPECT_EQ(sum, 28);
}

TEST(ThreadPool, DefaultThreadsNonZero)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
    ThreadPool pool;
    EXPECT_EQ(pool.size(), ThreadPool::defaultThreads());
}

TEST(ThreadPool, ManyMoreTasksThanThreads)
{
    ThreadPool pool(4);
    std::atomic<std::uint64_t> sum{0};
    for (std::uint64_t i = 1; i <= 1000; ++i)
        pool.post([&sum, i] { sum.fetch_add(i); });
    pool.wait();
    EXPECT_EQ(sum.load(), 500500u);
}

} // namespace
} // namespace cgct
