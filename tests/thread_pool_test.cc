// base/thread_pool.h: scheduling, exception propagation, and shutdown.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/thread_pool.h"

namespace fairlaw {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (std::future<void>& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&hits](size_t i) { ++hits[i]; });
  for (const std::atomic<int>& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, ResultIsIndependentOfThreadCount) {
  // The same reduction, computed at several pool widths, must agree:
  // per-index slots make the aggregation order-independent.
  std::vector<long long> expected_slots(500);
  for (size_t i = 0; i < expected_slots.size(); ++i) {
    expected_slots[i] = static_cast<long long>(i * i);
  }
  const long long expected = std::accumulate(expected_slots.begin(),
                                             expected_slots.end(), 0LL);
  for (const size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<long long> slots(expected_slots.size(), 0);
    pool.ParallelFor(slots.size(), [&slots](size_t i) {
      slots[i] = static_cast<long long>(i * i);
    });
    EXPECT_EQ(std::accumulate(slots.begin(), slots.end(), 0LL), expected)
        << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  std::future<void> f =
      pool.Submit([] { throw std::runtime_error("job failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForRethrowsLowestIndexException) {
  ThreadPool pool(4);
  try {
    pool.ParallelFor(64, [](size_t i) {
      if (i == 7 || i == 31) {
        throw std::runtime_error("failed at " + std::to_string(i));
      }
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "failed at 7");
  }
}

TEST(ThreadPoolTest, PoolKeepsWorkingAfterAnException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.Submit([] { throw std::runtime_error("boom"); }).get(),
               std::runtime_error);
  std::atomic<int> counter{0};
  pool.ParallelFor(10, [&counter](size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, DestructorDrainsPendingQueue) {
  // Queue far more jobs than workers, then destroy the pool immediately:
  // shutdown must finish the backlog, not drop it.
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 200; ++i) {
      (void)pool.Submit([&counter] { ++counter; });
    }
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ZeroRequestsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, ParallelForWithNoWorkReturnsImmediately) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&ran](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

// The free ParallelFor: inline for one thread or one task, a pool built
// for the call otherwise.

TEST(ParallelForTest, ZeroTasksCallNothing) {
  for (size_t threads : {size_t{0}, size_t{1}, size_t{8}}) {
    bool ran = false;
    ParallelFor(threads, 0, [&ran](size_t) { ran = true; });
    EXPECT_FALSE(ran) << "threads=" << threads;
  }
}

/// Set only on the thread that runs a test body, so a task that reads it
/// as true ran on the calling thread.
thread_local bool on_test_thread = false;

TEST(ParallelForTest, OneThreadRunsInIndexOrderOnTheCallingThread) {
  on_test_thread = true;
  std::vector<size_t> order;
  bool inline_calls = true;
  ParallelFor(1, 6, [&](size_t i) {
    order.push_back(i);
    inline_calls = inline_calls && on_test_thread;
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_TRUE(inline_calls);

  // One task runs inline at any thread count.
  bool single_inline = false;
  ParallelFor(8, 1, [&](size_t) { single_inline = on_test_thread; });
  EXPECT_TRUE(single_inline);

  // More than one task on more than one thread runs on pool workers.
  std::vector<uint8_t> on_caller(16, 1);
  ParallelFor(4, on_caller.size(),
              [&](size_t i) { on_caller[i] = on_test_thread ? 1 : 0; });
  EXPECT_EQ(on_caller, std::vector<uint8_t>(16, 0));
  on_test_thread = false;
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnceOnAPool) {
  for (size_t threads : {size_t{0}, size_t{8}}) {
    std::vector<std::atomic<int>> hits(500);
    ParallelFor(threads, hits.size(), [&hits](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ParallelForTest, RethrowsTheLowestIndexExceptionInBothModes) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    std::atomic<int> calls{0};
    try {
      ParallelFor(threads, 64, [&calls](size_t i) {
        ++calls;
        if (i == 7 || i == 31) {
          throw std::runtime_error("failed at " + std::to_string(i));
        }
      });
      FAIL() << "expected ParallelFor to rethrow, threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "failed at 7") << "threads=" << threads;
    }
    // Serially the first throw ends the loop; on a pool every call runs.
    EXPECT_EQ(calls.load(), threads == 1 ? 8 : 64) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace fairlaw
