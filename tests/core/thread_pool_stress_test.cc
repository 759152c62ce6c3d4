// Concurrency stress suite for core::ThreadPool, written to be run under
// ThreadSanitizer (cmake -DFEDDA_SANITIZE=thread). Each test hammers one
// usage pattern the FL stack depends on — ParallelFor nested inside another
// wave's chunks, waves issued concurrently from several external threads,
// and long-lived pool reuse — with enough iterations that a racy
// interleaving has a realistic chance to occur, but sized so the suite stays
// fast under TSan's ~10x slowdown.

#include "core/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace fedda::core {
namespace {

constexpr int64_t kSumTo = 99 * 100 / 2;  // sum of [0, 100)

TEST(ThreadPoolStressTest, ConcurrentExternalSubmitters) {
  // Several non-worker threads drive ParallelForRange waves on one shared
  // pool at the same time — the shape of two FederatedRunner evaluations
  // sharing a pool. Every wave must see its own complete partition.
  ThreadPool pool(4);
  constexpr int kSubmitters = 4;
  constexpr int kWavesPerSubmitter = 50;
  std::atomic<int64_t> total{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &total] {
      for (int wave = 0; wave < kWavesPerSubmitter; ++wave) {
        std::atomic<int64_t> acc{0};
        pool.ParallelForRange(100, 7, [&acc](int64_t begin, int64_t end) {
          int64_t part = 0;
          for (int64_t i = begin; i < end; ++i) part += i;
          acc.fetch_add(part, std::memory_order_relaxed);
        });
        EXPECT_EQ(acc.load(), kSumTo);
        total.fetch_add(acc.load(), std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(total.load(), kSubmitters * kWavesPerSubmitter * kSumTo);
}

TEST(ThreadPoolStressTest, DeeplyNestedParallelFor) {
  // Three levels of nesting: round -> client -> rows, the worst case the
  // runner produces. Inner waves run with every worker already busy, so
  // chunks execute on the calling (worker) threads.
  ThreadPool pool(3);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(6, [&](int64_t) {
    pool.ParallelFor(4, [&](int64_t) {
      pool.ParallelForRange(100, 9, [&](int64_t begin, int64_t end) {
        int64_t s = 0;
        for (int64_t i = begin; i < end; ++i) s += i;
        total.fetch_add(s, std::memory_order_relaxed);
      });
    });
  });
  EXPECT_EQ(total.load(), 6 * 4 * kSumTo);
}

TEST(ThreadPoolStressTest, ReuseAcrossWavesWithVaryingShapes) {
  // Rapid-fire waves whose n/grain shapes change every iteration, so chunk
  // counts oscillate between 1 and many and helpers are scheduled and
  // drained over and over on the same pool instance.
  ThreadPool pool(4);
  const int64_t ns[] = {1, 3, 17, 64, 257, 1000};
  const int64_t grains[] = {1, 5, 50, 10000};
  for (int repeat = 0; repeat < 30; ++repeat) {
    for (int64_t n : ns) {
      for (int64_t grain : grains) {
        std::atomic<int64_t> count{0};
        pool.ParallelForRange(n, grain, [&](int64_t begin, int64_t end) {
          count.fetch_add(end - begin, std::memory_order_relaxed);
        });
        ASSERT_EQ(count.load(), n);
      }
    }
  }
}

TEST(ThreadPoolStressTest, NestedParallelForResultsUnchangedUnderContention) {
  // Non-atomic per-index writes: each index owns its slot, nested waves
  // fan out from worker tasks, and an external thread runs its own waves
  // concurrently. TSan verifies no slot is touched by two threads without
  // ordering; the assertion verifies exactly-once coverage.
  ThreadPool pool(4);
  constexpr int kOuter = 8;
  constexpr int64_t kInner = 128;
  std::vector<std::vector<int>> hits(kOuter, std::vector<int>(kInner, 0));
  std::atomic<int64_t> side{0};
  std::thread external([&pool, &side] {
    for (int wave = 0; wave < 40; ++wave) {
      pool.ParallelForRange(64, 3, [&](int64_t begin, int64_t end) {
        side.fetch_add(end - begin, std::memory_order_relaxed);
      });
    }
  });
  pool.ParallelFor(kOuter, [&](int64_t o) {
    pool.ParallelFor(
        kInner,
        [&hits, o](int64_t i) {
          hits[static_cast<size_t>(o)][static_cast<size_t>(i)] += 1;
        },
        /*grain=*/8);
  });
  external.join();
  EXPECT_EQ(side.load(), 40 * 64);
  for (const auto& row : hits) {
    for (int h : row) ASSERT_EQ(h, 1);
  }
}

}  // namespace
}  // namespace fedda::core
