#include "core/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace fedda::core {
namespace {

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.ParallelFor(50, [&](int64_t i) { hits[static_cast<size_t>(i)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForInlineMode) {
  ThreadPool pool(0);
  int64_t sum = 0;
  pool.ParallelFor(10, [&](int64_t i) { sum += i; });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  // The pool is destroyed right after a wave, so entries of helpers that had
  // not started yet are drained at shutdown; they claim no chunk and never
  // call the finished wave's function.
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    pool.ParallelFor(20, [&](int64_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, WaveChunksRunConcurrently) {
  // Each of the wave's four one-index chunks waits until all four have
  // started, so the wave ends only if the three workers each run a chunk
  // beside the caller. The waits share one 10 s deadline, so a wave that
  // runs its chunks one after another fails instead of hanging.
  ThreadPool pool(3);
  std::mutex mu;
  std::condition_variable all_started;
  int started = 0;
  bool timed_out = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  pool.ParallelForRange(4, 1, [&](int64_t, int64_t) {
    std::unique_lock<std::mutex> lock(mu);
    if (++started == 4) all_started.notify_all();
    if (!all_started.wait_until(lock, deadline, [&] { return started == 4; })) {
      timed_out = true;
    }
  });
  EXPECT_FALSE(timed_out);
}

TEST(ThreadPoolTest, ParallelForRangeCoversPartitionExactlyOnce) {
  ThreadPool pool(3);
  for (int64_t n : {1, 2, 7, 64, 1000}) {
    for (int64_t grain : {1, 3, 64, 5000}) {
      std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
      pool.ParallelForRange(n, grain, [&](int64_t begin, int64_t end) {
        ASSERT_LE(0, begin);
        ASSERT_LT(begin, end);
        ASSERT_LE(end, n);
        for (int64_t i = begin; i < end; ++i) {
          hits[static_cast<size_t>(i)]++;
        }
      });
      for (auto& h : hits) EXPECT_EQ(h.load(), 1) << "n=" << n;
    }
  }
}

TEST(ThreadPoolTest, ParallelForRespectsGrainChunking) {
  ThreadPool pool(4);
  // With grain 10 over 100 indices, no invocation may see fewer than 10
  // indices (except a short final chunk) and chunks must be contiguous.
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> chunks;
  pool.ParallelForRange(100, 10, [&](int64_t begin, int64_t end) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(begin, end);
  });
  int64_t covered = 0;
  for (const auto& [begin, end] : chunks) {
    covered += end - begin;
    EXPECT_EQ(begin % 10, 0);
    EXPECT_TRUE(end - begin >= 10 || end == 100);
  }
  EXPECT_EQ(covered, 100);
  // Far fewer chunks than indices: the one-task-per-index regression.
  EXPECT_LE(chunks.size(), 10u);
}

TEST(ThreadPoolTest, NestedParallelForFromWorkerTaskDoesNotDeadlock) {
  // A ParallelFor issued from inside another wave's chunk must complete even
  // when every worker is busy: the calling thread executes chunks itself.
  ThreadPool pool(2);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(4, [&](int64_t) {
    pool.ParallelFor(100, [&](int64_t i) { total.fetch_add(i); });
  });
  EXPECT_EQ(total.load(), 4 * (99 * 100 / 2));
}

TEST(ThreadPoolTest, NullPoolHelperRunsInline) {
  int64_t sum = 0;
  ParallelForRange(nullptr, 10, 1,
                   [&](int64_t begin, int64_t end) {
                     for (int64_t i = begin; i < end; ++i) sum += i;
                   });
  EXPECT_EQ(sum, 45);
  ThreadPool empty(0);
  ParallelForRange(&empty, 10, 1,
                   [&](int64_t begin, int64_t end) { sum += end - begin; });
  EXPECT_EQ(sum, 55);
}

TEST(ThreadPoolTest, ReusedAcrossThousandsOfWaves) {
  // The pool is constructed once per FL run and must survive thousands of
  // ParallelFor waves (every op of every round reuses it).
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  constexpr int kWaves = 4000;
  for (int wave = 0; wave < kWaves; ++wave) {
    pool.ParallelFor(16, [&](int64_t) { total.fetch_add(1); }, /*grain=*/2);
  }
  EXPECT_EQ(total.load(), static_cast<int64_t>(kWaves) * 16);
}

}  // namespace
}  // namespace fedda::core
