#include "core/thread_pool.h"

#include <algorithm>

#include "core/check.h"

namespace fedda::core {

ThreadPool::ThreadPool(int num_threads) {
  FEDDA_CHECK_GE(num_threads, 0);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mutex_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::RunChunks(ForLoop* wave) {
  // Claim chunks until none remain. A thread that claims a chunk is
  // guaranteed `wave->fn` is still alive: ParallelForRange cannot return
  // before `completed == num_chunks`, and this chunk has not completed yet.
  // A thread that claims no chunk never dereferences `fn`.
  while (true) {
    const int64_t c = wave->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= wave->num_chunks) return;
    const int64_t begin = c * wave->chunk;
    const int64_t end = std::min(wave->n, begin + wave->chunk);
    (*wave->fn)(begin, end);
    MutexLock lock(&wave->mutex);
    ++wave->completed;
    if (wave->completed == wave->num_chunks) wave->done.NotifyAll();
  }
}

void ThreadPool::ParallelForRange(
    int64_t n, int64_t grain, const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) return;
  grain = std::max<int64_t>(grain, 1);
  if (workers_.empty() || n <= grain) {
    fn(0, n);
    return;
  }

  auto loop = std::make_shared<ForLoop>();
  loop->n = n;
  // A few chunks per worker so fast threads pick up slack from slow ones,
  // but never smaller than the grain (which callers size so per-chunk work
  // amortizes the scheduling overhead).
  const int64_t target_chunks = static_cast<int64_t>(workers_.size()) * 4;
  loop->chunk = std::max(grain, (n + target_chunks - 1) / target_chunks);
  loop->num_chunks = (loop->n + loop->chunk - 1) / loop->chunk;
  loop->fn = &fn;

  // Helpers beyond the chunk count would only contend on the cursor.
  const int64_t helpers = std::min<int64_t>(
      static_cast<int64_t>(workers_.size()), loop->num_chunks - 1);
  {
    MutexLock lock(&mutex_);
    for (int64_t h = 0; h < helpers; ++h) queue_.push_back(loop);
  }
  for (int64_t h = 0; h < helpers; ++h) work_available_.NotifyOne();

  // The caller participates: even when every worker is busy (e.g. this is a
  // nested call from inside another wave's chunk) the loop completes on the
  // calling thread alone, so nesting cannot deadlock.
  RunChunks(loop.get());

  ForLoop& wave = *loop;
  MutexLock lock(&wave.mutex);
  while (wave.completed != wave.num_chunks) wave.done.Wait(&wave.mutex);
}

void ThreadPool::ParallelFor(int64_t n, const std::function<void(int64_t)>& fn,
                             int64_t grain) {
  ParallelForRange(n, grain, [&fn](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) fn(i);
  });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::shared_ptr<ForLoop> wave;
    {
      MutexLock lock(&mutex_);
      while (!shutting_down_ && queue_.empty()) {
        work_available_.Wait(&mutex_);
      }
      // Shutdown drains the queue first. A wave cannot be in progress once
      // the destructor runs, so every entry left belongs to a finished wave
      // and claims no chunk.
      if (queue_.empty()) return;
      wave = std::move(queue_.front());
      queue_.pop_front();
    }
    RunChunks(wave.get());
  }
}

void ParallelForRange(ThreadPool* pool, int64_t n, int64_t grain,
                      const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) return;
  if (pool == nullptr || pool->num_threads() == 0) {
    fn(0, n);
    return;
  }
  pool->ParallelForRange(n, grain, fn);
}

}  // namespace fedda::core
