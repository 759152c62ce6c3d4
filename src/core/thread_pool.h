#ifndef FEDDA_CORE_THREAD_POOL_H_
#define FEDDA_CORE_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/mutex.h"
#include "core/thread_annotations.h"

namespace fedda::core {

/// Long-lived fixed-size fork-join pool shared by the FL round loop (client-
/// level parallelism) and the tensor kernels (row-level parallelism). A pool
/// is constructed once per run and reused across thousands of ParallelFor
/// waves. A pool with num_threads == 0 runs every wave inline on the caller
/// (useful on single-core hosts and for deterministic debugging).
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) for i in [0, n), then returns. Work is split into contiguous
  /// chunks of at least `grain` indices, and the calling thread participates
  /// in executing chunks, so the call is safe (and deadlock-free) from
  /// inside a chunk of another wave. Chunk boundaries never change results
  /// as long as fn(i) only writes state owned by index i.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn,
                   int64_t grain = 1);

  /// Range flavour: runs fn(begin, end) over a partition of [0, n) into
  /// contiguous chunks of at least `grain` indices. Preferred for hot kernels
  /// (no per-index std::function dispatch). Same nesting guarantees as
  /// ParallelFor.
  void ParallelForRange(int64_t n, int64_t grain,
                        const std::function<void(int64_t, int64_t)>& fn);

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  /// Shared state of one ParallelFor wave. Helpers claim chunks via an atomic
  /// cursor; the caller waits until every chunk has completed. Everything
  /// except `completed` is written once before the wave is published and
  /// read-only afterwards, so only the completion count needs the lock.
  struct ForLoop {
    int64_t n = 0;
    int64_t chunk = 1;
    int64_t num_chunks = 0;
    const std::function<void(int64_t, int64_t)>* fn = nullptr;
    std::atomic<int64_t> next_chunk{0};
    Mutex mutex;
    CondVar done;
    int64_t completed FEDDA_GUARDED_BY(mutex) = 0;
  };

  void WorkerLoop();
  static void RunChunks(ForLoop* wave);

  std::vector<std::thread> workers_;  // immutable after the constructor
  Mutex mutex_;
  CondVar work_available_;
  /// One entry per helper a wave asked for. A worker that pops the entry of
  /// a wave whose chunks are all claimed runs nothing.
  std::deque<std::shared_ptr<ForLoop>> queue_ FEDDA_GUARDED_BY(mutex_);
  bool shutting_down_ FEDDA_GUARDED_BY(mutex_) = false;
};

/// Chunked parallel-for over [0, n) that tolerates a null or worker-less pool
/// by running inline. The tensor kernels call this with the graph's optional
/// pool pointer.
void ParallelForRange(ThreadPool* pool, int64_t n, int64_t grain,
                      const std::function<void(int64_t, int64_t)>& fn);

}  // namespace fedda::core

#endif  // FEDDA_CORE_THREAD_POOL_H_
