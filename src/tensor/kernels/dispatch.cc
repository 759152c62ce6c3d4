#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <utility>

#include "core/check.h"
#include "core/cpu_features.h"
#include "core/mutex.h"
#include "core/thread_pool.h"
#include "tensor/kernels/internal.h"

namespace fedda::tensor::kernels {

namespace {

std::atomic<uint8_t>& ModeStorage() {
  static std::atomic<uint8_t> mode{static_cast<uint8_t>(
      ParseDispatchMode(std::getenv("FEDDA_KERNEL_DISPATCH")))};
  return mode;
}

}  // namespace

DispatchMode dispatch_mode() {
  return static_cast<DispatchMode>(ModeStorage().load());
}

void SetDispatchMode(DispatchMode mode) {
  ModeStorage().store(static_cast<uint8_t>(mode));
}

DispatchMode ParseDispatchMode(const char* value) {
  if (value == nullptr) return DispatchMode::kAuto;
  if (std::strcmp(value, "scalar") == 0) return DispatchMode::kScalar;
  if (std::strcmp(value, "avx2") == 0) return DispatchMode::kAvx2;
  return DispatchMode::kAuto;
}

bool Avx2Available() {
  return avx2::KernelsCompiled() && core::CpuHasAvx2();
}

Path ActivePath() {
  switch (dispatch_mode()) {
    case DispatchMode::kScalar:
      return Path::kScalar;
    case DispatchMode::kAvx2:
      return Avx2Available() ? Path::kAvx2 : Path::kScalar;
    case DispatchMode::kAuto:
      break;
  }
  return Avx2Available() ? Path::kAvx2 : Path::kScalar;
}

const char* PathName(Path path) {
  switch (path) {
    case Path::kScalar:
      return "scalar";
    case Path::kAvx2:
      return "avx2";
  }
  return "unknown";
}

std::vector<Path> SupportedPaths() {
  std::vector<Path> paths{Path::kScalar};
  if (Avx2Available()) paths.push_back(Path::kAvx2);
  return paths;
}

bool FusionEnabled() { return false; }

// ---------------------------------------------------------------------------
// CSR grouping + cache
// ---------------------------------------------------------------------------

Csr BuildCsr(const std::vector<int32_t>& rows, int64_t num_rows) {
  Csr csr;
  csr.offsets.assign(static_cast<size_t>(num_rows) + 1, 0);
  for (int32_t r : rows) ++csr.offsets[static_cast<size_t>(r) + 1];
  for (int64_t r = 0; r < num_rows; ++r) {
    csr.offsets[static_cast<size_t>(r) + 1] +=
        csr.offsets[static_cast<size_t>(r)];
  }
  csr.order.resize(rows.size());
  std::vector<int64_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  for (size_t i = 0; i < rows.size(); ++i) {
    csr.order[static_cast<size_t>(cursor[static_cast<size_t>(rows[i])]++)] =
        static_cast<int32_t>(i);
  }
  return csr;
}

namespace {

struct CsrCacheEntry {
  // Validates the raw-pointer key: a new vector allocated at a freed
  // vector's address must miss, not serve the dead vector's grouping.
  std::weak_ptr<const std::vector<int32_t>> key;
  int64_t num_rows = 0;
  std::shared_ptr<const Csr> csr;
};

core::Mutex g_csr_mutex;
// std::map (not unordered_map): deterministic iteration and no hashing of
// pointer values; the cache holds tens of entries at most.
std::map<const void*, CsrCacheEntry> g_csr_cache
    FEDDA_GUARDED_BY(g_csr_mutex);
std::atomic<int64_t> g_csr_hits{0};
std::atomic<int64_t> g_csr_misses{0};

}  // namespace

std::shared_ptr<const Csr> GetCsr(
    const std::shared_ptr<const std::vector<int32_t>>& ids,
    int64_t num_rows) {
  FEDDA_CHECK(ids != nullptr);
  const void* key = ids.get();
  {
    core::MutexLock lock(&g_csr_mutex);
    auto it = g_csr_cache.find(key);
    if (it != g_csr_cache.end() && it->second.num_rows == num_rows &&
        it->second.key.lock() == ids) {
      g_csr_hits.fetch_add(1);
      return it->second.csr;
    }
  }
  g_csr_misses.fetch_add(1);
  auto csr = std::make_shared<const Csr>(BuildCsr(*ids, num_rows));
  {
    core::MutexLock lock(&g_csr_mutex);
    // An expired entry can never hit again: free its CSR now rather than
    // let per-batch index vectors keep dead groupings resident.
    std::erase_if(g_csr_cache,
                  [](const auto& entry) { return entry.second.key.expired(); });
    g_csr_cache[key] = CsrCacheEntry{ids, num_rows, csr};
  }
  return csr;
}

int64_t CsrCacheHits() { return g_csr_hits.load(); }
int64_t CsrCacheMisses() { return g_csr_misses.load(); }

// ---------------------------------------------------------------------------
// Kernel entry points
// ---------------------------------------------------------------------------

// Resolve the path once per kernel call (not per chunk) and route each
// chunk to that path's serial implementation.
#define FEDDA_DISPATCH_PATH(path, fn, ...) \
  if ((path) == Path::kAvx2) {             \
    avx2::fn(__VA_ARGS__);                 \
  } else {                                 \
    scalar::fn(__VA_ARGS__);               \
  }

namespace {

// Runs body(row_begin, row_end) over the m output rows of a matmul whose
// rows each cost k * n multiply-adds. Output rows are independent, so any
// partition preserves each row's accumulation order exactly; chunks hold
// whole kMatMulRowBlock-row blocks, so none splits an AVX2 register block.
template <typename Body>
void ForMatMulRowBlocks(int64_t m, int64_t k, int64_t n,
                        core::ThreadPool* pool, Body body) {
  const int64_t blocks = (m + kMatMulRowBlock - 1) / kMatMulRowBlock;
  core::ParallelForRange(
      pool, blocks, RowGrain(k * n * kMatMulRowBlock),
      [=](int64_t block_begin, int64_t block_end) {
        body(block_begin * kMatMulRowBlock,
             std::min(m, block_end * kMatMulRowBlock));
      });
}

}  // namespace

void MatMul(const float* a, const float* b, float* out, int64_t m, int64_t k,
            int64_t n, core::ThreadPool* pool) {
  const Path path = ActivePath();
  ForMatMulRowBlocks(m, k, n, pool, [=](int64_t row_begin, int64_t row_end) {
    FEDDA_DISPATCH_PATH(path, MatMulRows, a, b, out, row_begin, row_end, k,
                        n)
  });
}

void MatMulAtB(const float* a, const float* b, float* out, int64_t m,
               int64_t k, int64_t n, core::ThreadPool* pool) {
  const Path path = ActivePath();
  ForMatMulRowBlocks(m, k, n, pool, [=](int64_t row_begin, int64_t row_end) {
    FEDDA_DISPATCH_PATH(path, MatMulAtBRows, a, b, out, row_begin, row_end,
                        m, k, n)
  });
}

// MatMulABt's AVX2 body blocks output columns only, so its chunks are
// plain row ranges; each output row carries k * n multiply-adds.
void MatMulABt(const float* a, const float* b, float* out, int64_t m,
               int64_t k, int64_t n, core::ThreadPool* pool) {
  const Path path = ActivePath();
  core::ParallelForRange(
      pool, m, RowGrain(k * n), [=](int64_t row_begin, int64_t row_end) {
        FEDDA_DISPATCH_PATH(path, MatMulABtRows, a, b, out, row_begin,
                            row_end, k, n)
      });
}

void EwMul(const float* a, const float* b, float* out, int64_t n,
           core::ThreadPool* pool) {
  const Path path = ActivePath();
  core::ParallelForRange(pool, n, kElementGrain,
                         [=](int64_t begin, int64_t end) {
                           FEDDA_DISPATCH_PATH(path, EwMul, a, b, out, begin,
                                               end)
                         });
}

void EwAdd(const float* a, const float* b, float* out, int64_t n,
           core::ThreadPool* pool) {
  const Path path = ActivePath();
  core::ParallelForRange(pool, n, kElementGrain,
                         [=](int64_t begin, int64_t end) {
                           FEDDA_DISPATCH_PATH(path, EwAdd, a, b, out, begin,
                                               end)
                         });
}

void EwSub(const float* a, const float* b, float* out, int64_t n,
           core::ThreadPool* pool) {
  const Path path = ActivePath();
  core::ParallelForRange(pool, n, kElementGrain,
                         [=](int64_t begin, int64_t end) {
                           FEDDA_DISPATCH_PATH(path, EwSub, a, b, out, begin,
                                               end)
                         });
}

void AccumulateAdd(float* dst, const float* src, int64_t n,
                   core::ThreadPool* pool) {
  const Path path = ActivePath();
  core::ParallelForRange(pool, n, kElementGrain,
                         [=](int64_t begin, int64_t end) {
                           FEDDA_DISPATCH_PATH(path, AccumulateAdd, dst, src,
                                               begin, end)
                         });
}

void AccumulateAxpy(float* dst, float alpha, const float* src, int64_t n,
                    core::ThreadPool* pool) {
  const Path path = ActivePath();
  core::ParallelForRange(pool, n, kElementGrain,
                         [=](int64_t begin, int64_t end) {
                           FEDDA_DISPATCH_PATH(path, AccumulateAxpy, dst,
                                               alpha, src, begin, end)
                         });
}

void AccumulateMul(float* dst, const float* a, const float* b, int64_t n,
                   core::ThreadPool* pool) {
  const Path path = ActivePath();
  core::ParallelForRange(pool, n, kElementGrain,
                         [=](int64_t begin, int64_t end) {
                           FEDDA_DISPATCH_PATH(path, AccumulateMul, dst, a, b,
                                               begin, end)
                         });
}

void ScaleInPlace(float* dst, float alpha, int64_t n,
                  core::ThreadPool* pool) {
  const Path path = ActivePath();
  core::ParallelForRange(pool, n, kElementGrain,
                         [=](int64_t begin, int64_t end) {
                           FEDDA_DISPATCH_PATH(path, Scale, dst, alpha, begin,
                                               end)
                         });
}

void BiasAdd(const float* x, const float* bias, float* out, int64_t rows,
             int64_t cols, core::ThreadPool* pool) {
  const Path path = ActivePath();
  core::ParallelForRange(pool, rows, RowGrain(cols),
                         [=](int64_t row_begin, int64_t row_end) {
                           FEDDA_DISPATCH_PATH(path, BiasAddRows, x, bias,
                                               out, row_begin, row_end, cols)
                         });
}

void RowScaleAccumulate(const float* s, const float* x, float* dst,
                        int64_t rows, int64_t cols, core::ThreadPool* pool) {
  const Path path = ActivePath();
  core::ParallelForRange(
      pool, rows, RowGrain(cols), [=](int64_t row_begin, int64_t row_end) {
        FEDDA_DISPATCH_PATH(path, RowScaleAccumulateRows, s, x, dst,
                            row_begin, row_end, cols)
      });
}

void RowDot(const float* x, const float* y, float* dst, int64_t rows,
            int64_t cols, core::ThreadPool* pool) {
  const Path path = ActivePath();
  core::ParallelForRange(
      pool, rows, RowGrain(cols), [=](int64_t row_begin, int64_t row_end) {
        FEDDA_DISPATCH_PATH(path, RowDotRows, x, y, dst, row_begin, row_end,
                            cols)
      });
}

// Row copies are memory-bound; the dispatchable win for gather/scatter is
// the cached CSR grouping, so the copy itself stays scalar on every path.
void GatherRows(const float* src, const int32_t* idx, int64_t n_idx,
                int64_t cols, float* out, core::ThreadPool* pool) {
  core::ParallelForRange(pool, n_idx, RowGrain(cols),
                         [=](int64_t i_begin, int64_t i_end) {
                           scalar::GatherRowsRange(src, idx, i_begin, i_end,
                                                   cols, out);
                         });
}

void ScatterAddRows(const float* src, const Csr& csr, int64_t cols,
                    float* out, core::ThreadPool* pool) {
  const Path path = ActivePath();
  const Csr* csr_ptr = &csr;
  const int64_t num_rows = static_cast<int64_t>(csr.offsets.size()) - 1;
  core::ParallelForRange(
      pool, num_rows, RowGrain(cols), [=](int64_t row_begin, int64_t row_end) {
        FEDDA_DISPATCH_PATH(path, ScatterAddRowsRange, src, *csr_ptr, cols,
                            out, row_begin, row_end)
      });
}

// Partitioned over output rows like ScatterAddRows: a row's positions all
// land in one chunk, so any partition keeps each row's order.
void WeightedGatherSum(const float* x, const int32_t* idx, const float* w,
                       const Csr& csr, int64_t cols, float* out,
                       core::ThreadPool* pool) {
  const Path path = ActivePath();
  const Csr* csr_ptr = &csr;
  const int64_t num_rows = static_cast<int64_t>(csr.offsets.size()) - 1;
  core::ParallelForRange(
      pool, num_rows, RowGrain(cols), [=](int64_t row_begin, int64_t row_end) {
        FEDDA_DISPATCH_PATH(path, WeightedGatherSumRows, x, idx, w, *csr_ptr,
                            cols, out, row_begin, row_end)
      });
}

void IndexedRowDot(const float* x, const int32_t* x_idx, const float* y,
                   const int32_t* y_idx, float* dst, int64_t n, int64_t cols,
                   core::ThreadPool* pool) {
  const Path path = ActivePath();
  core::ParallelForRange(
      pool, n, RowGrain(cols), [=](int64_t i_begin, int64_t i_end) {
        FEDDA_DISPATCH_PATH(path, IndexedRowDotRange, x, x_idx, y, y_idx, dst,
                            i_begin, i_end, cols)
      });
}

// Edges are independent lanes, partitioned like the elementwise kernels.
void EdgeAttentionLogits(const float* s_src, const float* s_dst,
                         const float* s_edge, const int32_t* src,
                         const int32_t* dst, const int32_t* etype,
                         float slope, float* pre, float* logits, int64_t n,
                         core::ThreadPool* pool) {
  const Path path = ActivePath();
  core::ParallelForRange(
      pool, n, kElementGrain, [=](int64_t e_begin, int64_t e_end) {
        FEDDA_DISPATCH_PATH(path, EdgeAttentionLogitsRange, s_src, s_dst,
                            s_edge, src, dst, etype, slope, pre, logits,
                            e_begin, e_end)
      });
}

void SegmentSoftmax(const float* logits, const Csr& csr, float* out,
                    core::ThreadPool* pool) {
  const Csr* csr_ptr = &csr;
  const int64_t num_segments = static_cast<int64_t>(csr.offsets.size()) - 1;
  core::ParallelForRange(pool, num_segments, kSegmentGrain,
                         [=](int64_t seg_begin, int64_t seg_end) {
                           scalar::SegmentSoftmaxRows(logits, *csr_ptr, out,
                                                      seg_begin, seg_end);
                         });
}

void SegmentSoftmaxGrad(const float* y, const float* dy, const Csr& csr,
                        float* dl, core::ThreadPool* pool) {
  const Csr* csr_ptr = &csr;
  const int64_t num_segments = static_cast<int64_t>(csr.offsets.size()) - 1;
  core::ParallelForRange(pool, num_segments, kSegmentGrain,
                         [=](int64_t seg_begin, int64_t seg_end) {
                           scalar::SegmentSoftmaxGradRows(y, dy, *csr_ptr, dl,
                                                          seg_begin, seg_end);
                         });
}

#undef FEDDA_DISPATCH_PATH

}  // namespace fedda::tensor::kernels
