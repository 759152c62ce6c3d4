#ifndef FEDDA_TENSOR_KERNELS_KERNELS_H_
#define FEDDA_TENSOR_KERNELS_KERNELS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

namespace fedda::core {
class ThreadPool;
}  // namespace fedda::core

namespace fedda::tensor::kernels {

/// Runtime-dispatched tensor kernels (DESIGN.md §13).
///
/// Every kernel here is *bit-exact across dispatch paths*: the vectorized
/// implementations only reorganize lane-independent arithmetic (separate
/// mul and add, never FMA; reductions keep the scalar path's accumulation
/// order), so the scalar and AVX2 paths produce byte-identical outputs. The
/// kernel-equivalence suite (tests/tensor/kernel_equivalence_test.cc)
/// enforces this for every kernel under every available path × {0,1,4}
/// threads; the golden-run suite enforces it end to end.
///
/// Exp-based kernels (segment-softmax) deliberately stay scalar under every
/// path — a vectorized exp() approximation would change bits. Hosts without
/// AVX2, AArch64 included, run the scalar bodies.

// ---------------------------------------------------------------------------
// Scheduling grains
// ---------------------------------------------------------------------------

/// The minimum work of one parallel chunk, for the kernels below and the
/// ops that partition their own loops: a chunk must carry enough
/// arithmetic to amortize its enqueue. Elementwise loops count scalars, row
/// loops divide a multiply-add budget by each row's work (RowGrain) and
/// segment loops count segments. Chunk boundaries never change results
/// (lane and row independence), only scheduling.
inline constexpr int64_t kElementGrain = 4096;
inline constexpr int64_t kRowWorkGrain = 16384;
inline constexpr int64_t kSegmentGrain = 16;

/// Rows per chunk when each row costs `row_work` scalar operations.
inline int64_t RowGrain(int64_t row_work) {
  return std::max<int64_t>(1,
                           kRowWorkGrain / std::max<int64_t>(1, row_work));
}

// ---------------------------------------------------------------------------
// Dispatch policy
// ---------------------------------------------------------------------------

/// What the process is asked to run. kAuto resolves to the best path the
/// CPU and build support. Initialized once from FEDDA_KERNEL_DISPATCH
/// (scalar|avx2|auto, default auto); tests override programmatically.
enum class DispatchMode : uint8_t { kAuto, kScalar, kAvx2 };

/// What actually executes. A mode requesting an unavailable path resolves
/// to kScalar (graceful, never fatal: the scalar path is always correct).
enum class Path : uint8_t { kScalar, kAvx2 };

DispatchMode dispatch_mode();
void SetDispatchMode(DispatchMode mode);
/// Parses "scalar"/"avx2"/"auto"; anything else (and null) -> kAuto.
DispatchMode ParseDispatchMode(const char* value);

/// The path the current mode resolves to on this machine.
Path ActivePath();
const char* PathName(Path path);
/// Every path that can actually execute here (kScalar always included).
std::vector<Path> SupportedPaths();
/// True when avx2.cc was compiled with -mavx2 AND the CPU reports AVX2.
bool Avx2Available();

/// Always false: every op runs its own kernel; nothing is fused. Kept
/// because perfbench prints it on its host line.
bool FusionEnabled();

// ---------------------------------------------------------------------------
// CSR grouping for gather / scatter / segment-softmax
// ---------------------------------------------------------------------------

/// Positions [0, n) grouped by destination row:
/// `order[offsets[r] .. offsets[r+1])` lists — in increasing position order
/// — the positions whose destination is row r. Scatter-style accumulations
/// iterate a destination's contributions in exactly the sequential loop's
/// order, so grouped execution is bit-identical at any thread count.
struct Csr {
  std::vector<int64_t> offsets;  // num_rows + 1 entries
  std::vector<int32_t> order;    // one entry per position
};

Csr BuildCsr(const std::vector<int32_t>& rows, int64_t num_rows);

/// Cached BuildCsr keyed on the shared index vector's identity. The
/// message-passing structure reuses the same shared_ptr<vector> for every
/// forward pass of every epoch, so a static graph pays the counting-sort
/// regroup once, not once per op per batch. Entries are validated against
/// a weak_ptr (address reuse after free rebuilds instead of serving stale
/// offsets), and every insertion sweeps the expired entries, so a dead
/// per-batch index vector's CSR is freed at the next miss. Thread-safe.
std::shared_ptr<const Csr> GetCsr(
    const std::shared_ptr<const std::vector<int32_t>>& ids,
    int64_t num_rows);

/// Cache telemetry for tests (process-wide, monotonically increasing).
int64_t CsrCacheHits();
int64_t CsrCacheMisses();

// ---------------------------------------------------------------------------
// Dense kernels
// ---------------------------------------------------------------------------
// Buffer contracts: `out`/`dst` may alias an input only where the kernel is
// purely elementwise (lane i reads only index i), which holds for every
// Ew*/Accumulate*/ScaleInPlace kernel. Matmul, bias, gather, scatter, edge
// and segment kernels require non-overlapping buffers.
// All kernels tolerate pool == nullptr (inline execution) and n == 0.

/// out (m x n) += a (m x k) * b (k x n); `out` must be zero-initialized by
/// the caller. Every out[i,j] adds a[i,kk] * b[kk,j] in increasing kk, the
/// product rounded before the add, whatever the register blocking (blocks
/// of output rows and columns; lanes over output rows when n == 1), vector
/// width or thread count. Terms whose A entry is exactly 0.0f are skipped
/// on every path (the historical sparse-activation fast path; skipping is
/// value-identical only because every path does it).
void MatMul(const float* a, const float* b, float* out, int64_t m, int64_t k,
            int64_t n, core::ThreadPool* pool);

/// out (m x n) += aᵀ * b, where `a` is stored (k x m) and b is (k x n):
/// the MatMul of a transposed copy of `a`, without making the copy, through
/// MatMul's register blocks with a's strides swapped. Each out[i,j] adds
/// a[kk,i] * b[kk,j] in increasing kk and skips exactly-zero a[kk,i], term
/// for term as MatMul does. `out` must be zero-initialized. The MatMul
/// backward forms each weight gradient in a fresh zeroed tensor and adds it
/// to the gradient slot afterwards.
void MatMulAtB(const float* a, const float* b, float* out, int64_t m,
               int64_t k, int64_t n, core::ThreadPool* pool);

/// out (m x n) += a * bᵀ, where a is (m x k) and `b` is stored (n x k):
/// the MatMul of `a` with a transposed copy of `b`, without making the
/// copy. Each out[i,j] adds a[i,kk] * b[j,kk] in increasing kk and skips
/// exactly-zero a[i,kk]. `out` must be zero-initialized.
void MatMulABt(const float* a, const float* b, float* out, int64_t m,
               int64_t k, int64_t n, core::ThreadPool* pool);

/// out[i] = a[i] * b[i].
void EwMul(const float* a, const float* b, float* out, int64_t n,
           core::ThreadPool* pool);
/// out[i] = a[i] + b[i].
void EwAdd(const float* a, const float* b, float* out, int64_t n,
           core::ThreadPool* pool);
/// out[i] = a[i] - b[i].
void EwSub(const float* a, const float* b, float* out, int64_t n,
           core::ThreadPool* pool);
/// dst[i] += src[i].
void AccumulateAdd(float* dst, const float* src, int64_t n,
                   core::ThreadPool* pool);
/// dst[i] += alpha * src[i].
void AccumulateAxpy(float* dst, float alpha, const float* src, int64_t n,
                    core::ThreadPool* pool);
/// dst[i] += a[i] * b[i].
void AccumulateMul(float* dst, const float* a, const float* b, int64_t n,
                   core::ThreadPool* pool);
/// dst[i] *= alpha.
void ScaleInPlace(float* dst, float alpha, int64_t n,
                  core::ThreadPool* pool);

/// out[r,c] = x[r,c] + bias[c]; x is (rows x cols), bias is (1 x cols).
void BiasAdd(const float* x, const float* bias, float* out, int64_t rows,
             int64_t cols, core::ThreadPool* pool);

// ---------------------------------------------------------------------------
// Row kernels: x is (rows x cols), s and dst columns are (rows x 1)
// ---------------------------------------------------------------------------

/// dst[r,c] += s[r] * x[r,c], the product rounded before the add. Both
/// RowDot input gradients.
void RowScaleAccumulate(const float* s, const float* x, float* dst,
                        int64_t rows, int64_t cols, core::ThreadPool* pool);
/// dst[r] += dot, where dot starts at 0.0f and adds x[r,c] * y[r,c] in
/// increasing c. The RowDot forward (into a zeroed dst; dot is never -0.0,
/// so 0.0f + dot == dot bit for bit).
void RowDot(const float* x, const float* y, float* dst, int64_t rows,
            int64_t cols, core::ThreadPool* pool);

// ---------------------------------------------------------------------------
// CSR-native gather / scatter / segment kernels
// ---------------------------------------------------------------------------
// Indices must be pre-validated by the caller (ops.cc CHECKs them once).

/// out[i, :] = src[idx[i], :] for i in [0, n_idx).
void GatherRows(const float* src, const int32_t* idx, int64_t n_idx,
                int64_t cols, float* out, core::ThreadPool* pool);

/// out[r, :] += sum over positions p grouped under r (in increasing
/// position order) of src[p, :]. The GatherRows backward.
void ScatterAddRows(const float* src, const Csr& csr, int64_t cols,
                    float* out, core::ThreadPool* pool);

/// out[r, :] += w[p] * x[idx[p], :] for each position p grouped under r,
/// in increasing position order; each product is rounded before its add.
/// The EdgeAggregate forward (grouped by destination, idx = source, zeroed
/// out) and its input gradient (grouped by source, idx = destination,
/// x = the output gradient). No per-position rows are materialized.
void WeightedGatherSum(const float* x, const int32_t* idx, const float* w,
                       const Csr& csr, int64_t cols, float* out,
                       core::ThreadPool* pool);

/// dst[i] += dot, where dot starts at 0.0f and adds
/// x[x_idx[i], c] * y[y_idx[i], c] in increasing c: RowDot over gathered
/// rows, without gathering them. The EdgeAggregate weight gradient.
void IndexedRowDot(const float* x, const int32_t* x_idx, const float* y,
                   const int32_t* y_idx, float* dst, int64_t n, int64_t cols,
                   core::ThreadPool* pool);

/// The Simple-HGN attention logits of n edges, before their softmax:
/// pre[e] = (s_src[src[e]] + s_dst[dst[e]]) + s_edge[etype[e]], each sum
/// rounded before the next add, and logits[e] = pre[e] > 0 ? pre[e] :
/// slope * pre[e]. With s_edge null the edge-type term is left out and
/// etype is not read. The EdgeSoftmax forward up to SegmentSoftmax; pre
/// keeps the pre-activations for its LeakyReLU derivative.
void EdgeAttentionLogits(const float* s_src, const float* s_dst,
                         const float* s_edge, const int32_t* src,
                         const int32_t* dst, const int32_t* etype,
                         float slope, float* pre, float* logits, int64_t n,
                         core::ThreadPool* pool);

/// Per-segment max-shifted softmax over a column of logits; out must not
/// alias logits. Scalar on every path (exp).
void SegmentSoftmax(const float* logits, const Csr& csr, float* out,
                    core::ThreadPool* pool);
/// dl[i] += y[i] * (dy[i] - sum_{j in seg(i)} y[j] dy[j]).
void SegmentSoftmaxGrad(const float* y, const float* dy, const Csr& csr,
                        float* dl, core::ThreadPool* pool);

}  // namespace fedda::tensor::kernels

#endif  // FEDDA_TENSOR_KERNELS_KERNELS_H_
