#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/kernels/internal.h"

namespace fedda::tensor::kernels::scalar {

// The loops below ARE the numeric contract: they reproduce the historical
// op implementations expression for expression (same operation order, no
// reassociation), and every vectorized path is tested bit-for-bit against
// them. Change nothing here without regenerating every golden suite.

void MatMulRows(const float* a, const float* b, float* out, int64_t row_begin,
                int64_t row_end, int64_t k, int64_t n) {
  // i-k-j order: streams through B rows, cache-friendly for row-major. The
  // zero-skip is semantic, not just fast: skipping `0 * b[j]` also skips the
  // NaN that 0 * inf would produce, so every path must skip identically.
  for (int64_t i = row_begin; i < row_end; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aval = a[i * k + kk];
      if (aval == 0.0f) continue;
      const float* brow = b + kk * n;
      float* orow = out + i * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += aval * brow[j];
    }
  }
}

// The transposed matmuls below add exactly MatMulRows' terms in exactly
// its order — only the loop nest differs. `out` element [i,j] is touched by
// one (i, kk) pair at a time, and kk ascends, whichever loop is outermost.

void MatMulAtBRows(const float* a, const float* b, float* out,
                   int64_t row_begin, int64_t row_end, int64_t m, int64_t k,
                   int64_t n) {
  // a is (k x m): reduction row kk of a is contiguous over the output rows
  // i, so kk runs outermost and each a row and b row is read once.
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* arow = a + kk * m;
    const float* brow = b + kk * n;
    for (int64_t i = row_begin; i < row_end; ++i) {
      const float aval = arow[i];
      if (aval == 0.0f) continue;
      float* orow = out + i * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += aval * brow[j];
    }
  }
}

void MatMulABtRows(const float* a, const float* b, float* out,
                   int64_t row_begin, int64_t row_end, int64_t k, int64_t n) {
  // b is (n x k): out[i,j] is a dot of a row of a with a row of b.
  for (int64_t i = row_begin; i < row_end; ++i) {
    const float* arow = a + i * k;
    float* orow = out + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aval = arow[kk];
      if (aval == 0.0f) continue;
      for (int64_t j = 0; j < n; ++j) orow[j] += aval * b[j * k + kk];
    }
  }
}

void EwMul(const float* a, const float* b, float* out, int64_t begin,
           int64_t end) {
  for (int64_t i = begin; i < end; ++i) out[i] = a[i] * b[i];
}

void EwAdd(const float* a, const float* b, float* out, int64_t begin,
           int64_t end) {
  for (int64_t i = begin; i < end; ++i) out[i] = a[i] + b[i];
}

void EwSub(const float* a, const float* b, float* out, int64_t begin,
           int64_t end) {
  for (int64_t i = begin; i < end; ++i) out[i] = a[i] - b[i];
}

void AccumulateAdd(float* dst, const float* src, int64_t begin, int64_t end) {
  for (int64_t i = begin; i < end; ++i) dst[i] += src[i];
}

void AccumulateAxpy(float* dst, float alpha, const float* src, int64_t begin,
                    int64_t end) {
  for (int64_t i = begin; i < end; ++i) dst[i] += alpha * src[i];
}

void AccumulateMul(float* dst, const float* a, const float* b, int64_t begin,
                   int64_t end) {
  for (int64_t i = begin; i < end; ++i) dst[i] += a[i] * b[i];
}

void Scale(float* dst, float alpha, int64_t begin, int64_t end) {
  for (int64_t i = begin; i < end; ++i) dst[i] *= alpha;
}

void BiasAddRows(const float* x, const float* bias, float* out,
                 int64_t row_begin, int64_t row_end, int64_t cols) {
  for (int64_t r = row_begin; r < row_end; ++r) {
    const float* xrow = x + r * cols;
    float* orow = out + r * cols;
    for (int64_t c = 0; c < cols; ++c) orow[c] = xrow[c] + bias[c];
  }
}

void RowScaleAccumulateRows(const float* s, const float* x, float* dst,
                            int64_t row_begin, int64_t row_end, int64_t cols) {
  for (int64_t r = row_begin; r < row_end; ++r) {
    const float f = s[r];
    const float* xrow = x + r * cols;
    float* drow = dst + r * cols;
    for (int64_t c = 0; c < cols; ++c) drow[c] += f * xrow[c];
  }
}

void RowDotRows(const float* x, const float* y, float* dst, int64_t row_begin,
                int64_t row_end, int64_t cols) {
  for (int64_t r = row_begin; r < row_end; ++r) {
    const float* xrow = x + r * cols;
    const float* yrow = y + r * cols;
    float dot = 0.0f;
    for (int64_t c = 0; c < cols; ++c) dot += xrow[c] * yrow[c];
    dst[r] += dot;
  }
}

void GatherRowsRange(const float* src, const int32_t* idx, int64_t i_begin,
                     int64_t i_end, int64_t cols, float* out) {
  for (int64_t i = i_begin; i < i_end; ++i) {
    const int64_t r = idx[i];
    std::copy(src + r * cols, src + (r + 1) * cols, out + i * cols);
  }
}

void ScatterAddRowsRange(const float* src, const Csr& csr, int64_t cols,
                         float* out, int64_t row_begin, int64_t row_end) {
  for (int64_t r = row_begin; r < row_end; ++r) {
    float* dst = out + r * cols;
    for (int64_t p = csr.offsets[static_cast<size_t>(r)];
         p < csr.offsets[static_cast<size_t>(r) + 1]; ++p) {
      const int64_t i = csr.order[static_cast<size_t>(p)];
      const float* srow = src + i * cols;
      for (int64_t c = 0; c < cols; ++c) dst[c] += srow[c];
    }
  }
}

void WeightedGatherSumRows(const float* x, const int32_t* idx,
                           const float* w, const Csr& csr, int64_t cols,
                           float* out, int64_t row_begin, int64_t row_end) {
  // Term for term the scatter of w-scaled gathered rows: out[r,c] adds
  // w[p] * x[idx[p],c] for the positions p of row r in increasing order.
  for (int64_t r = row_begin; r < row_end; ++r) {
    float* orow = out + r * cols;
    for (int64_t q = csr.offsets[static_cast<size_t>(r)];
         q < csr.offsets[static_cast<size_t>(r) + 1]; ++q) {
      const int64_t p = csr.order[static_cast<size_t>(q)];
      const float f = w[p];
      const float* xrow = x + static_cast<int64_t>(idx[p]) * cols;
      for (int64_t c = 0; c < cols; ++c) orow[c] += f * xrow[c];
    }
  }
}

void IndexedRowDotRange(const float* x, const int32_t* x_idx, const float* y,
                        const int32_t* y_idx, float* dst, int64_t i_begin,
                        int64_t i_end, int64_t cols) {
  for (int64_t i = i_begin; i < i_end; ++i) {
    const float* xrow = x + static_cast<int64_t>(x_idx[i]) * cols;
    const float* yrow = y + static_cast<int64_t>(y_idx[i]) * cols;
    float dot = 0.0f;
    for (int64_t c = 0; c < cols; ++c) dot += xrow[c] * yrow[c];
    dst[i] += dot;
  }
}

void EdgeAttentionLogitsRange(const float* s_src, const float* s_dst,
                              const float* s_edge, const int32_t* src,
                              const int32_t* dst, const int32_t* etype,
                              float slope, float* pre, float* logits,
                              int64_t e_begin, int64_t e_end) {
  // The attention chain's gathers, adds and LeakyReLU, edge by edge: the
  // source and destination scores are summed first, then the edge-type
  // score is added to that rounded sum.
  for (int64_t e = e_begin; e < e_end; ++e) {
    float x = s_src[src[e]] + s_dst[dst[e]];
    if (s_edge != nullptr) x += s_edge[etype[e]];
    pre[e] = x;
    logits[e] = x > 0.0f ? x : slope * x;
  }
}

void SegmentSoftmaxRows(const float* logits, const Csr& csr, float* out,
                        int64_t seg_begin, int64_t seg_end) {
  // Each segment's max/sum accumulate over members in increasing position
  // order — the same partial sums the original interleaved sequential loop
  // produced, so any segment partition is bit-identical.
  for (int64_t s = seg_begin; s < seg_end; ++s) {
    const int64_t lo = csr.offsets[static_cast<size_t>(s)];
    const int64_t hi = csr.offsets[static_cast<size_t>(s) + 1];
    float seg_max = -std::numeric_limits<float>::infinity();
    for (int64_t p = lo; p < hi; ++p) {
      seg_max = std::max(seg_max, logits[csr.order[static_cast<size_t>(p)]]);
    }
    float seg_sum = 0.0f;
    for (int64_t p = lo; p < hi; ++p) {
      const int64_t i = csr.order[static_cast<size_t>(p)];
      const float e = std::exp(logits[i] - seg_max);
      out[i] = e;
      seg_sum += e;
    }
    for (int64_t p = lo; p < hi; ++p) {
      out[csr.order[static_cast<size_t>(p)]] /= seg_sum;
    }
  }
}

void SegmentSoftmaxGradRows(const float* y, const float* dy, const Csr& csr,
                            float* dl, int64_t seg_begin, int64_t seg_end) {
  // d l_i = y_i * (dy_i - sum_{j in seg(i)} y_j dy_j)
  for (int64_t s = seg_begin; s < seg_end; ++s) {
    const int64_t lo = csr.offsets[static_cast<size_t>(s)];
    const int64_t hi = csr.offsets[static_cast<size_t>(s) + 1];
    float seg_dot = 0.0f;
    for (int64_t p = lo; p < hi; ++p) {
      const int64_t i = csr.order[static_cast<size_t>(p)];
      seg_dot += y[i] * dy[i];
    }
    for (int64_t p = lo; p < hi; ++p) {
      const int64_t i = csr.order[static_cast<size_t>(p)];
      dl[i] += y[i] * (dy[i] - seg_dot);
    }
  }
}

}  // namespace fedda::tensor::kernels::scalar
