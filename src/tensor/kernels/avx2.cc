// Compiled with -mavx2 -ffp-contract=off when the toolchain supports it
// (see src/tensor/CMakeLists.txt); otherwise every function forwards to the
// scalar reference. -ffp-contract=off matters: contracting mul+add into an
// FMA would change rounding and break the bit-exactness contract.
//
// Vectorization rules that keep every kernel bit-identical to scalar.cc:
//  - elementwise kernels are lane-independent, so an 8-wide main loop plus
//    a scalar tail computes exactly the scalar expression per element;
//  - multiplies and adds stay separate intrinsics (_mm256_mul_ps then
//    _mm256_add_ps), never _mm256_fmadd_ps;
//  - matmul keeps the per-element reduction in increasing-kk order and the
//    semantic zero-skip of the scalar path. A block of output rows and
//    columns stays in registers across the reduction; each lane is still
//    one out[i,j], and a block only shares loads between its lanes;
//  - branches become compare+blend mirroring the scalar ternary exactly
//    (including negative zero and NaN operands);
//  - where lanes run over rows instead of columns (RowDot, IndexedRowDot,
//    and MatMul/MatMulAtB with one output column), tiles are transposed in
//    registers where the rows are not already side by side, and a
//    zero-skip becomes a per-lane blend, so each lane still replays one
//    scalar row's sequence of rounded operations.

#include <algorithm>

#include "tensor/kernels/internal.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace fedda::tensor::kernels::avx2 {

bool KernelsCompiled() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

#if defined(__AVX2__)

namespace {

// Lanes [0, width) set, the rest clear: the mask for a partial 8-float
// row, so maskload reads nothing past the row end and reads zeros instead.
inline __m256i LaneMask(int64_t width) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(width)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// 8x8 transpose in registers: lane l of t[c] is lane c of r[l]. Shuffles
// move values without arithmetic, so every lane keeps its exact float.
inline void Transpose8x8(const __m256 r[8], __m256 t[8]) {
  const __m256 lo01 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 hi01 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 lo23 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 hi23 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 lo45 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 hi45 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 lo67 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 hi67 = _mm256_unpackhi_ps(r[6], r[7]);
  // c04a: columns 0 (low half) and 4 (high half) of rows 0-3, and so on.
  const __m256 c04a = _mm256_shuffle_ps(lo01, lo23, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 c15a = _mm256_shuffle_ps(lo01, lo23, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 c26a = _mm256_shuffle_ps(hi01, hi23, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 c37a = _mm256_shuffle_ps(hi01, hi23, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 c04b = _mm256_shuffle_ps(lo45, lo67, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 c15b = _mm256_shuffle_ps(lo45, lo67, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 c26b = _mm256_shuffle_ps(hi45, hi67, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 c37b = _mm256_shuffle_ps(hi45, hi67, _MM_SHUFFLE(3, 2, 3, 2));
  t[0] = _mm256_permute2f128_ps(c04a, c04b, 0x20);
  t[1] = _mm256_permute2f128_ps(c15a, c15b, 0x20);
  t[2] = _mm256_permute2f128_ps(c26a, c26b, 0x20);
  t[3] = _mm256_permute2f128_ps(c37a, c37b, 0x20);
  t[4] = _mm256_permute2f128_ps(c04a, c04b, 0x31);
  t[5] = _mm256_permute2f128_ps(c15a, c15b, 0x31);
  t[6] = _mm256_permute2f128_ps(c26a, c26b, 0x31);
  t[7] = _mm256_permute2f128_ps(c37a, c37b, 0x31);
}

// Loads up to 8 rows of width `ncols` (row stride `stride`) and transposes
// them: lane l of t[c] is src[l * stride + c]. Rows past `nrows` and
// columns past `ncols` are never read and come out as 0.
inline void LoadTransposed8x8(const float* src, int64_t stride, int64_t nrows,
                              int64_t ncols, __m256 t[8]) {
  __m256 r[8];
  const __m256i mask = LaneMask(ncols);
  for (int64_t l = 0; l < 8; ++l) {
    if (l >= nrows) {
      r[l] = _mm256_setzero_ps();
    } else if (ncols == 8) {
      r[l] = _mm256_loadu_ps(src + l * stride);
    } else {
      r[l] = _mm256_maskload_ps(src + l * stride, mask);
    }
  }
  Transpose8x8(r, t);
}

// acc + aval * v, lane-wise, or acc untouched when aval is exactly 0: one
// MatMulRows term with its zero-skip.
inline __m256 AddScaledUnlessZero(__m256 acc, float aval, __m256 v) {
  if (aval == 0.0f) return acc;
  return _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(aval), v));
}

// acc + va * vb, lane-wise, except that lanes where va is exactly 0 add
// -0.0f in place of their product: the zero-skip of a body whose lanes run
// over output rows, as a blend. x + -0.0f is x bit for bit for every x the
// kernels can hold (±0 included, and a quiet NaN passes through), so a
// skipped lane keeps acc exactly, and the blend stays off acc's chain of
// adds. NEQ_UQ is true for NaN, which the scalar `== 0.0f` test never
// skips.
inline __m256 AddScaledWhereNonzero(__m256 acc, __m256 va, __m256 vb) {
  const __m256 take = _mm256_cmp_ps(va, _mm256_setzero_ps(), _CMP_NEQ_UQ);
  const __m256 prod = _mm256_blendv_ps(_mm256_set1_ps(-0.0f),
                                       _mm256_mul_ps(va, vb), take);
  return _mm256_add_ps(acc, prod);
}

// 8 floats at p, or with kMasked only the lanes `mask` sets: the others
// read as 0 and are never written, so nothing past a row end is touched.
template <bool kMasked>
inline __m256 LoadLanes(const float* p, __m256i mask) {
  if constexpr (kMasked) return _mm256_maskload_ps(p, mask);
  return _mm256_loadu_ps(p);
}
template <bool kMasked>
inline void StoreLanes(float* p, __m256i mask, __m256 v) {
  if constexpr (kMasked) {
    _mm256_maskstore_ps(p, mask, v);
  } else {
    _mm256_storeu_ps(p, v);
  }
}

// The matmul bodies read A(i, kk), the reduction's left operand, at
// a[i * a_row + kk * a_k]: (k, 1) for MatMulRows' row-major A and (1, m)
// for MatMulAtBRows' A stored k x m. out is m x n and b is k x n.
struct MatMulOperands {
  const float* a;
  int64_t a_row, a_k;
  const float* b;
  float* out;
  int64_t k, n;
};

// out[i .. i+R, j .. j+8V) += A·B, held in R * V ymm accumulators across
// the whole reduction, so out is read and written once and each segment of
// a B row is loaded once for R rows. With kMasked (V == 1), only the
// columns `mask` sets exist. The strides are read once and A's and B's
// offsets advance by them: GCC otherwise reloads op.a_k and multiplies it
// every step, on a port the vector multiplies and adds need. (Offsets, not
// pointers: a pointer stepped past the last step would leave its array.)
template <int R, int V, bool kMasked>
inline void MatMulBlock(const MatMulOperands& op, int64_t i, int64_t j,
                        __m256i mask) {
  const int64_t a_row = op.a_row, a_k = op.a_k, n = op.n;
  const float* a = op.a + i * a_row;
  const float* b = op.b + j;
  float* out = op.out + i * n + j;
  __m256 acc[R][V];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      acc[r][v] = LoadLanes<kMasked>(out + r * n + 8 * v, mask);
    }
  }
  for (int64_t kk = 0, ak = 0, bk = 0; kk < op.k; ++kk, ak += a_k, bk += n) {
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const float aval = a[ak + r * a_row];
      if (aval == 0.0f) continue;
      const __m256 va = _mm256_set1_ps(aval);
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v) {
        const __m256 vb = LoadLanes<kMasked>(b + bk + 8 * v, mask);
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(va, vb));
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      StoreLanes<kMasked>(out + r * n + 8 * v, mask, acc[r][v]);
    }
  }
}

// Rows [row_begin, row_end) of one column tile, R rows at a time; leftover
// rows take one-row blocks.
template <int R, int V, bool kMasked>
void MatMulTile(const MatMulOperands& op, int64_t row_begin, int64_t row_end,
                int64_t j, __m256i mask = __m256i()) {
  int64_t i = row_begin;
  for (; i + R <= row_end; i += R) MatMulBlock<R, V, kMasked>(op, i, j, mask);
  for (; i < row_end; ++i) MatMulBlock<1, V, kMasked>(op, i, j, mask);
}

// Rows [row_begin, row_end) of a product with n >= 2 columns: one-row
// 64-column tiles, whose eight accumulators share one zero test per
// reduction step, then kMatMulRowBlock-row blocks of 16-column tiles, an
// 8-column tile and a masked tile for the last n mod 8 columns. At n == 0
// no tile runs.
void MatMulRowBlocks(const MatMulOperands& op, int64_t row_begin,
                     int64_t row_end) {
  constexpr int R = kMatMulRowBlock;
  int64_t j = 0;
  for (; j + 64 <= op.n; j += 64) {
    MatMulTile<1, 8, false>(op, row_begin, row_end, j);
  }
  for (; j + 16 <= op.n; j += 16) {
    MatMulTile<R, 2, false>(op, row_begin, row_end, j);
  }
  if (j + 8 <= op.n) {
    MatMulTile<R, 1, false>(op, row_begin, row_end, j);
    j += 8;
  }
  if (j < op.n) {
    MatMulTile<R, 1, true>(op, row_begin, row_end, j, LaneMask(op.n - j));
  }
}

// Lane l of t[c] is A(i + l, k0 + c) for c < kw, and t[c] is 0 for
// c >= kw. Row-major A (a_k == 1) is transposed in registers; A stored
// k x m (a_row == 1) already holds 8 rows' entries side by side.
inline void LoadColumnTile(const MatMulOperands& op, int64_t i, int64_t k0,
                           int64_t kw, __m256 t[8]) {
  const float* a = op.a + i * op.a_row + k0 * op.a_k;
  if (op.a_row != 1) {
    LoadTransposed8x8(a, op.a_row, 8, kw, t);
    return;
  }
#pragma GCC unroll 8
  for (int c = 0; c < 8; ++c) {
    t[c] = c < kw ? _mm256_loadu_ps(a + c * op.a_k) : _mm256_setzero_ps();
  }
}

// One output column (n == 1): out is then contiguous over rows, so lanes
// run over 8 output rows, and kG groups of 8 rows share each b value. Lane
// l replays row i + l's scalar sequence. A tile's columns past k are 0,
// which the zero-skip leaves out, so a short last tile needs no tail loop.
template <int kG>
void MatMulColumnGroups(const MatMulOperands& op, int64_t i) {
  __m256 acc[kG];
#pragma GCC unroll 4
  for (int g = 0; g < kG; ++g) acc[g] = _mm256_loadu_ps(op.out + i + 8 * g);
  for (int64_t k0 = 0; k0 < op.k; k0 += 8) {
    const int64_t kw = std::min<int64_t>(8, op.k - k0);
    float bt[8] = {};
    std::copy_n(op.b + k0, kw, bt);
#pragma GCC unroll 4
    for (int g = 0; g < kG; ++g) {
      __m256 t[8];
      LoadColumnTile(op, i + 8 * g, k0, kw, t);
#pragma GCC unroll 8
      for (int c = 0; c < 8; ++c) {
        acc[g] = AddScaledWhereNonzero(acc[g], t[c], _mm256_set1_ps(bt[c]));
      }
    }
  }
#pragma GCC unroll 4
  for (int g = 0; g < kG; ++g) _mm256_storeu_ps(op.out + i + 8 * g, acc[g]);
}

// Rows [row_begin, row_end) of a one-column product, in groups of 16 and
// 8 rows. Returns the first row it left for the scalar body.
int64_t MatMulColumn(const MatMulOperands& op, int64_t row_begin,
                     int64_t row_end) {
  int64_t i = row_begin;
  for (; i + 16 <= row_end; i += 16) MatMulColumnGroups<2>(op, i);
  for (; i + 8 <= row_end; i += 8) MatMulColumnGroups<1>(op, i);
  return i;
}

}  // namespace

void MatMulRows(const float* a, const float* b, float* out, int64_t row_begin,
                int64_t row_end, int64_t k, int64_t n) {
  const MatMulOperands op{a, k, 1, b, out, k, n};
  if (n != 1) {
    MatMulRowBlocks(op, row_begin, row_end);
    return;
  }
  scalar::MatMulRows(a, b, out, MatMulColumn(op, row_begin, row_end),
                     row_end, k, n);
}

void MatMulAtBRows(const float* a, const float* b, float* out,
                   int64_t row_begin, int64_t row_end, int64_t m, int64_t k,
                   int64_t n) {
  const MatMulOperands op{a, 1, m, b, out, k, n};
  if (n != 1) {
    MatMulRowBlocks(op, row_begin, row_end);
    return;
  }
  scalar::MatMulAtBRows(a, b, out, MatMulColumn(op, row_begin, row_end),
                        row_end, m, k, n);
}

void MatMulABtRows(const float* a, const float* b, float* out,
                   int64_t row_begin, int64_t row_end, int64_t k, int64_t n) {
  // Lanes are 8 output columns j. Their b values for one kk sit in 8 rows
  // of b, so each 8x8 tile of b (rows j0.., columns k0..) is transposed in
  // registers once and reused by a tile of output rows. out[i, j0..j0+8)
  // carries across the k0 tiles through memory (an exact store/load), so
  // every out[i,j] still adds its terms in increasing kk.
  constexpr int64_t kRowTile = 32;
  for (int64_t i0 = row_begin; i0 < row_end; i0 += kRowTile) {
    const int64_t i1 = std::min(row_end, i0 + kRowTile);
    for (int64_t j0 = 0; j0 < n; j0 += 8) {
      const int64_t jw = std::min<int64_t>(8, n - j0);
      const __m256i jmask = LaneMask(jw);
      for (int64_t k0 = 0; k0 < k; k0 += 8) {
        const int64_t kw = std::min<int64_t>(8, k - k0);
        __m256 bt[8];
        LoadTransposed8x8(b + j0 * k + k0, k, jw, kw, bt);
        if (jw == 8 && kw == 8) {
          // Full tile, unrolled by hand so bt stays in registers.
          for (int64_t i = i0; i < i1; ++i) {
            const float* arow = a + i * k + k0;
            float* oblk = out + i * n + j0;
            __m256 acc = _mm256_loadu_ps(oblk);
            acc = AddScaledUnlessZero(acc, arow[0], bt[0]);
            acc = AddScaledUnlessZero(acc, arow[1], bt[1]);
            acc = AddScaledUnlessZero(acc, arow[2], bt[2]);
            acc = AddScaledUnlessZero(acc, arow[3], bt[3]);
            acc = AddScaledUnlessZero(acc, arow[4], bt[4]);
            acc = AddScaledUnlessZero(acc, arow[5], bt[5]);
            acc = AddScaledUnlessZero(acc, arow[6], bt[6]);
            acc = AddScaledUnlessZero(acc, arow[7], bt[7]);
            _mm256_storeu_ps(oblk, acc);
          }
          continue;
        }
        for (int64_t i = i0; i < i1; ++i) {
          const float* arow = a + i * k + k0;
          float* oblk = out + i * n + j0;
          __m256 acc = _mm256_maskload_ps(oblk, jmask);
          for (int64_t t = 0; t < kw; ++t) {
            acc = AddScaledUnlessZero(acc, arow[t], bt[t]);
          }
          _mm256_maskstore_ps(oblk, jmask, acc);
        }
      }
    }
  }
}

void EwMul(const float* a, const float* b, float* out, int64_t begin,
           int64_t end) {
  int64_t i = begin;
  for (; i + 8 <= end; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < end; ++i) out[i] = a[i] * b[i];
}

void EwAdd(const float* a, const float* b, float* out, int64_t begin,
           int64_t end) {
  int64_t i = begin;
  for (; i + 8 <= end; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < end; ++i) out[i] = a[i] + b[i];
}

void EwSub(const float* a, const float* b, float* out, int64_t begin,
           int64_t end) {
  int64_t i = begin;
  for (; i + 8 <= end; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < end; ++i) out[i] = a[i] - b[i];
}

void AccumulateAdd(float* dst, const float* src, int64_t begin, int64_t end) {
  int64_t i = begin;
  for (; i + 8 <= end; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                                            _mm256_loadu_ps(src + i)));
  }
  for (; i < end; ++i) dst[i] += src[i];
}

void AccumulateAxpy(float* dst, float alpha, const float* src, int64_t begin,
                    int64_t end) {
  const __m256 va = _mm256_set1_ps(alpha);
  int64_t i = begin;
  for (; i + 8 <= end; i += 8) {
    const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(src + i));
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), prod));
  }
  for (; i < end; ++i) dst[i] += alpha * src[i];
}

void AccumulateMul(float* dst, const float* a, const float* b, int64_t begin,
                   int64_t end) {
  int64_t i = begin;
  for (; i + 8 <= end; i += 8) {
    const __m256 prod =
        _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), prod));
  }
  for (; i < end; ++i) dst[i] += a[i] * b[i];
}

void Scale(float* dst, float alpha, int64_t begin, int64_t end) {
  const __m256 va = _mm256_set1_ps(alpha);
  int64_t i = begin;
  for (; i + 8 <= end; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(dst + i), va));
  }
  for (; i < end; ++i) dst[i] *= alpha;
}

void BiasAddRows(const float* x, const float* bias, float* out,
                 int64_t row_begin, int64_t row_end, int64_t cols) {
  for (int64_t r = row_begin; r < row_end; ++r) {
    const float* xrow = x + r * cols;
    float* orow = out + r * cols;
    int64_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      _mm256_storeu_ps(orow + c, _mm256_add_ps(_mm256_loadu_ps(xrow + c),
                                               _mm256_loadu_ps(bias + c)));
    }
    for (; c < cols; ++c) orow[c] = xrow[c] + bias[c];
  }
}

void RowScaleAccumulateRows(const float* s, const float* x, float* dst,
                            int64_t row_begin, int64_t row_end, int64_t cols) {
  for (int64_t r = row_begin; r < row_end; ++r) {
    const float f = s[r];
    const __m256 vf = _mm256_set1_ps(f);
    const float* xrow = x + r * cols;
    float* drow = dst + r * cols;
    int64_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      const __m256 prod = _mm256_mul_ps(vf, _mm256_loadu_ps(xrow + c));
      _mm256_storeu_ps(drow + c,
                       _mm256_add_ps(_mm256_loadu_ps(drow + c), prod));
    }
    for (; c < cols; ++c) drow[c] += f * xrow[c];
  }
}

void RowDotRows(const float* x, const float* y, float* dst, int64_t row_begin,
                int64_t row_end, int64_t cols) {
  // Lanes are 8 rows. The products of an 8x8 tile are formed row by row
  // (lane-independent), then transposed so that vector t holds column
  // c0 + t of the 8 rows; adding those vectors in increasing t is each
  // row's sequential dot, lane by lane. Leftover rows run the scalar body.
  int64_t r = row_begin;
  for (; r + 8 <= row_end; r += 8) {
    __m256 dot = _mm256_setzero_ps();
    for (int64_t c0 = 0; c0 < cols; c0 += 8) {
      const int64_t cw = std::min<int64_t>(8, cols - c0);
      const __m256i mask = LaneMask(cw);
      __m256 prod[8];
      for (int64_t l = 0; l < 8; ++l) {
        const float* xrow = x + (r + l) * cols + c0;
        const float* yrow = y + (r + l) * cols + c0;
        const __m256 vx =
            cw == 8 ? _mm256_loadu_ps(xrow) : _mm256_maskload_ps(xrow, mask);
        const __m256 vy =
            cw == 8 ? _mm256_loadu_ps(yrow) : _mm256_maskload_ps(yrow, mask);
        prod[l] = _mm256_mul_ps(vx, vy);
      }
      __m256 col[8];
      Transpose8x8(prod, col);
      for (int64_t t = 0; t < cw; ++t) dot = _mm256_add_ps(dot, col[t]);
    }
    _mm256_storeu_ps(dst + r, _mm256_add_ps(_mm256_loadu_ps(dst + r), dot));
  }
  scalar::RowDotRows(x, y, dst, r, row_end, cols);
}

void ScatterAddRowsRange(const float* src, const Csr& csr, int64_t cols,
                         float* out, int64_t row_begin, int64_t row_end) {
  // Contributions to one destination row are accumulated position by
  // position (never reassociated across positions); only the independent
  // column direction is widened.
  for (int64_t r = row_begin; r < row_end; ++r) {
    float* dst = out + r * cols;
    for (int64_t p = csr.offsets[static_cast<size_t>(r)];
         p < csr.offsets[static_cast<size_t>(r) + 1]; ++p) {
      const int64_t i = csr.order[static_cast<size_t>(p)];
      const float* srow = src + i * cols;
      int64_t c = 0;
      for (; c + 8 <= cols; c += 8) {
        _mm256_storeu_ps(dst + c, _mm256_add_ps(_mm256_loadu_ps(dst + c),
                                                _mm256_loadu_ps(srow + c)));
      }
      for (; c < cols; ++c) dst[c] += srow[c];
    }
  }
}

void WeightedGatherSumRows(const float* x, const int32_t* idx,
                           const float* w, const Csr& csr, int64_t cols,
                           float* out, int64_t row_begin, int64_t row_end) {
  // Lanes run over columns, so every out[r,c] adds its rounded products
  // position by position in CSR order, exactly as the scalar body. A
  // column block's accumulators stay in registers across the row's
  // positions; the load and store around them move bits unchanged.
  for (int64_t r = row_begin; r < row_end; ++r) {
    const int64_t lo = csr.offsets[static_cast<size_t>(r)];
    const int64_t hi = csr.offsets[static_cast<size_t>(r) + 1];
    float* orow = out + r * cols;
    int64_t c = 0;
    for (; c + 16 <= cols; c += 16) {
      __m256 acc0 = _mm256_loadu_ps(orow + c);
      __m256 acc1 = _mm256_loadu_ps(orow + c + 8);
      for (int64_t q = lo; q < hi; ++q) {
        const int64_t p = csr.order[static_cast<size_t>(q)];
        const __m256 vw = _mm256_set1_ps(w[p]);
        const float* xrow = x + static_cast<int64_t>(idx[p]) * cols + c;
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(vw, _mm256_loadu_ps(xrow)));
        acc1 =
            _mm256_add_ps(acc1, _mm256_mul_ps(vw, _mm256_loadu_ps(xrow + 8)));
      }
      _mm256_storeu_ps(orow + c, acc0);
      _mm256_storeu_ps(orow + c + 8, acc1);
    }
    for (; c < cols; c += 8) {
      // Masked lanes read and write nothing past the row end.
      const __m256i mask = LaneMask(std::min<int64_t>(8, cols - c));
      __m256 acc = _mm256_maskload_ps(orow + c, mask);
      for (int64_t q = lo; q < hi; ++q) {
        const int64_t p = csr.order[static_cast<size_t>(q)];
        const float* xrow = x + static_cast<int64_t>(idx[p]) * cols + c;
        acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(w[p]),
                                               _mm256_maskload_ps(xrow, mask)));
      }
      _mm256_maskstore_ps(orow + c, mask, acc);
    }
  }
}

void IndexedRowDotRange(const float* x, const int32_t* x_idx, const float* y,
                        const int32_t* y_idx, float* dst, int64_t i_begin,
                        int64_t i_end, int64_t cols) {
  // RowDotRows over gathered rows: lanes are 8 positions, each tile of
  // products is transposed so lane l adds its row's products in
  // increasing c. Leftover positions run the scalar body.
  int64_t i = i_begin;
  for (; i + 8 <= i_end; i += 8) {
    const float* xrows[8];
    const float* yrows[8];
    for (int64_t l = 0; l < 8; ++l) {
      xrows[l] = x + static_cast<int64_t>(x_idx[i + l]) * cols;
      yrows[l] = y + static_cast<int64_t>(y_idx[i + l]) * cols;
    }
    __m256 dot = _mm256_setzero_ps();
    for (int64_t c0 = 0; c0 < cols; c0 += 8) {
      const int64_t cw = std::min<int64_t>(8, cols - c0);
      const __m256i mask = LaneMask(cw);
      __m256 prod[8];
      for (int64_t l = 0; l < 8; ++l) {
        const float* xr = xrows[l] + c0;
        const float* yr = yrows[l] + c0;
        const __m256 vx =
            cw == 8 ? _mm256_loadu_ps(xr) : _mm256_maskload_ps(xr, mask);
        const __m256 vy =
            cw == 8 ? _mm256_loadu_ps(yr) : _mm256_maskload_ps(yr, mask);
        prod[l] = _mm256_mul_ps(vx, vy);
      }
      __m256 col[8];
      Transpose8x8(prod, col);
      for (int64_t t = 0; t < cw; ++t) dot = _mm256_add_ps(dot, col[t]);
    }
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), dot));
  }
  scalar::IndexedRowDotRange(x, x_idx, y, y_idx, dst, i, i_end, cols);
}

void EdgeAttentionLogitsRange(const float* s_src, const float* s_dst,
                              const float* s_edge, const int32_t* src,
                              const int32_t* dst, const int32_t* etype,
                              float slope, float* pre, float* logits,
                              int64_t e_begin, int64_t e_end) {
  // Lanes are 8 edges. Gathers only load, and each lane adds its source
  // and destination scores, then its edge-type score, as the scalar body
  // does. The LeakyReLU is a compare and blend that mirrors the scalar
  // ternary: +0, -0 and NaN are not greater than 0 and take slope * x.
  const __m256 vslope = _mm256_set1_ps(slope);
  const __m256 vzero = _mm256_setzero_ps();
  int64_t e = e_begin;
  for (; e + 8 <= e_end; e += 8) {
    const __m256i vsrc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + e));
    const __m256i vdst =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + e));
    __m256 x = _mm256_add_ps(_mm256_i32gather_ps(s_src, vsrc, 4),
                             _mm256_i32gather_ps(s_dst, vdst, 4));
    if (s_edge != nullptr) {
      const __m256i vtype =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(etype + e));
      x = _mm256_add_ps(x, _mm256_i32gather_ps(s_edge, vtype, 4));
    }
    _mm256_storeu_ps(pre + e, x);
    const __m256 gt = _mm256_cmp_ps(x, vzero, _CMP_GT_OQ);
    _mm256_storeu_ps(logits + e,
                     _mm256_blendv_ps(_mm256_mul_ps(vslope, x), x, gt));
  }
  scalar::EdgeAttentionLogitsRange(s_src, s_dst, s_edge, src, dst, etype,
                                   slope, pre, logits, e, e_end);
}

#else  // !defined(__AVX2__): toolchain without -mavx2; forward to scalar.

void MatMulRows(const float* a, const float* b, float* out, int64_t row_begin,
                int64_t row_end, int64_t k, int64_t n) {
  scalar::MatMulRows(a, b, out, row_begin, row_end, k, n);
}
void MatMulAtBRows(const float* a, const float* b, float* out,
                   int64_t row_begin, int64_t row_end, int64_t m, int64_t k,
                   int64_t n) {
  scalar::MatMulAtBRows(a, b, out, row_begin, row_end, m, k, n);
}
void MatMulABtRows(const float* a, const float* b, float* out,
                   int64_t row_begin, int64_t row_end, int64_t k, int64_t n) {
  scalar::MatMulABtRows(a, b, out, row_begin, row_end, k, n);
}
void EwMul(const float* a, const float* b, float* out, int64_t begin,
           int64_t end) {
  scalar::EwMul(a, b, out, begin, end);
}
void EwAdd(const float* a, const float* b, float* out, int64_t begin,
           int64_t end) {
  scalar::EwAdd(a, b, out, begin, end);
}
void EwSub(const float* a, const float* b, float* out, int64_t begin,
           int64_t end) {
  scalar::EwSub(a, b, out, begin, end);
}
void AccumulateAdd(float* dst, const float* src, int64_t begin, int64_t end) {
  scalar::AccumulateAdd(dst, src, begin, end);
}
void AccumulateAxpy(float* dst, float alpha, const float* src, int64_t begin,
                    int64_t end) {
  scalar::AccumulateAxpy(dst, alpha, src, begin, end);
}
void AccumulateMul(float* dst, const float* a, const float* b, int64_t begin,
                   int64_t end) {
  scalar::AccumulateMul(dst, a, b, begin, end);
}
void Scale(float* dst, float alpha, int64_t begin, int64_t end) {
  scalar::Scale(dst, alpha, begin, end);
}
void BiasAddRows(const float* x, const float* bias, float* out,
                 int64_t row_begin, int64_t row_end, int64_t cols) {
  scalar::BiasAddRows(x, bias, out, row_begin, row_end, cols);
}
void RowScaleAccumulateRows(const float* s, const float* x, float* dst,
                            int64_t row_begin, int64_t row_end, int64_t cols) {
  scalar::RowScaleAccumulateRows(s, x, dst, row_begin, row_end, cols);
}
void RowDotRows(const float* x, const float* y, float* dst, int64_t row_begin,
                int64_t row_end, int64_t cols) {
  scalar::RowDotRows(x, y, dst, row_begin, row_end, cols);
}
void ScatterAddRowsRange(const float* src, const Csr& csr, int64_t cols,
                         float* out, int64_t row_begin, int64_t row_end) {
  scalar::ScatterAddRowsRange(src, csr, cols, out, row_begin, row_end);
}
void WeightedGatherSumRows(const float* x, const int32_t* idx,
                           const float* w, const Csr& csr, int64_t cols,
                           float* out, int64_t row_begin, int64_t row_end) {
  scalar::WeightedGatherSumRows(x, idx, w, csr, cols, out, row_begin,
                                row_end);
}
void IndexedRowDotRange(const float* x, const int32_t* x_idx, const float* y,
                        const int32_t* y_idx, float* dst, int64_t i_begin,
                        int64_t i_end, int64_t cols) {
  scalar::IndexedRowDotRange(x, x_idx, y, y_idx, dst, i_begin, i_end, cols);
}
void EdgeAttentionLogitsRange(const float* s_src, const float* s_dst,
                              const float* s_edge, const int32_t* src,
                              const int32_t* dst, const int32_t* etype,
                              float slope, float* pre, float* logits,
                              int64_t e_begin, int64_t e_end) {
  scalar::EdgeAttentionLogitsRange(s_src, s_dst, s_edge, src, dst, etype,
                                   slope, pre, logits, e_begin, e_end);
}

#endif  // defined(__AVX2__)

}  // namespace fedda::tensor::kernels::avx2
