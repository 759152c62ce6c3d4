#ifndef FEDDA_TENSOR_KERNELS_INTERNAL_H_
#define FEDDA_TENSOR_KERNELS_INTERNAL_H_

#include <cstdint>

#include "tensor/kernels/kernels.h"

/// Per-path serial kernels. The public entry points (kernels.h) resolve the
/// active path once, partition the index space with the thread pool, and
/// call one of these on each [begin, end) range. Keeping the per-path
/// functions serial and range-based means the dispatch and threading logic
/// exists exactly once (dispatch.cc) and every path sees identical chunk
/// boundaries.
///
/// `scalar` is the complete reference implementation — its loops are the
/// bit-exactness contract every other path is tested against. `avx2` covers
/// the subset where vectorization cannot change bits (lane-independent
/// elementwise work, and matmul whose per-element reduction order is fixed);
/// when avx2.cc is built without -mavx2 its functions forward to scalar.

namespace fedda::tensor::kernels {

/// Output rows per register block of the AVX2 MatMul/MatMulAtB bodies'
/// 16-, 8- and masked-column tiles (64-column tiles take one row). MatMul
/// and MatMulAtB hand each chunk whole blocks, so no chunk boundary splits
/// one.
inline constexpr int64_t kMatMulRowBlock = 4;

}  // namespace fedda::tensor::kernels

namespace fedda::tensor::kernels::scalar {

void MatMulRows(const float* a, const float* b, float* out, int64_t row_begin,
                int64_t row_end, int64_t k, int64_t n);
void MatMulAtBRows(const float* a, const float* b, float* out,
                   int64_t row_begin, int64_t row_end, int64_t m, int64_t k,
                   int64_t n);
void MatMulABtRows(const float* a, const float* b, float* out,
                   int64_t row_begin, int64_t row_end, int64_t k, int64_t n);
void EwMul(const float* a, const float* b, float* out, int64_t begin,
           int64_t end);
void EwAdd(const float* a, const float* b, float* out, int64_t begin,
           int64_t end);
void EwSub(const float* a, const float* b, float* out, int64_t begin,
           int64_t end);
void AccumulateAdd(float* dst, const float* src, int64_t begin, int64_t end);
void AccumulateAxpy(float* dst, float alpha, const float* src, int64_t begin,
                    int64_t end);
void AccumulateMul(float* dst, const float* a, const float* b, int64_t begin,
                   int64_t end);
void Scale(float* dst, float alpha, int64_t begin, int64_t end);
void BiasAddRows(const float* x, const float* bias, float* out,
                 int64_t row_begin, int64_t row_end, int64_t cols);
void RowScaleAccumulateRows(const float* s, const float* x, float* dst,
                            int64_t row_begin, int64_t row_end, int64_t cols);
void RowDotRows(const float* x, const float* y, float* dst, int64_t row_begin,
                int64_t row_end, int64_t cols);
void GatherRowsRange(const float* src, const int32_t* idx, int64_t i_begin,
                     int64_t i_end, int64_t cols, float* out);
void ScatterAddRowsRange(const float* src, const Csr& csr, int64_t cols,
                         float* out, int64_t row_begin, int64_t row_end);
void WeightedGatherSumRows(const float* x, const int32_t* idx,
                           const float* w, const Csr& csr, int64_t cols,
                           float* out, int64_t row_begin, int64_t row_end);
void IndexedRowDotRange(const float* x, const int32_t* x_idx, const float* y,
                        const int32_t* y_idx, float* dst, int64_t i_begin,
                        int64_t i_end, int64_t cols);
void EdgeAttentionLogitsRange(const float* s_src, const float* s_dst,
                              const float* s_edge, const int32_t* src,
                              const int32_t* dst, const int32_t* etype,
                              float slope, float* pre, float* logits,
                              int64_t e_begin, int64_t e_end);
void SegmentSoftmaxRows(const float* logits, const Csr& csr, float* out,
                        int64_t seg_begin, int64_t seg_end);
void SegmentSoftmaxGradRows(const float* y, const float* dy, const Csr& csr,
                            float* dl, int64_t seg_begin, int64_t seg_end);

}  // namespace fedda::tensor::kernels::scalar

namespace fedda::tensor::kernels::avx2 {

/// True when avx2.cc was compiled with AVX2 codegen enabled (the build
/// probed -mavx2 successfully). Runtime CPU support is checked separately.
bool KernelsCompiled();

void MatMulRows(const float* a, const float* b, float* out, int64_t row_begin,
                int64_t row_end, int64_t k, int64_t n);
void MatMulAtBRows(const float* a, const float* b, float* out,
                   int64_t row_begin, int64_t row_end, int64_t m, int64_t k,
                   int64_t n);
void MatMulABtRows(const float* a, const float* b, float* out,
                   int64_t row_begin, int64_t row_end, int64_t k, int64_t n);
void EwMul(const float* a, const float* b, float* out, int64_t begin,
           int64_t end);
void EwAdd(const float* a, const float* b, float* out, int64_t begin,
           int64_t end);
void EwSub(const float* a, const float* b, float* out, int64_t begin,
           int64_t end);
void AccumulateAdd(float* dst, const float* src, int64_t begin, int64_t end);
void AccumulateAxpy(float* dst, float alpha, const float* src, int64_t begin,
                    int64_t end);
void AccumulateMul(float* dst, const float* a, const float* b, int64_t begin,
                   int64_t end);
void Scale(float* dst, float alpha, int64_t begin, int64_t end);
void BiasAddRows(const float* x, const float* bias, float* out,
                 int64_t row_begin, int64_t row_end, int64_t cols);
void RowScaleAccumulateRows(const float* s, const float* x, float* dst,
                            int64_t row_begin, int64_t row_end, int64_t cols);
void RowDotRows(const float* x, const float* y, float* dst, int64_t row_begin,
                int64_t row_end, int64_t cols);
void ScatterAddRowsRange(const float* src, const Csr& csr, int64_t cols,
                         float* out, int64_t row_begin, int64_t row_end);
void WeightedGatherSumRows(const float* x, const int32_t* idx,
                           const float* w, const Csr& csr, int64_t cols,
                           float* out, int64_t row_begin, int64_t row_end);
void IndexedRowDotRange(const float* x, const int32_t* x_idx, const float* y,
                        const int32_t* y_idx, float* dst, int64_t i_begin,
                        int64_t i_end, int64_t cols);
void EdgeAttentionLogitsRange(const float* s_src, const float* s_dst,
                              const float* s_edge, const int32_t* src,
                              const int32_t* dst, const int32_t* etype,
                              float slope, float* pre, float* logits,
                              int64_t e_begin, int64_t e_end);

}  // namespace fedda::tensor::kernels::avx2

#endif  // FEDDA_TENSOR_KERNELS_INTERNAL_H_
