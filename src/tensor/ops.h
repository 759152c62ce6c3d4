#ifndef FEDDA_TENSOR_OPS_H_
#define FEDDA_TENSOR_OPS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/autograd.h"

namespace fedda::tensor {

/// Differentiable op library. Every function appends a node to `g` and
/// returns its handle. Shapes are validated with CHECKs (shape errors are
/// programming errors, not runtime conditions).

/// Elementwise y = a + b. Shapes must match.
Var Add(Graph* g, Var a, Var b);
/// Elementwise y = a - b.
Var Sub(Graph* g, Var a, Var b);
/// Elementwise (Hadamard) y = a * b.
Var Mul(Graph* g, Var a, Var b);
/// y = alpha * a.
Var Scale(Graph* g, Var a, float alpha);
/// y = a + alpha (elementwise).
Var AddScalar(Graph* g, Var a, float alpha);

/// Matrix product y = a * b; (m x k) * (k x n) -> (m x n).
Var MatMul(Graph* g, Var a, Var b);

/// Broadcast-add a (1 x d) bias row to every row of a (n x d) input.
Var AddBias(Graph* g, Var a, Var bias);

/// ELU: y = x for x > 0 else alpha * (exp(x) - 1).
Var Elu(Graph* g, Var a, float alpha = 1.0f);
/// Logistic sigmoid.
Var Sigmoid(Graph* g, Var a);
/// Hyperbolic tangent.
Var Tanh(Graph* g, Var a);
/// Elementwise exponential.
Var Exp(Graph* g, Var a);
/// Elementwise natural log; inputs must be strictly positive.
Var Log(Graph* g, Var a);

/// Sum of all entries -> (1 x 1).
Var Sum(Graph* g, Var a);
/// Mean of all entries -> (1 x 1).
Var Mean(Graph* g, Var a);

/// y[i, :] = a[indices[i], :]. Output is (|indices| x cols).
Var GatherRows(Graph* g, Var a,
               std::shared_ptr<const std::vector<int32_t>> indices);

/// Weighted neighbour sum over the edges e = (src[e] -> dst[e]): y has
/// `num_rows` rows and y[v, :] = sum over e with dst[e] == v, in increasing
/// e, of w[e] * x[src[e], :]. `w` is an (E x 1) column. Bit for bit the
/// gather -> row-scale -> scatter-add chain, without building its
/// (E x cols) message tensors, forward or backward.
Var EdgeAggregate(Graph* g, Var x, Var w,
                  std::shared_ptr<const std::vector<int32_t>> src,
                  std::shared_ptr<const std::vector<int32_t>> dst,
                  int64_t num_rows);

/// GAT-style edge attention over the edges e = (src[e] -> dst[e]): an
/// (E x 1) column alpha with alpha[e] = softmax over {e' : dst[e'] ==
/// dst[e]} of LeakyReLU(s_src[src[e]] + s_dst[dst[e]] + s_edge[etype[e]])
/// (numerically stable, max-shifted). The scores are (rows x 1) columns;
/// pass an invalid `s_edge` (Var{}) to drop the edge-type term, and etype
/// is then not read. Bit for bit the gather -> add -> LeakyReLU -> segment
/// softmax chain, without its (E x 1) intermediates, forward or backward.
Var EdgeSoftmax(Graph* g, Var s_src, Var s_dst, Var s_edge,
                std::shared_ptr<const std::vector<int32_t>> src,
                std::shared_ptr<const std::vector<int32_t>> dst,
                std::shared_ptr<const std::vector<int32_t>> etype,
                float slope, int64_t num_nodes);

/// Horizontal concatenation of tensors with equal row counts.
Var ConcatCols(Graph* g, const std::vector<Var>& parts);

/// Vertical concatenation of tensors with equal column counts.
Var ConcatRows(Graph* g, const std::vector<Var>& parts);

/// Row-wise L2 normalization: y_i = a_i / max(||a_i||, eps).
Var RowL2Normalize(Graph* g, Var a, float eps = 1e-12f);

/// Row-wise dot product of two (n x d) tensors -> (n x 1).
Var RowDot(Graph* g, Var a, Var b);

/// Mean binary cross-entropy with logits -> (1 x 1).
/// `labels` is a constant (n x 1) tensor of {0, 1}.
Var BceWithLogits(Graph* g, Var logits, const Tensor& labels);

/// Mean multi-class cross-entropy with logits -> (1 x 1).
/// `logits` is (n x C); `labels[i]` in [0, C) is row i's class. Row-wise
/// log-softmax is computed in a numerically stable (max-shifted) form.
Var SoftmaxCrossEntropy(Graph* g, Var logits,
                        std::shared_ptr<const std::vector<int32_t>> labels);

/// Convenience for building shared index vectors for gather/scatter ops.
std::shared_ptr<const std::vector<int32_t>> MakeIndices(
    std::vector<int32_t> indices);

}  // namespace fedda::tensor

#endif  // FEDDA_TENSOR_OPS_H_
