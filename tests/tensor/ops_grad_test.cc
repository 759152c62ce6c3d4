#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "tensor/ops.h"
#include "tests/tensor/grad_check.h"

namespace fedda::tensor {
namespace {

using testing::CheckGradients;

Tensor RandomTensor(int64_t rows, int64_t cols, uint64_t seed,
                    float lo = -1.5f, float hi = 1.5f) {
  core::Rng rng(seed);
  return Tensor::RandomUniform(rows, cols, &rng, lo, hi);
}

// ---------------------------------------------------------------------------
// Forward-value tests.

TEST(OpsForwardTest, AddSubMul) {
  Graph g(false);
  Var a = g.Constant(Tensor::FromVector(1, 2, {1, 2}));
  Var b = g.Constant(Tensor::FromVector(1, 2, {10, 20}));
  EXPECT_EQ(g.value(Add(&g, a, b)).at(0, 1), 22.0f);
  EXPECT_EQ(g.value(Sub(&g, a, b)).at(0, 0), -9.0f);
  EXPECT_EQ(g.value(Mul(&g, a, b)).at(0, 1), 40.0f);
}

TEST(OpsForwardTest, ScaleAndAddScalar) {
  Graph g(false);
  Var a = g.Constant(Tensor::FromVector(1, 2, {1, -2}));
  EXPECT_EQ(g.value(Scale(&g, a, 3.0f)).at(0, 1), -6.0f);
  EXPECT_EQ(g.value(AddScalar(&g, a, 5.0f)).at(0, 1), 3.0f);
}

TEST(OpsForwardTest, ActivationValues) {
  Graph g(false);
  Var a = g.Constant(Tensor::FromVector(1, 3, {-2.0f, 0.0f, 2.0f}));
  const Tensor& elu = g.value(Elu(&g, a));
  EXPECT_NEAR(elu.at(0, 0), std::exp(-2.0f) - 1.0f, 1e-6);
  EXPECT_FLOAT_EQ(elu.at(0, 2), 2.0f);
  const Tensor& sig = g.value(Sigmoid(&g, a));
  EXPECT_FLOAT_EQ(sig.at(0, 1), 0.5f);
  const Tensor& th = g.value(Tanh(&g, a));
  EXPECT_NEAR(th.at(0, 2), std::tanh(2.0f), 1e-6);
}

TEST(OpsForwardTest, GatherRowsAndEdgeAggregate) {
  Graph g(false);
  Var a = g.Constant(Tensor::FromVector(3, 2, {1, 2, 3, 4, 5, 6}));
  auto idx = MakeIndices({2, 0, 2});
  const Tensor& gathered = g.value(GatherRows(&g, a, idx));
  EXPECT_EQ(gathered.rows(), 3);
  EXPECT_EQ(gathered.at(0, 0), 5.0f);
  EXPECT_EQ(gathered.at(1, 1), 2.0f);

  // Edges 0 -> 2, 1 -> 0, 2 -> 2 with weights 1, 10, 100.
  Var b = g.Constant(Tensor::FromVector(3, 1, {1, 2, 3}));
  Var w = g.Constant(Tensor::ColVector({1.0f, 10.0f, 100.0f}));
  const Tensor& aggregated =
      g.value(EdgeAggregate(&g, b, w, MakeIndices({0, 1, 2}), idx, 4));
  EXPECT_EQ(aggregated.rows(), 4);
  EXPECT_EQ(aggregated.at(2, 0), 301.0f);  // 1 * b[0] + 100 * b[2]
  EXPECT_EQ(aggregated.at(0, 0), 20.0f);   // 10 * b[1]
  EXPECT_EQ(aggregated.at(1, 0), 0.0f);
  EXPECT_EQ(aggregated.at(3, 0), 0.0f);
}

/// EdgeSoftmax without the edge-type term over edges e -> dst[e] whose
/// pre-activation is logits[e]: edge e reads source score e and a zero
/// destination score.
Var EdgeSoftmaxOfLogits(Graph* g, const std::vector<float>& logits,
                        std::vector<int32_t> dst, int64_t num_nodes,
                        float slope) {
  std::vector<int32_t> src(logits.size());
  for (size_t e = 0; e < src.size(); ++e) src[e] = static_cast<int32_t>(e);
  Var s_src = g->Constant(Tensor::ColVector(logits));
  Var s_dst = g->Constant(Tensor::Zeros(num_nodes, 1));
  return EdgeSoftmax(g, s_src, s_dst, Var{}, MakeIndices(std::move(src)),
                     MakeIndices(std::move(dst)), nullptr, slope, num_nodes);
}

TEST(OpsForwardTest, EdgeSoftmaxNormalizesPerDestination) {
  Graph g(false);
  const Tensor& alpha = g.value(
      EdgeSoftmaxOfLogits(&g, {1.0f, 2.0f, 3.0f, -1.0f}, {0, 0, 1, 1}, 2,
                          0.2f));
  EXPECT_NEAR(alpha.at(0, 0) + alpha.at(1, 0), 1.0, 1e-6);
  EXPECT_NEAR(alpha.at(2, 0) + alpha.at(3, 0), 1.0, 1e-6);
  EXPECT_GT(alpha.at(1, 0), alpha.at(0, 0));
  EXPECT_GT(alpha.at(2, 0), alpha.at(3, 0));
}

TEST(OpsForwardTest, EdgeSoftmaxSingletonDestinationsAreOne) {
  Graph g(false);
  const Tensor& alpha =
      g.value(EdgeSoftmaxOfLogits(&g, {-50.0f, 80.0f}, {0, 1}, 2, 0.2f));
  EXPECT_NEAR(alpha.at(0, 0), 1.0, 1e-6);
  EXPECT_NEAR(alpha.at(1, 0), 1.0, 1e-6);
}

TEST(OpsForwardTest, EdgeSoftmaxNumericallyStableForLargeLogits) {
  Graph g(false);
  const Tensor& alpha =
      g.value(EdgeSoftmaxOfLogits(&g, {1000.0f, 1001.0f}, {0, 0}, 1, 0.2f));
  EXPECT_FALSE(std::isnan(alpha.at(0, 0)));
  EXPECT_NEAR(alpha.at(0, 0) + alpha.at(1, 0), 1.0, 1e-6);
  EXPECT_GT(alpha.at(1, 0), alpha.at(0, 0));
}

TEST(OpsForwardTest, EdgeSoftmaxAddsEdgeTermAndAppliesSlope) {
  // Two edges into node 0. Edge 0: -1 + 0.5 - 1.5 = -2, which the 0.1
  // slope makes -0.2; edge 1: 0.5 + 0.5 + 0 = 1, kept.
  Graph g(false);
  Var s_src = g.Constant(Tensor::ColVector({-1.0f, 0.5f}));
  Var s_dst = g.Constant(Tensor::ColVector({0.5f}));
  Var s_edge = g.Constant(Tensor::ColVector({-1.5f, 0.0f}));
  const Tensor& alpha = g.value(
      EdgeSoftmax(&g, s_src, s_dst, s_edge, MakeIndices({0, 1}),
                  MakeIndices({0, 0}), MakeIndices({0, 1}), 0.1f, 1));
  const double e0 = std::exp(-0.2), e1 = std::exp(1.0);
  EXPECT_NEAR(alpha.at(0, 0), e0 / (e0 + e1), 1e-6);
  EXPECT_NEAR(alpha.at(1, 0), e1 / (e0 + e1), 1e-6);
}

TEST(OpsForwardTest, ConcatColsAndRows) {
  Graph g(false);
  Var a = g.Constant(Tensor::FromVector(2, 1, {1, 2}));
  Var b = g.Constant(Tensor::FromVector(2, 2, {3, 4, 5, 6}));
  const Tensor& cc = g.value(ConcatCols(&g, {a, b}));
  EXPECT_EQ(cc.cols(), 3);
  EXPECT_EQ(cc.at(1, 0), 2.0f);
  EXPECT_EQ(cc.at(1, 2), 6.0f);

  Var c = g.Constant(Tensor::FromVector(1, 2, {7, 8}));
  const Tensor& cr = g.value(ConcatRows(&g, {b, c}));
  EXPECT_EQ(cr.rows(), 3);
  EXPECT_EQ(cr.at(2, 1), 8.0f);
}

TEST(OpsForwardTest, RowL2NormalizeUnitNorms) {
  Graph g(false);
  Var a = g.Constant(Tensor::FromVector(2, 2, {3, 4, 0.6f, 0.8f}));
  const Tensor& n = g.value(RowL2Normalize(&g, a));
  EXPECT_NEAR(n.at(0, 0), 0.6, 1e-6);
  EXPECT_NEAR(n.at(0, 1), 0.8, 1e-6);
  EXPECT_NEAR(n.at(1, 0) * n.at(1, 0) + n.at(1, 1) * n.at(1, 1), 1.0, 1e-5);
}

TEST(OpsForwardTest, RowL2NormalizeZeroRowIsSafe) {
  Graph g(false);
  Var a = g.Constant(Tensor::Zeros(1, 3));
  const Tensor& n = g.value(RowL2Normalize(&g, a));
  EXPECT_EQ(n.at(0, 0), 0.0f);
  EXPECT_FALSE(std::isnan(n.at(0, 1)));
}

TEST(OpsForwardTest, RowDot) {
  Graph g(false);
  Var a = g.Constant(Tensor::FromVector(2, 2, {1, 2, 3, 4}));
  Var b = g.Constant(Tensor::FromVector(2, 2, {5, 6, 7, 8}));
  const Tensor& dot = g.value(RowDot(&g, a, b));
  EXPECT_EQ(dot.at(0, 0), 17.0f);
  EXPECT_EQ(dot.at(1, 0), 53.0f);
}

TEST(OpsForwardTest, BceWithLogitsMatchesClosedForm) {
  Graph g(false);
  Var logits = g.Constant(Tensor::ColVector({0.0f, 2.0f}));
  Tensor labels = Tensor::ColVector({1.0f, 0.0f});
  const float loss = g.value(BceWithLogits(&g, logits, labels)).at(0, 0);
  const float expected =
      0.5f * (std::log(2.0f) + (2.0f + std::log1p(std::exp(-2.0f))));
  EXPECT_NEAR(loss, expected, 1e-5);
}

TEST(OpsForwardTest, BceWithLogitsStableForExtremeLogits) {
  Graph g(false);
  Var logits = g.Constant(Tensor::ColVector({100.0f, -100.0f}));
  Tensor labels = Tensor::ColVector({1.0f, 0.0f});
  const float loss = g.value(BceWithLogits(&g, logits, labels)).at(0, 0);
  EXPECT_FALSE(std::isnan(loss));
  EXPECT_NEAR(loss, 0.0, 1e-5);
}

TEST(OpsForwardTest, DropoutIdentityWhenZeroOrInference) {
  core::Rng rng(1);
  {
    Graph g(true);
    Var a = g.Constant(Tensor::Ones(2, 2));
    Var d = Dropout(&g, a, 0.0f, &rng);
    EXPECT_EQ(d.id, a.id);
  }
  {
    Graph g(false);
    Var a = g.Constant(Tensor::Ones(2, 2));
    Var d = Dropout(&g, a, 0.5f, &rng);
    EXPECT_EQ(d.id, a.id);
  }
}

TEST(OpsForwardTest, DropoutPreservesExpectation) {
  core::Rng rng(2);
  Graph g(true);
  Var a = g.Constant(Tensor::Ones(100, 100));
  Var d = Dropout(&g, a, 0.3f, &rng);
  // Inverted dropout: E[output] == input.
  EXPECT_NEAR(g.value(d).Mean(), 1.0, 0.05);
  // Surviving entries are scaled by 1/keep.
  bool found_scaled = false;
  for (int64_t i = 0; i < g.value(d).size(); ++i) {
    const float v = g.value(d).data()[i];
    if (v != 0.0f) {
      EXPECT_NEAR(v, 1.0f / 0.7f, 1e-5);
      found_scaled = true;
    }
  }
  EXPECT_TRUE(found_scaled);
}

TEST(OpsForwardTest, AddBiasBroadcastsRow) {
  Graph g(false);
  Var a = g.Constant(Tensor::FromVector(2, 2, {1, 2, 3, 4}));
  Var bias = g.Constant(Tensor::FromVector(1, 2, {10, 20}));
  const Tensor& out = g.value(AddBias(&g, a, bias));
  EXPECT_EQ(out.at(0, 0), 11.0f);
  EXPECT_EQ(out.at(1, 1), 24.0f);
}

// ---------------------------------------------------------------------------
// Gradient checks (central differences vs Backward).

TEST(OpsGradTest, Add) {
  CheckGradients({RandomTensor(2, 3, 1), RandomTensor(2, 3, 2)},
                 [](Graph* g, const std::vector<Var>& v) {
                   return Sum(g, Mul(g, Add(g, v[0], v[1]), v[0]));
                 });
}

TEST(OpsGradTest, Sub) {
  CheckGradients({RandomTensor(2, 3, 3), RandomTensor(2, 3, 4)},
                 [](Graph* g, const std::vector<Var>& v) {
                   return Sum(g, Mul(g, Sub(g, v[0], v[1]), v[1]));
                 });
}

TEST(OpsGradTest, MulAndScale) {
  CheckGradients({RandomTensor(3, 2, 5), RandomTensor(3, 2, 6)},
                 [](Graph* g, const std::vector<Var>& v) {
                   return Sum(g, Scale(g, Mul(g, v[0], v[1]), 0.7f));
                 });
}

TEST(OpsGradTest, MatMul) {
  CheckGradients({RandomTensor(3, 4, 7), RandomTensor(4, 2, 8)},
                 [](Graph* g, const std::vector<Var>& v) {
                   return Sum(g, MatMul(g, v[0], v[1]));
                 });
}

TEST(OpsGradTest, MatMulChain) {
  CheckGradients(
      {RandomTensor(2, 3, 9), RandomTensor(3, 3, 10), RandomTensor(3, 1, 11)},
      [](Graph* g, const std::vector<Var>& v) {
        return Sum(g, MatMul(g, MatMul(g, v[0], v[1]), v[2]));
      });
}

TEST(OpsGradTest, AddBias) {
  CheckGradients({RandomTensor(3, 2, 12), RandomTensor(1, 2, 13)},
                 [](Graph* g, const std::vector<Var>& v) {
                   return Sum(g, Mul(g, AddBias(g, v[0], v[1]),
                                     AddBias(g, v[0], v[1])));
                 });
}

TEST(OpsGradTest, Elu) {
  Tensor x = Tensor::FromVector(1, 4, {-1.5f, -0.5f, 0.5f, 1.5f});
  CheckGradients({x}, [](Graph* g, const std::vector<Var>& v) {
    return Sum(g, Mul(g, Elu(g, v[0]), v[0]));
  });
}

TEST(OpsGradTest, SigmoidTanhExp) {
  CheckGradients({RandomTensor(2, 2, 14)},
                 [](Graph* g, const std::vector<Var>& v) {
                   return Sum(g, Sigmoid(g, v[0]));
                 });
  CheckGradients({RandomTensor(2, 2, 15)},
                 [](Graph* g, const std::vector<Var>& v) {
                   return Sum(g, Tanh(g, v[0]));
                 });
  CheckGradients({RandomTensor(2, 2, 16, -1.0f, 1.0f)},
                 [](Graph* g, const std::vector<Var>& v) {
                   return Sum(g, Exp(g, v[0]));
                 });
}

TEST(OpsGradTest, Log) {
  CheckGradients({RandomTensor(2, 2, 17, 0.5f, 2.0f)},
                 [](Graph* g, const std::vector<Var>& v) {
                   return Sum(g, Log(g, v[0]));
                 });
}

TEST(OpsGradTest, Mean) {
  CheckGradients({RandomTensor(3, 3, 18)},
                 [](Graph* g, const std::vector<Var>& v) {
                   return Mean(g, Mul(g, v[0], v[0]));
                 });
}

TEST(OpsGradTest, GatherRows) {
  auto idx = MakeIndices({2, 0, 1, 2});
  CheckGradients({RandomTensor(3, 2, 19)},
                 [idx](Graph* g, const std::vector<Var>& v) {
                   Var gathered = GatherRows(g, v[0], idx);
                   return Sum(g, Mul(g, gathered, gathered));
                 });
}

TEST(OpsGradTest, EdgeAggregate) {
  auto src = MakeIndices({0, 2, 1});
  auto dst = MakeIndices({1, 1, 0});
  CheckGradients({RandomTensor(3, 2, 20), RandomTensor(3, 1, 29)},
                 [src, dst](Graph* g, const std::vector<Var>& v) {
                   Var s = EdgeAggregate(g, v[0], v[1], src, dst, 3);
                   return Sum(g, Mul(g, s, s));
                 });
}

TEST(OpsGradTest, EdgeSoftmax) {
  // Edges 0 -> 0, 2 -> 0, 1 -> 0, 2 -> 1, 0 -> 1 of types 0, 1, 1, 0, 1.
  // Every pre-activation (-1.1, 1.75, -0.15, 1.3, -0.45) stays far from
  // the LeakyReLU kink at 0, where finite differences break.
  auto src = MakeIndices({0, 2, 1, 2, 0});
  auto dst = MakeIndices({0, 0, 0, 1, 1});
  auto etype = MakeIndices({0, 1, 1, 0, 1});
  // Weighted sum of attention makes the gradient non-trivial.
  Tensor weights = Tensor::ColVector({1.0f, -2.0f, 0.5f, 3.0f, -1.0f});
  CheckGradients(
      {Tensor::ColVector({-0.8f, -0.4f, 1.5f}),
       Tensor::ColVector({0.2f, 0.3f}), Tensor::ColVector({-0.5f, 0.05f})},
      [src, dst, etype, weights](Graph* g, const std::vector<Var>& v) {
        Var alpha = EdgeSoftmax(g, v[0], v[1], v[2], src, dst, etype, 0.2f, 2);
        return Sum(g, Mul(g, alpha, g->Constant(weights)));
      },
      /*eps=*/5e-3f);
}

TEST(OpsGradTest, EdgeSoftmaxWithoutEdgeTermNegativeSlope) {
  // The GAT variant: no edge-type term. Pre-activations -1.3, 0.9, -0.6,
  // 1.5 stay far from the kink; the negative slope flips the negative ones.
  auto src = MakeIndices({0, 1, 0, 2});
  auto dst = MakeIndices({1, 1, 0, 0});
  Tensor weights = Tensor::ColVector({2.0f, -1.0f, 0.5f, 1.5f});
  CheckGradients(
      {Tensor::ColVector({-0.9f, 1.3f, 1.2f}),
       Tensor::ColVector({0.3f, -0.4f})},
      [src, dst, weights](Graph* g, const std::vector<Var>& v) {
        Var alpha =
            EdgeSoftmax(g, v[0], v[1], Var{}, src, dst, nullptr, -0.5f, 2);
        return Sum(g, Mul(g, alpha, g->Constant(weights)));
      },
      /*eps=*/5e-3f);
}

TEST(OpsGradTest, ConcatColsAndRows) {
  CheckGradients({RandomTensor(2, 2, 22), RandomTensor(2, 3, 23)},
                 [](Graph* g, const std::vector<Var>& v) {
                   Var c = ConcatCols(g, {v[0], v[1]});
                   return Sum(g, Mul(g, c, c));
                 });
  CheckGradients({RandomTensor(2, 2, 24), RandomTensor(3, 2, 25)},
                 [](Graph* g, const std::vector<Var>& v) {
                   Var c = ConcatRows(g, {v[0], v[1]});
                   return Sum(g, Mul(g, c, c));
                 });
}

TEST(OpsGradTest, RowL2Normalize) {
  // Rows well away from zero norm for a stable finite difference.
  Tensor x = Tensor::FromVector(2, 3, {1.0f, -2.0f, 0.5f, 0.8f, 1.4f, -0.6f});
  Tensor weights = Tensor::FromVector(2, 3, {0.3f, 1.2f, -0.7f,
                                             -0.2f, 0.9f, 1.1f});
  CheckGradients(
      {x},
      [weights](Graph* g, const std::vector<Var>& v) {
        Var n = RowL2Normalize(g, v[0]);
        return Sum(g, Mul(g, n, g->Constant(weights)));
      },
      /*eps=*/5e-3f);
}

TEST(OpsGradTest, RowDot) {
  CheckGradients({RandomTensor(3, 2, 26), RandomTensor(3, 2, 27)},
                 [](Graph* g, const std::vector<Var>& v) {
                   return Sum(g, RowDot(g, v[0], v[1]));
                 });
}

TEST(OpsGradTest, BceWithLogits) {
  Tensor labels = Tensor::ColVector({1.0f, 0.0f, 1.0f, 0.0f});
  CheckGradients({RandomTensor(4, 1, 30)},
                 [labels](Graph* g, const std::vector<Var>& v) {
                   return BceWithLogits(g, v[0], labels);
                 });
}

TEST(OpsGradTest, CompositeAttentionLikeExpression) {
  // A miniature one-head attention: exercises the exact op chain used by
  // the Simple-HGN layer (matmul -> edge softmax -> edge aggregate ->
  // normalize).
  auto src = MakeIndices({0, 1, 2, 0});
  auto dst = MakeIndices({1, 2, 1, 2});
  CheckGradients(
      {RandomTensor(3, 2, 31), RandomTensor(2, 2, 32),
       RandomTensor(2, 1, 33)},
      [src, dst](Graph* g, const std::vector<Var>& v) {
        Var wh = MatMul(g, v[0], v[1]);
        Var alpha = EdgeSoftmax(g, MatMul(g, wh, v[2]), MatMul(g, wh, v[2]),
                                Var{}, src, dst, nullptr, 0.2f, 3);
        Var agg = EdgeAggregate(g, wh, alpha, src, dst, 3);
        Var out = RowL2Normalize(g, Elu(g, agg));
        return Sum(g, Mul(g, out, out));
      },
      /*eps=*/5e-3f, /*tolerance=*/3e-2f);
}

// ---------------------------------------------------------------------------
// Pooled kernels must match the sequential path bit-for-bit.

struct ForwardBackwardResult {
  float loss = 0.0f;
  std::vector<Tensor> grads;
};

// Runs the attention-like expression forward + backward with `pool` attached
// to the graph. Sizes are chosen to cross every kernel's chunking grain:
// elementwise (4096 scalars), matmul rows, edge-aggregate rows, and edge
// softmax (>4096 edges, >16 segments), so the parallel code paths actually
// execute.
ForwardBackwardResult RunAttentionExpression(core::ThreadPool* pool) {
  constexpr int kNodes = 200;
  constexpr int kEdges = 3000;
  constexpr int kDim = 8;
  const Tensor h = RandomTensor(kNodes, kDim, 41);
  const Tensor w = RandomTensor(kDim, kDim, 42);
  const Tensor attn = RandomTensor(kDim, 1, 43);
  core::Rng idx_rng(44);
  std::vector<int32_t> src_idx(kEdges), dst_idx(kEdges);
  for (int e = 0; e < kEdges; ++e) {
    src_idx[static_cast<size_t>(e)] =
        static_cast<int32_t>(idx_rng.UniformInt(kNodes));
    dst_idx[static_cast<size_t>(e)] =
        static_cast<int32_t>(idx_rng.UniformInt(kNodes));
  }
  auto src = MakeIndices(src_idx);
  auto dst = MakeIndices(dst_idx);

  ForwardBackwardResult result;
  result.grads.emplace_back(kNodes, kDim);
  result.grads.emplace_back(kDim, kDim);
  result.grads.emplace_back(kDim, 1);
  Graph g(/*training=*/true);
  g.set_pool(pool);
  Var vh = g.Leaf(h, &result.grads[0]);
  Var vw = g.Leaf(w, &result.grads[1]);
  Var va = g.Leaf(attn, &result.grads[2]);
  Var wh = MatMul(&g, vh, vw);
  Var scores = MatMul(&g, wh, va);
  Var alpha =
      EdgeSoftmax(&g, scores, scores, Var{}, src, dst, nullptr, 0.2f, kNodes);
  Var agg = EdgeAggregate(&g, wh, alpha, src, dst, kNodes);
  Var out = RowL2Normalize(&g, Elu(&g, agg));
  Var loss = Sum(&g, Mul(&g, out, out));
  result.loss = g.value(loss).at(0, 0);
  g.Backward(loss);
  return result;
}

TEST(OpsPooledTest, PooledKernelsBitIdenticalToSequential) {
  const ForwardBackwardResult sequential = RunAttentionExpression(nullptr);
  for (int workers : {1, 4}) {
    core::ThreadPool pool(workers);
    const ForwardBackwardResult pooled = RunAttentionExpression(&pool);
    // Exact float equality: the kernels partition work so every accumulation
    // happens in the same order as the sequential loop.
    EXPECT_EQ(sequential.loss, pooled.loss) << "workers=" << workers;
    ASSERT_EQ(sequential.grads.size(), pooled.grads.size());
    for (size_t i = 0; i < sequential.grads.size(); ++i) {
      const Tensor& a = sequential.grads[i];
      const Tensor& b = pooled.grads[i];
      ASSERT_EQ(a.size(), b.size());
      for (int64_t k = 0; k < a.size(); ++k) {
        ASSERT_EQ(a.data()[k], b.data()[k])
            << "workers=" << workers << " grad " << i << " scalar " << k;
      }
    }
  }
}

}  // namespace
}  // namespace fedda::tensor
