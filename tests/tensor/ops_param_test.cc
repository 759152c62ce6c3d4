// Property-style parameterized sweeps over the op library: adjoint
// identities, gradient checks across shapes, and softmax invariants.

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "tensor/ops.h"
#include "tests/tensor/grad_check.h"

namespace fedda::tensor {
namespace {

// ---------------------------------------------------------------------------
// MatMul gradient check across shape combinations.

class MatMulShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapeTest, GradientMatchesFiniteDifference) {
  const auto [m, k, n] = GetParam();
  core::Rng rng(static_cast<uint64_t>(m * 100 + k * 10 + n));
  const Tensor a = Tensor::RandomUniform(m, k, &rng, -1.0f, 1.0f);
  const Tensor b = Tensor::RandomUniform(k, n, &rng, -1.0f, 1.0f);
  testing::CheckGradients({a, b}, [](Graph* g, const std::vector<Var>& v) {
    return Sum(g, MatMul(g, v[0], v[1]));
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 5, 3),
                      std::make_tuple(4, 1, 4), std::make_tuple(3, 7, 2),
                      std::make_tuple(6, 2, 6)));

// ---------------------------------------------------------------------------
// Gather/ScatterAdd adjoint identity: <Gather(A, idx), B> == <A, Scatter(B, idx)>.

class GatherScatterAdjointTest : public ::testing::TestWithParam<int> {};

TEST_P(GatherScatterAdjointTest, AdjointIdentityHolds) {
  const int num_rows = GetParam();
  core::Rng rng(static_cast<uint64_t>(num_rows));
  const int cols = 3;
  const int num_indices = num_rows * 2;
  std::vector<int32_t> idx(static_cast<size_t>(num_indices));
  for (auto& i : idx) {
    i = static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(num_rows)));
  }
  auto indices = MakeIndices(std::move(idx));
  const Tensor a = Tensor::RandomNormal(num_rows, cols, &rng);
  const Tensor b = Tensor::RandomNormal(num_indices, cols, &rng);

  Graph g(false);
  Var ga = g.Constant(a);
  Var gb = g.Constant(b);
  // <Gather(A), B>
  const Tensor gathered = g.value(GatherRows(&g, ga, indices));
  double lhs = 0.0;
  for (int64_t i = 0; i < gathered.size(); ++i) {
    lhs += static_cast<double>(gathered.data()[i]) * b.data()[i];
  }
  // <A, Scatter(B)>, the scatter being EdgeAggregate with unit weights
  // over the edges i -> indices[i].
  std::vector<int32_t> positions(static_cast<size_t>(num_indices));
  for (int i = 0; i < num_indices; ++i) positions[static_cast<size_t>(i)] = i;
  Var ones = g.Constant(Tensor::Ones(num_indices, 1));
  const Tensor scattered =
      g.value(EdgeAggregate(&g, gb, ones, MakeIndices(std::move(positions)),
                            indices, num_rows));
  double rhs = 0.0;
  for (int64_t i = 0; i < scattered.size(); ++i) {
    rhs += static_cast<double>(scattered.data()[i]) * a.data()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::max(1.0, std::fabs(lhs)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, GatherScatterAdjointTest,
                         ::testing::Values(1, 2, 5, 16, 64));

// ---------------------------------------------------------------------------
// EdgeSoftmax invariants across destination layouts.

struct SegmentCase {
  int num_segments;
  int entries_per_segment;
};

class EdgeSoftmaxPropertyTest : public ::testing::TestWithParam<SegmentCase> {
};

TEST_P(EdgeSoftmaxPropertyTest, SumsToOneAndShiftInvariant) {
  const SegmentCase c = GetParam();
  const int total = c.num_segments * c.entries_per_segment;
  core::Rng rng(static_cast<uint64_t>(total));
  const Tensor s_src = Tensor::RandomNormal(total, 1, &rng, 0.0f, 3.0f);
  const Tensor s_dst = Tensor::RandomNormal(c.num_segments, 1, &rng);
  std::vector<int32_t> src(static_cast<size_t>(total));
  std::vector<int32_t> dst(static_cast<size_t>(total));
  for (int i = 0; i < total; ++i) {
    src[static_cast<size_t>(i)] = i;
    dst[static_cast<size_t>(i)] =
        static_cast<int32_t>(i % c.num_segments);  // interleaved destinations
  }
  auto srcs = MakeIndices(std::move(src));
  auto dsts = MakeIndices(std::move(dst));
  auto alpha_of = [&](Graph* g, const Tensor& dst_scores, float slope) {
    return g->value(EdgeSoftmax(g, g->Constant(s_src), g->Constant(dst_scores),
                                Var{}, srcs, dsts, nullptr, slope,
                                c.num_segments));
  };

  Graph g(false);
  const Tensor alpha = alpha_of(&g, s_dst, 0.2f);
  // Per-destination sums are exactly one.
  std::vector<double> sums(static_cast<size_t>(c.num_segments), 0.0);
  for (int i = 0; i < total; ++i) {
    ASSERT_GT(alpha.at(i, 0), 0.0f);
    ASSERT_LE(alpha.at(i, 0), 1.0f + 1e-6f);
    sums[static_cast<size_t>(i % c.num_segments)] += alpha.at(i, 0);
  }
  for (double s : sums) EXPECT_NEAR(s, 1.0, 1e-5);

  // With slope 1 the LeakyReLU is the identity, so shifting every
  // destination score shifts each destination's logits by one constant,
  // to which softmax is invariant.
  Tensor shifted = s_dst;
  for (int64_t i = 0; i < shifted.size(); ++i) shifted.data()[i] += 7.5f;
  const Tensor alpha1 = alpha_of(&g, s_dst, 1.0f);
  const Tensor alpha2 = alpha_of(&g, shifted, 1.0f);
  EXPECT_TRUE(alpha1.AllClose(alpha2, 1e-5f));
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, EdgeSoftmaxPropertyTest,
    ::testing::Values(SegmentCase{1, 8}, SegmentCase{4, 1},
                      SegmentCase{3, 5}, SegmentCase{16, 4}));

// ---------------------------------------------------------------------------
// Activation gradient checks across a grid of input magnitudes.

class ActivationGradTest : public ::testing::TestWithParam<float> {};

TEST_P(ActivationGradTest, AllActivationsDifferentiable) {
  const float magnitude = GetParam();
  core::Rng rng(static_cast<uint64_t>(magnitude * 1000));
  Tensor x = Tensor::RandomUniform(2, 3, &rng, 0.1f * magnitude,
                                   magnitude);  // away from kinks at 0
  testing::CheckGradients({x}, [](Graph* g, const std::vector<Var>& v) {
    Var y = Elu(g, Sigmoid(g, Tanh(g, v[0])));
    return Sum(g, y);
  });
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, ActivationGradTest,
                         ::testing::Values(0.5f, 1.0f, 2.0f));

// ---------------------------------------------------------------------------
// RowL2Normalize produces unit rows for any width.

class RowNormalizeWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(RowNormalizeWidthTest, UnitNorms) {
  const int width = GetParam();
  core::Rng rng(static_cast<uint64_t>(width));
  const Tensor x = Tensor::RandomNormal(5, width, &rng, 1.0f, 2.0f);
  Graph g(false);
  const Tensor n = g.value(RowL2Normalize(&g, g.Constant(x)));
  for (int64_t r = 0; r < n.rows(); ++r) {
    double sq = 0.0;
    for (int64_t c = 0; c < n.cols(); ++c) {
      sq += static_cast<double>(n.at(r, c)) * n.at(r, c);
    }
    EXPECT_NEAR(std::sqrt(sq), 1.0, 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, RowNormalizeWidthTest,
                         ::testing::Values(1, 2, 7, 33, 128));

}  // namespace
}  // namespace fedda::tensor
