// Op-level equivalence for the row ops whose loops moved from per-element
// Tensor::at() indexing to kernels and raw pointers behind one shape check:
// RowScale, RowDot, RowL2Normalize and BceWithLogits. The reference below
// is the earlier op bodies, kept as bounds-checked at() loops. Each op's
// forward value and every input gradient must match it bit for bit (memcmp)
// on random shapes, including 1-column and 0-row inputs, with and without a
// 4-thread pool, on every dispatch path.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "gtest/gtest.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"

namespace fedda::tensor {
namespace {

namespace k = ::fedda::tensor::kernels;

// ---------------------------------------------------------------------------
// Reference: the at()-based loops the ops used to run.
// ---------------------------------------------------------------------------

struct RowScaleRef {
  Tensor y, da, ds;
};

RowScaleRef RowScaleReference(const Tensor& av, const Tensor& sv,
                              const Tensor& dy) {
  RowScaleRef ref{Tensor(av.rows(), av.cols()), Tensor(av.rows(), av.cols()),
                  Tensor(sv.rows(), 1)};
  for (int64_t r = 0; r < av.rows(); ++r) {
    const float f = sv.at(r, 0);
    for (int64_t c = 0; c < av.cols(); ++c) ref.y.at(r, c) = f * av.at(r, c);
  }
  for (int64_t r = 0; r < dy.rows(); ++r) {
    const float f = sv.at(r, 0);
    for (int64_t c = 0; c < dy.cols(); ++c) {
      ref.da.at(r, c) += f * dy.at(r, c);
    }
  }
  for (int64_t r = 0; r < dy.rows(); ++r) {
    float dot = 0.0f;
    for (int64_t c = 0; c < dy.cols(); ++c) dot += av.at(r, c) * dy.at(r, c);
    ref.ds.at(r, 0) += dot;
  }
  return ref;
}

struct RowDotRef {
  Tensor y, da, db;
};

RowDotRef RowDotReference(const Tensor& av, const Tensor& bv,
                          const Tensor& dy) {
  RowDotRef ref{Tensor(av.rows(), 1), Tensor(av.rows(), av.cols()),
                Tensor(av.rows(), av.cols())};
  for (int64_t r = 0; r < av.rows(); ++r) {
    float dot = 0.0f;
    for (int64_t c = 0; c < av.cols(); ++c) dot += av.at(r, c) * bv.at(r, c);
    ref.y.at(r, 0) = dot;
  }
  for (int64_t r = 0; r < av.rows(); ++r) {
    const float d = dy.at(r, 0);
    for (int64_t c = 0; c < av.cols(); ++c) ref.da.at(r, c) += d * bv.at(r, c);
  }
  for (int64_t r = 0; r < av.rows(); ++r) {
    const float d = dy.at(r, 0);
    for (int64_t c = 0; c < av.cols(); ++c) ref.db.at(r, c) += d * av.at(r, c);
  }
  return ref;
}

struct RowL2NormalizeRef {
  Tensor y, da;
};

RowL2NormalizeRef RowL2NormalizeReference(const Tensor& av, const Tensor& dy,
                                          float eps) {
  const int64_t rows = av.rows(), cols = av.cols();
  RowL2NormalizeRef ref{Tensor(rows, cols), Tensor(rows, cols)};
  std::vector<float> norms(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    double sq = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      const float x = av.at(r, c);
      sq += static_cast<double>(x) * x;
    }
    const float n = std::max(static_cast<float>(std::sqrt(sq)), eps);
    norms[static_cast<size_t>(r)] = n;
    for (int64_t c = 0; c < cols; ++c) ref.y.at(r, c) = av.at(r, c) / n;
  }
  for (int64_t r = 0; r < rows; ++r) {
    float dot = 0.0f;
    for (int64_t c = 0; c < cols; ++c) dot += ref.y.at(r, c) * dy.at(r, c);
    const float inv_n = 1.0f / norms[static_cast<size_t>(r)];
    for (int64_t c = 0; c < cols; ++c) {
      ref.da.at(r, c) += (dy.at(r, c) - ref.y.at(r, c) * dot) * inv_n;
    }
  }
  return ref;
}

struct BceRef {
  Tensor loss, dz;
};

BceRef BceWithLogitsReference(const Tensor& zv, const Tensor& labels,
                              float dy) {
  double total = 0.0;
  for (int64_t i = 0; i < zv.rows(); ++i) {
    const float z = zv.at(i, 0);
    const float y = labels.at(i, 0);
    total += std::max(z, 0.0f) - z * y + std::log1p(std::exp(-std::fabs(z)));
  }
  BceRef ref{Tensor(1, 1), Tensor(zv.rows(), 1)};
  ref.loss.at(0, 0) = static_cast<float>(total / zv.rows());
  const float inv_n = 1.0f / static_cast<float>(zv.rows());
  for (int64_t i = 0; i < zv.rows(); ++i) {
    const float sig = 1.0f / (1.0f + std::exp(-zv.at(i, 0)));
    ref.dz.at(i, 0) += dy * (sig - labels.at(i, 0)) * inv_n;
  }
  return ref;
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

k::DispatchMode ModeFor(k::Path path) {
  switch (path) {
    case k::Path::kScalar:
      return k::DispatchMode::kScalar;
    case k::Path::kAvx2:
      return k::DispatchMode::kAvx2;
  }
  return k::DispatchMode::kScalar;
}

void ExpectSameBits(const std::string& what, const Tensor& want,
                    const Tensor& got) {
  // The tape leaves the gradient slot of a zero-size value as 0x0.
  if (want.empty() && got.empty()) return;
  ASSERT_EQ(want.rows(), got.rows()) << what;
  ASSERT_EQ(want.cols(), got.cols()) << what;
  EXPECT_EQ(std::memcmp(want.data(), got.data(),
                        static_cast<size_t>(want.size()) * sizeof(float)),
            0)
      << what << " differs from the at()-loop reference";
}

/// Random values with exact and negative zeros mixed in.
Tensor RandomTensor(int64_t rows, int64_t cols, core::Rng* rng) {
  Tensor t(rows, cols);
  for (int64_t i = 0; i < t.size(); ++i) {
    const double roll = rng->Uniform();
    t.data()[i] = roll < 0.05   ? 0.0f
                  : roll < 0.08 ? -0.0f
                                : static_cast<float>(rng->Uniform(-3.0, 3.0));
  }
  return t;
}

class RowOpsEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<k::Path, int>> {
 protected:
  void SetUp() override {
    saved_mode_ = k::dispatch_mode();
    k::SetDispatchMode(ModeFor(std::get<0>(GetParam())));
    const int threads = std::get<1>(GetParam());
    if (threads > 0) pool_ = std::make_unique<core::ThreadPool>(threads);
  }
  void TearDown() override { k::SetDispatchMode(saved_mode_); }

  /// A training graph on the test's pool.
  std::unique_ptr<Graph> NewGraph() {
    auto g = std::make_unique<Graph>(true);
    g->set_pool(pool_.get());
    return g;
  }

  /// Backpropagates sum(y * weights) so that y's upstream gradient is
  /// `weights` (read back from the tape, which is what the op saw).
  static const Tensor& BackwardWith(Graph* g, Var y, const Tensor& weights) {
    g->Backward(Sum(g, Mul(g, y, g->Constant(weights))));
    return g->grad(y);
  }

  k::DispatchMode saved_mode_ = k::DispatchMode::kAuto;
  std::unique_ptr<core::ThreadPool> pool_;
};

struct Shape {
  int64_t rows, cols;
};
const Shape kShapes[] = {{0, 4},  {0, 1},   {6, 0},   {1, 1},
                         {5, 1},  {9, 1},   {3, 16},  {17, 7},
                         {33, 16}, {40, 19}, {8, 1000}};

std::string Tag(const Shape& s) {
  return " " + std::to_string(s.rows) + "x" + std::to_string(s.cols);
}

TEST_P(RowOpsEquivalenceTest, RowScale) {
  core::Rng rng(7);
  for (const Shape& s : kShapes) {
    const Tensor av = RandomTensor(s.rows, s.cols, &rng);
    const Tensor sv = RandomTensor(s.rows, 1, &rng);
    const Tensor w = RandomTensor(s.rows, s.cols, &rng);
    Tensor sink_a(s.rows, s.cols), sink_s(s.rows, 1);
    auto g = NewGraph();
    Var a = g->Leaf(av, &sink_a);
    Var sc = g->Leaf(sv, &sink_s);
    Var y = RowScale(g.get(), a, sc);
    const Tensor dy = BackwardWith(g.get(), y, w);
    const RowScaleRef ref = RowScaleReference(av, sv, dy);
    ExpectSameBits("RowScale y" + Tag(s), ref.y, g->value(y));
    if (dy.empty()) {  // a zero-size output gets no backward pass
      EXPECT_TRUE(g->grad(a).empty() && g->grad(sc).empty()) << Tag(s);
      continue;
    }
    ExpectSameBits("RowScale da" + Tag(s), ref.da, g->grad(a));
    ExpectSameBits("RowScale ds" + Tag(s), ref.ds, g->grad(sc));
  }
}

TEST_P(RowOpsEquivalenceTest, RowDot) {
  core::Rng rng(8);
  for (const Shape& s : kShapes) {
    const Tensor av = RandomTensor(s.rows, s.cols, &rng);
    const Tensor bv = RandomTensor(s.rows, s.cols, &rng);
    const Tensor w = RandomTensor(s.rows, 1, &rng);
    Tensor sink_a(s.rows, s.cols), sink_b(s.rows, s.cols);
    auto g = NewGraph();
    Var a = g->Leaf(av, &sink_a);
    Var b = g->Leaf(bv, &sink_b);
    Var y = RowDot(g.get(), a, b);
    const Tensor dy = BackwardWith(g.get(), y, w);
    const RowDotRef ref = RowDotReference(av, bv, dy);
    ExpectSameBits("RowDot y" + Tag(s), ref.y, g->value(y));
    ExpectSameBits("RowDot da" + Tag(s), ref.da, g->grad(a));
    ExpectSameBits("RowDot db" + Tag(s), ref.db, g->grad(b));
  }
}

TEST_P(RowOpsEquivalenceTest, RowDotOfAVarWithItself) {
  // Both gradients land in one slot, da's contribution first.
  core::Rng rng(9);
  const Tensor av = RandomTensor(12, 5, &rng);
  const Tensor w = RandomTensor(12, 1, &rng);
  Tensor sink(12, 5);
  auto g = NewGraph();
  Var a = g->Leaf(av, &sink);
  Var y = RowDot(g.get(), a, a);
  const Tensor dy = BackwardWith(g.get(), y, w);
  const RowDotRef ref = RowDotReference(av, av, dy);
  Tensor both = ref.da;
  for (int64_t r = 0; r < av.rows(); ++r) {
    for (int64_t c = 0; c < av.cols(); ++c) {
      both.at(r, c) += dy.at(r, 0) * av.at(r, c);
    }
  }
  ExpectSameBits("RowDot(a, a) y", ref.y, g->value(y));
  ExpectSameBits("RowDot(a, a) da", both, g->grad(a));
}

TEST_P(RowOpsEquivalenceTest, RowL2Normalize) {
  core::Rng rng(10);
  for (const Shape& s : kShapes) {
    Tensor av = RandomTensor(s.rows, s.cols, &rng);
    // One all-zero row takes the eps branch.
    if (s.rows > 2) {
      for (int64_t c = 0; c < s.cols; ++c) av.at(2, c) = 0.0f;
    }
    const Tensor w = RandomTensor(s.rows, s.cols, &rng);
    Tensor sink(s.rows, s.cols);
    auto g = NewGraph();
    Var a = g->Leaf(av, &sink);
    Var y = RowL2Normalize(g.get(), a, 1e-12f);
    const Tensor dy = BackwardWith(g.get(), y, w);
    const RowL2NormalizeRef ref = RowL2NormalizeReference(av, dy, 1e-12f);
    ExpectSameBits("RowL2Normalize y" + Tag(s), ref.y, g->value(y));
    if (dy.empty()) {
      EXPECT_TRUE(g->grad(a).empty()) << Tag(s);
      continue;
    }
    ExpectSameBits("RowL2Normalize da" + Tag(s), ref.da, g->grad(a));
  }
}

TEST_P(RowOpsEquivalenceTest, BceWithLogits) {
  core::Rng rng(11);
  for (int64_t rows : {1LL, 2LL, 9LL, 64LL, 257LL}) {
    const Tensor zv = RandomTensor(rows, 1, &rng);
    Tensor labels(rows, 1);
    for (int64_t i = 0; i < rows; ++i) {
      labels.at(i, 0) = rng.Uniform() < 0.5 ? 1.0f : 0.0f;
    }
    Tensor sink(rows, 1);
    auto g = NewGraph();
    Var z = g->Leaf(zv, &sink);
    Var loss = BceWithLogits(g.get(), z, labels);
    g->Backward(loss);
    const BceRef ref =
        BceWithLogitsReference(zv, labels, g->grad(loss).at(0, 0));
    const std::string tag = " rows=" + std::to_string(rows);
    ExpectSameBits("BceWithLogits loss" + tag, ref.loss, g->value(loss));
    ExpectSameBits("BceWithLogits dz" + tag, ref.dz, g->grad(z));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPathsAllThreads, RowOpsEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(k::SupportedPaths()),
                       ::testing::Values(0, 4)),
    [](const ::testing::TestParamInfo<std::tuple<k::Path, int>>& param) {
      return std::string(k::PathName(std::get<0>(param.param))) + "_threads" +
             std::to_string(std::get<1>(param.param));
    });

}  // namespace
}  // namespace fedda::tensor
