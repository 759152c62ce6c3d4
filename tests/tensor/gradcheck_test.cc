// Central-difference gradient checks for every differentiable op in
// tensor/ops.cc, plus one end-to-end Simple-HGN layer checked through the
// ParameterStore. The op checks are parameterized twice over: each
// (eps, tolerance, seed) configuration catches backward formulas that only
// "pass" at one perturbation size, and each dispatch configuration runs the
// same battery through the forced-scalar kernels and the best-available
// SIMD path — so a vector kernel with a wrong backward cannot hide behind
// the default configuration.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/schema.h"
#include "hgn/simple_hgn.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"
#include "tensor/parameter_store.h"
#include "tests/tensor/grad_check.h"

namespace fedda::tensor {
namespace {

using testing::CheckGradients;

struct GradParams {
  float eps;
  float tolerance;
  uint64_t seed;
  const char* dispatch = "auto";  // forwarded to kernels::ParseDispatchMode
};

class OpsGradCheck : public ::testing::TestWithParam<GradParams> {
 protected:
  void SetUp() override {
    saved_mode_ = kernels::dispatch_mode();
    kernels::SetDispatchMode(
        kernels::ParseDispatchMode(GetParam().dispatch));
  }
  void TearDown() override { kernels::SetDispatchMode(saved_mode_); }

  float eps() const { return GetParam().eps; }
  float tol() const { return GetParam().tolerance; }
  core::Rng MakeRng() const { return core::Rng(GetParam().seed); }

  void Check(const std::vector<Tensor>& inputs,
             const testing::LossBuilder& build) const {
    CheckGradients(inputs, build, eps(), tol());
  }

 private:
  kernels::DispatchMode saved_mode_ = kernels::DispatchMode::kAuto;
};

INSTANTIATE_TEST_SUITE_P(
    Tolerances, OpsGradCheck,
    ::testing::Values(GradParams{1e-2f, 2e-2f, 7},
                      GradParams{5e-3f, 2.5e-2f, 1234}));

// The same battery under forced-scalar kernels (the instantiation above
// runs the best-available SIMD path).
INSTANTIATE_TEST_SUITE_P(
    ForcedScalar, OpsGradCheck,
    ::testing::Values(GradParams{1e-2f, 2e-2f, 7, "scalar"}));

TEST_P(OpsGradCheck, AddSubMulScaleAddScalar) {
  core::Rng rng = MakeRng();
  const Tensor a = Tensor::RandomUniform(3, 4, &rng, -1.0f, 1.0f);
  const Tensor b = Tensor::RandomUniform(3, 4, &rng, -1.0f, 1.0f);
  Check({a, b}, [](Graph* g, const std::vector<Var>& v) {
    Var sum = Add(g, v[0], v[1]);
    Var diff = Sub(g, v[0], v[1]);
    Var prod = Mul(g, sum, diff);              // (a+b)*(a-b)
    Var scaled = Scale(g, prod, 0.5f);
    Var shifted = AddScalar(g, scaled, 0.25f);
    return Sum(g, Tanh(g, shifted));
  });
}

TEST_P(OpsGradCheck, MatMul) {
  core::Rng rng = MakeRng();
  const Tensor a = Tensor::RandomUniform(3, 4, &rng, -1.0f, 1.0f);
  const Tensor b = Tensor::RandomUniform(4, 2, &rng, -1.0f, 1.0f);
  Check({a, b}, [](Graph* g, const std::vector<Var>& v) {
    return Sum(g, Tanh(g, MatMul(g, v[0], v[1])));
  });
}

TEST_P(OpsGradCheck, AddBias) {
  core::Rng rng = MakeRng();
  const Tensor a = Tensor::RandomUniform(4, 3, &rng, -1.0f, 1.0f);
  const Tensor bias = Tensor::RandomUniform(1, 3, &rng, -1.0f, 1.0f);
  Check({a, bias}, [](Graph* g, const std::vector<Var>& v) {
    return Sum(g, Sigmoid(g, AddBias(g, v[0], v[1])));
  });
}

TEST_P(OpsGradCheck, EluAwayFromKink) {
  core::Rng rng = MakeRng();
  Tensor a = Tensor::RandomUniform(4, 4, &rng, 0.1f, 1.0f);
  for (int64_t i = 0; i < a.size(); ++i) {
    if (i % 3 == 0) a.data()[i] = -a.data()[i];
  }
  Check({a}, [](Graph* g, const std::vector<Var>& v) {
    return Mean(g, Elu(g, v[0], 1.0f));
  });
}

TEST_P(OpsGradCheck, SigmoidTanhExpLog) {
  core::Rng rng = MakeRng();
  const Tensor a = Tensor::RandomUniform(3, 3, &rng, -1.0f, 1.0f);
  Check({a}, [](Graph* g, const std::vector<Var>& v) {
    return Sum(g, Tanh(g, Sigmoid(g, v[0])));
  });
  const Tensor b = Tensor::RandomUniform(3, 3, &rng, -1.0f, 1.0f);
  Check({b}, [](Graph* g, const std::vector<Var>& v) {
    return Mean(g, Exp(g, v[0]));
  });
  // Log needs strictly positive inputs with eps-sized headroom.
  const Tensor c = Tensor::RandomUniform(3, 3, &rng, 0.5f, 2.0f);
  Check({c}, [](Graph* g, const std::vector<Var>& v) {
    return Sum(g, Log(g, v[0]));
  });
}

TEST_P(OpsGradCheck, SumAndMean) {
  core::Rng rng = MakeRng();
  const Tensor a = Tensor::RandomUniform(2, 5, &rng, -1.0f, 1.0f);
  Check({a}, [](Graph* g, const std::vector<Var>& v) {
    // Sum and Mean combined through a nonlinearity so the gradient is not
    // trivially constant.
    Var s = Sum(g, Mul(g, v[0], v[0]));
    Var m = Mean(g, v[0]);
    return Add(g, Tanh(g, s), m);
  });
}

TEST_P(OpsGradCheck, GatherRowsWithDuplicateIndices) {
  core::Rng rng = MakeRng();
  const Tensor a = Tensor::RandomUniform(3, 4, &rng, -1.0f, 1.0f);
  // Row 1 is gathered three times: its gradient must accumulate all three
  // contributions. Row 2's single use and row 0's single use ride along.
  auto indices = MakeIndices({1, 0, 1, 2, 1});
  Check({a}, [indices](Graph* g, const std::vector<Var>& v) {
    return Sum(g, Tanh(g, GatherRows(g, v[0], indices)));
  });
}

TEST_P(OpsGradCheck, EdgeAggregateWithDuplicatesAndEmptyRows) {
  core::Rng rng = MakeRng();
  const Tensor x = Tensor::RandomUniform(3, 3, &rng, -1.0f, 1.0f);
  const Tensor w = Tensor::RandomUniform(4, 1, &rng, -1.0f, 1.0f);
  // Destination rows 0 and 2 each receive two edges; destination rows 1
  // and 3 receive none (empty rows). The (1 -> 2) edge appears twice, so
  // source row 1 collects two terms for one destination.
  auto src = MakeIndices({0, 1, 1, 2});
  auto dst = MakeIndices({0, 2, 2, 0});
  Check({x, w}, [src, dst](Graph* g, const std::vector<Var>& v) {
    return Sum(g, Tanh(g, EdgeAggregate(g, v[0], v[1], src, dst, 4)));
  });
}

TEST_P(OpsGradCheck, EdgeAggregateAllIntoOneRow) {
  core::Rng rng = MakeRng();
  const Tensor x = Tensor::RandomUniform(3, 2, &rng, -0.5f, 0.5f);
  const Tensor w = Tensor::RandomUniform(5, 1, &rng, -1.0f, 1.0f);
  // Every edge lands in row 1, a self loop among them.
  auto src = MakeIndices({0, 1, 2, 0, 2});
  auto dst = MakeIndices({1, 1, 1, 1, 1});
  Check({x, w}, [src, dst](Graph* g, const std::vector<Var>& v) {
    return Sum(g, Sigmoid(g, EdgeAggregate(g, v[0], v[1], src, dst, 3)));
  });
}

/// Source scores of magnitude 0.3 to 1.0 with alternating signs. Beside
/// destination and edge-type scores drawn from [-0.1, 0.1] they keep every
/// EdgeSoftmax pre-activation at least 0.1 from the LeakyReLU kink at 0,
/// where the numeric derivative straddles two linear pieces and no
/// tolerance is fair.
Tensor SourceScoresAwayFromKink(int64_t rows, core::Rng* rng) {
  Tensor s = Tensor::RandomUniform(rows, 1, rng, 0.3f, 1.0f);
  for (int64_t i = 0; i < rows; i += 2) s.data()[i] = -s.data()[i];
  return s;
}

Tensor SmallScores(int64_t rows, core::Rng* rng) {
  return Tensor::RandomUniform(rows, 1, rng, -0.1f, 0.1f);
}

TEST_P(OpsGradCheck, EdgeSoftmaxAwayFromKink) {
  core::Rng rng = MakeRng();
  const Tensor s_src = SourceScoresAwayFromKink(4, &rng);
  const Tensor s_dst = SmallScores(3, &rng);
  const Tensor s_edge = SmallScores(2, &rng);
  // Node 1 takes four edges, among them the self loop and the (3 -> 1)
  // pair twice; node 2 takes two. A negative slope flips the negative
  // pre-activations.
  auto src = MakeIndices({0, 1, 3, 3, 2, 0});
  auto dst = MakeIndices({1, 1, 1, 1, 2, 2});
  auto etype = MakeIndices({0, 1, 0, 1, 1, 0});
  Check({s_src, s_dst, s_edge},
        [src, dst, etype](Graph* g, const std::vector<Var>& v) {
          Var alpha =
              EdgeSoftmax(g, v[0], v[1], v[2], src, dst, etype, -0.5f, 3);
          return Sum(g, Tanh(g, Scale(g, alpha, 3.0f)));
        });
}

TEST_P(OpsGradCheck, EdgeSoftmaxWithEmptyDestinations) {
  core::Rng rng = MakeRng();
  const Tensor s_src = SourceScoresAwayFromKink(5, &rng);
  const Tensor s_dst = SmallScores(5, &rng);
  const Tensor s_edge = SmallScores(2, &rng);
  const Tensor weights = Tensor::RandomUniform(5, 1, &rng, 0.5f, 1.5f);
  // Nodes 1 and 4 of 5 receive no edge; nodes 0 and 2 two edges each.
  auto src = MakeIndices({1, 3, 0, 4, 2});
  auto dst = MakeIndices({0, 0, 2, 2, 3});
  auto etype = MakeIndices({0, 1, 1, 0, 1});
  Check({s_src, s_dst, s_edge, weights},
        [src, dst, etype](Graph* g, const std::vector<Var>& v) {
          Var alpha =
              EdgeSoftmax(g, v[0], v[1], v[2], src, dst, etype, 0.2f, 5);
          return Sum(g, Mul(g, alpha, v[3]));
        });
}

TEST_P(OpsGradCheck, EdgeSoftmaxSingletonDestinations) {
  core::Rng rng = MakeRng();
  const Tensor s_src = SourceScoresAwayFromKink(3, &rng);
  const Tensor s_dst = SmallScores(3, &rng);
  const Tensor weights = Tensor::RandomUniform(3, 1, &rng, -1.0f, 1.0f);
  // Every destination has exactly one edge: its softmax saturates at 1.0
  // and the gradient w.r.t. every score must be exactly zero.
  auto src = MakeIndices({2, 0, 1});
  auto dst = MakeIndices({0, 1, 2});
  Check({s_src, s_dst, weights},
        [src, dst](Graph* g, const std::vector<Var>& v) {
          Var alpha =
              EdgeSoftmax(g, v[0], v[1], Var{}, src, dst, nullptr, 0.2f, 3);
          return Sum(g, Mul(g, alpha, v[2]));
        });
}

TEST_P(OpsGradCheck, ConcatColsAndRows) {
  core::Rng rng = MakeRng();
  const Tensor a = Tensor::RandomUniform(3, 2, &rng, -1.0f, 1.0f);
  const Tensor b = Tensor::RandomUniform(3, 3, &rng, -1.0f, 1.0f);
  Check({a, b}, [](Graph* g, const std::vector<Var>& v) {
    return Sum(g, Tanh(g, ConcatCols(g, {v[0], v[1]})));
  });
  const Tensor c = Tensor::RandomUniform(2, 4, &rng, -1.0f, 1.0f);
  const Tensor d = Tensor::RandomUniform(3, 4, &rng, -1.0f, 1.0f);
  Check({c, d}, [](Graph* g, const std::vector<Var>& v) {
    return Sum(g, Sigmoid(g, ConcatRows(g, {v[0], v[1]})));
  });
}

TEST_P(OpsGradCheck, RowL2Normalize) {
  core::Rng rng = MakeRng();
  // Rows with norms comfortably above zero so the normalization is smooth.
  const Tensor a = Tensor::RandomUniform(3, 4, &rng, 0.5f, 1.5f);
  const Tensor w = Tensor::RandomUniform(3, 4, &rng, -1.0f, 1.0f);
  Check({a, w}, [](Graph* g, const std::vector<Var>& v) {
    return Sum(g, Mul(g, RowL2Normalize(g, v[0]), v[1]));
  });
}

TEST_P(OpsGradCheck, RowDot) {
  core::Rng rng = MakeRng();
  const Tensor a = Tensor::RandomUniform(4, 3, &rng, -1.0f, 1.0f);
  const Tensor b = Tensor::RandomUniform(4, 3, &rng, -1.0f, 1.0f);
  Check({a, b}, [](Graph* g, const std::vector<Var>& v) {
    return Sum(g, Tanh(g, RowDot(g, v[0], v[1])));
  });
}

TEST_P(OpsGradCheck, BceWithLogits) {
  core::Rng rng = MakeRng();
  const Tensor logits = Tensor::RandomUniform(6, 1, &rng, -2.0f, 2.0f);
  Tensor labels(6, 1);
  for (int64_t i = 0; i < 6; ++i) {
    labels.at(i, 0) = i % 2 == 0 ? 1.0f : 0.0f;
  }
  Check({logits}, [labels](Graph* g, const std::vector<Var>& v) {
    return BceWithLogits(g, v[0], labels);
  });
}

TEST_P(OpsGradCheck, SoftmaxCrossEntropy) {
  core::Rng rng = MakeRng();
  const Tensor logits = Tensor::RandomUniform(4, 3, &rng, -2.0f, 2.0f);
  auto labels =
      std::make_shared<const std::vector<int32_t>>(
          std::vector<int32_t>{0, 2, 1, 1});
  Check({logits}, [labels](Graph* g, const std::vector<Var>& v) {
    return SoftmaxCrossEntropy(g, v[0], labels);
  });
}

TEST_P(OpsGradCheck, DropoutGradientMatchesMask) {
  // Dropout cannot go through CheckGradients: inference graphs skip the
  // mask entirely, so numeric and analytic passes would see different
  // functions. Instead verify the exact identity the backward must satisfy:
  // y = x * m / keep  =>  dSum/dx = m / keep = y / x elementwise.
  core::Rng data_rng = MakeRng();
  const Tensor x = Tensor::RandomUniform(8, 8, &data_rng, 0.5f, 1.5f);
  Tensor grad(8, 8);
  Tensor y;
  {
    Graph g(/*training=*/true);
    core::Rng mask_rng(GetParam().seed + 1);
    Var xv = g.Leaf(x, &grad);
    Var yv = Dropout(&g, xv, 0.5f, &mask_rng);
    Var loss = Sum(&g, yv);
    y = g.value(yv);
    g.Backward(loss);
  }
  int64_t kept = 0;
  for (int64_t i = 0; i < x.size(); ++i) {
    const float expected = y.data()[i] / x.data()[i];  // m_i / keep
    EXPECT_NEAR(grad.data()[i], expected, 1e-6f) << "scalar " << i;
    if (y.data()[i] != 0.0f) ++kept;
  }
  // The mask actually dropped something and kept something (p = 0.5 over
  // 64 scalars; both events are astronomically likely).
  EXPECT_GT(kept, 0);
  EXPECT_LT(kept, x.size());
}

// End-to-end: one full Simple-HGN layer (edge-type attention, residual, L2
// normalization, DistMult decoder) differentiated through the
// ParameterStore, checked against central differences on a sample of
// parameters from every group.
TEST(SimpleHgnGradCheckTest, EndToEndLayerMatchesCentralDifferences) {
  data::SyntheticSpec spec = data::DblpSpec(0.002);
  core::Rng graph_rng(11);
  const graph::HeteroGraph g = data::GenerateGraph(spec, &graph_rng);
  ASSERT_GT(g.num_edges(), 8);

  hgn::SimpleHgnConfig config;
  config.num_layers = 1;
  config.num_heads = 1;
  config.hidden_dim = 4;
  config.edge_emb_dim = 2;
  std::vector<int64_t> dims;
  std::vector<std::string> ntypes, etypes;
  for (graph::NodeTypeId t = 0; t < g.num_node_types(); ++t) {
    dims.push_back(g.node_type_info(t).feature_dim);
    ntypes.push_back(g.node_type_info(t).name);
  }
  for (graph::EdgeTypeId t = 0; t < g.num_edge_types(); ++t) {
    etypes.push_back(g.edge_type_info(t).name);
  }
  hgn::SimpleHgn model(dims, ntypes, etypes, config);
  ParameterStore store;
  core::Rng init_rng(3);
  model.InitParameters(&store, &init_rng);
  const hgn::MpStructure mp = model.BuildStructure(g);

  // A small batch of real edges, alternating positive/negative labels (the
  // label values only shape the loss surface; any fixed labels are valid
  // for a gradient check).
  std::vector<int32_t> us, vs, ets;
  const int64_t batch = std::min<int64_t>(6, g.num_edges());
  Tensor labels(batch, 1);
  for (int64_t e = 0; e < batch; ++e) {
    us.push_back(g.edge_src(static_cast<graph::EdgeId>(e)));
    vs.push_back(g.edge_dst(static_cast<graph::EdgeId>(e)));
    ets.push_back(g.edge_type(static_cast<graph::EdgeId>(e)));
    labels.at(e, 0) = e % 2 == 0 ? 1.0f : 0.0f;
  }

  auto eval_loss = [&](ParameterStore* s) {
    Graph graph_eval(/*training=*/false);
    Var emb = model.Encode(&graph_eval, g, mp, s);
    Var logits = model.ScorePairs(&graph_eval, emb, us, vs, ets, s);
    Var loss = BceWithLogits(&graph_eval, logits, labels);
    return graph_eval.value(loss).at(0, 0);
  };

  store.ZeroGrads();
  {
    Graph train_graph(/*training=*/true);
    Var emb = model.Encode(&train_graph, g, mp, &store);
    Var logits = model.ScorePairs(&train_graph, emb, us, vs, ets, &store);
    Var loss = BceWithLogits(&train_graph, logits, labels);
    train_graph.Backward(loss);
  }

  // Central differences on the first/middle/last scalar of every group —
  // every parameter tensor in the model is exercised without paying for
  // all scalars.
  const float eps = 1e-2f;
  const float tolerance = 2e-2f;
  int checked = 0;
  for (int gid = 0; gid < store.num_groups(); ++gid) {
    Tensor& value = store.value(gid);
    const int64_t n = value.size();
    ASSERT_GT(n, 0);
    for (int64_t k : {int64_t{0}, n / 2, n - 1}) {
      const float original = value.data()[k];
      value.data()[k] = original + eps;
      const float plus = eval_loss(&store);
      value.data()[k] = original - eps;
      const float minus = eval_loss(&store);
      value.data()[k] = original;
      const float numeric = (plus - minus) / (2.0f * eps);
      const float analytic = store.grad(gid).data()[k];
      const float scale =
          std::max({1.0f, std::fabs(numeric), std::fabs(analytic)});
      EXPECT_NEAR(analytic, numeric, tolerance * scale)
          << "group " << gid << " (" << store.info(gid).name << ") scalar "
          << k;
      ++checked;
    }
  }
  EXPECT_GE(checked, 3 * store.num_groups());
}

}  // namespace
}  // namespace fedda::tensor
