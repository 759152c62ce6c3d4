// Parameterized sweep over Simple-HGN's architectural knobs: every
// combination must produce well-formed, unit-norm embeddings, flow
// gradients, and train without numerical blowups.

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/schema.h"
#include "graph/split.h"
#include "hgn/link_prediction.h"

namespace fedda::hgn {
namespace {

// layers, heads, edge_type_attention, decoder
using ConfigTuple = std::tuple<int, int, bool, DecoderKind>;

class HgnConfigSweepTest : public ::testing::TestWithParam<ConfigTuple> {
 protected:
  static void SetUpTestSuite() {
    core::Rng rng(71);
    graph_ = new graph::HeteroGraph(
        data::GenerateGraph(data::DblpSpec(0.002), &rng));
    split_ = new graph::EdgeSplit(graph::SplitEdges(*graph_, 0.2, &rng));
  }
  static void TearDownTestSuite() {
    delete graph_;
    delete split_;
    graph_ = nullptr;
    split_ = nullptr;
  }

  SimpleHgn MakeModel(const SimpleHgnConfig& config) {
    std::vector<int64_t> dims;
    std::vector<std::string> ntypes, etypes;
    for (graph::NodeTypeId t = 0; t < graph_->num_node_types(); ++t) {
      dims.push_back(graph_->node_type_info(t).feature_dim);
      ntypes.push_back(graph_->node_type_info(t).name);
    }
    for (graph::EdgeTypeId t = 0; t < graph_->num_edge_types(); ++t) {
      etypes.push_back(graph_->edge_type_info(t).name);
    }
    return SimpleHgn(dims, ntypes, etypes, config);
  }

  static graph::HeteroGraph* graph_;
  static graph::EdgeSplit* split_;
};

graph::HeteroGraph* HgnConfigSweepTest::graph_ = nullptr;
graph::EdgeSplit* HgnConfigSweepTest::split_ = nullptr;

TEST_P(HgnConfigSweepTest, EncodesAndTrainsWithoutBlowups) {
  const auto [layers, heads, edge_attn, decoder] = GetParam();
  SimpleHgnConfig config;
  config.num_layers = layers;
  config.num_heads = heads;
  config.hidden_dim = 8;
  config.edge_emb_dim = 4;
  config.use_edge_type_attention = edge_attn;
  config.decoder = decoder;

  SimpleHgn model = MakeModel(config);
  tensor::ParameterStore store;
  core::Rng rng(3);
  model.InitParameters(&store, &rng);

  // Forward: shape, finiteness and unit row norms.
  const MpStructure mp = model.BuildStructure(*graph_);
  {
    tensor::Graph tape(false);
    const tensor::Tensor& emb =
        tape.value(model.Encode(&tape, *graph_, mp, &store));
    ASSERT_EQ(emb.rows(), graph_->num_nodes());
    ASSERT_EQ(emb.cols(), config.hidden_dim);
    for (int64_t i = 0; i < emb.size(); ++i) {
      ASSERT_TRUE(std::isfinite(emb.data()[i]));
    }
    for (int64_t r = 0; r < emb.rows(); ++r) {
      double sq = 0.0;
      for (int64_t c = 0; c < emb.cols(); ++c) {
        sq += double(emb.at(r, c)) * emb.at(r, c);
      }
      ASSERT_NEAR(sq, 1.0, 1e-3) << "row " << r;
    }
  }

  // One training round: loss finite, weights move.
  LinkPredictionTask task(&model, graph_, split_->train);
  TrainOptions options;
  options.local_epochs = 1;
  options.learning_rate = 1e-3f;
  const std::vector<float> before = store.FlattenValues();
  core::Rng train_rng(4);
  const double loss = task.TrainRound(&store, options, &train_rng);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 0.0);
  EXPECT_NE(before, store.FlattenValues());
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, HgnConfigSweepTest,
    ::testing::Values(
        // paper default shape
        ConfigTuple{3, 3, true, DecoderKind::kDistMult},
        // single layer / single head degenerate cases
        ConfigTuple{1, 1, true, DecoderKind::kDistMult},
        ConfigTuple{1, 3, true, DecoderKind::kDot},
        ConfigTuple{2, 2, true, DecoderKind::kDistMult},
        // GAT ablation (no edge-type attention), then GAT + dot decoder
        ConfigTuple{2, 2, false, DecoderKind::kDistMult},
        ConfigTuple{2, 2, false, DecoderKind::kDot}),
    [](const ::testing::TestParamInfo<ConfigTuple>& param_info) {
      std::string name = "L" + std::to_string(std::get<0>(param_info.param)) + "H" +
                         std::to_string(std::get<1>(param_info.param));
      name += std::get<2>(param_info.param) ? "_etattn" : "_gat";
      name += std::get<3>(param_info.param) == DecoderKind::kDistMult
                  ? "_distmult"
                  : "_dot";
      return name;
    });

}  // namespace
}  // namespace fedda::hgn
