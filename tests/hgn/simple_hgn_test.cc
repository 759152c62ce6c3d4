#include "hgn/simple_hgn.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/schema.h"

namespace fedda::hgn {
namespace {

/// Tiny DBLP-schema graph (3 node types, 5 edge types).
graph::HeteroGraph MakeTinyDblp(uint64_t seed = 11) {
  data::SyntheticSpec spec = data::DblpSpec(0.002);
  core::Rng rng(seed);
  return data::GenerateGraph(spec, &rng);
}

SimpleHgnConfig SmallConfig() {
  SimpleHgnConfig config;
  config.num_layers = 2;
  config.num_heads = 2;
  config.hidden_dim = 8;
  config.edge_emb_dim = 4;
  return config;
}

SimpleHgn MakeModel(const graph::HeteroGraph& g, SimpleHgnConfig config) {
  std::vector<int64_t> dims;
  std::vector<std::string> ntypes, etypes;
  for (graph::NodeTypeId t = 0; t < g.num_node_types(); ++t) {
    dims.push_back(g.node_type_info(t).feature_dim);
    ntypes.push_back(g.node_type_info(t).name);
  }
  for (graph::EdgeTypeId t = 0; t < g.num_edge_types(); ++t) {
    etypes.push_back(g.edge_type_info(t).name);
  }
  return SimpleHgn(dims, ntypes, etypes, config);
}

TEST(SimpleHgnTest, PaperDefaultDblpHas65ParameterGroups) {
  // Paper Table 3: FedAvg on DBLP transmits 65 groups per client-round
  // (40 rounds x 4 clients x 65 = 10,400). The paper-default architecture
  // (3 layers, 3 heads, DistMult) over the DBLP schema must reproduce that:
  // 3 input projections + 3x(1 edge-emb + 3 heads x 6 tensors) + 5 DistMult
  // relations = 65.
  graph::HeteroGraph g = MakeTinyDblp();
  SimpleHgnConfig config;  // paper defaults
  SimpleHgn model = MakeModel(g, config);
  tensor::ParameterStore store;
  core::Rng rng(1);
  model.InitParameters(&store, &rng);
  EXPECT_EQ(store.num_groups(), 65);
  // Disentangled set: 3 edge-emb tables + 5 DistMult relations.
  EXPECT_EQ(store.DisentangledGroups().size(), 8u);
}

TEST(SimpleHgnTest, LayerInputDims) {
  graph::HeteroGraph g = MakeTinyDblp();
  SimpleHgnConfig config = SmallConfig();
  SimpleHgn model = MakeModel(g, config);
  EXPECT_EQ(model.LayerInputDim(0), 8);
  EXPECT_EQ(model.LayerInputDim(1), 16);  // heads concatenate
}

TEST(SimpleHgnTest, InitIsDeterministicAndReinitializable) {
  graph::HeteroGraph g = MakeTinyDblp();
  SimpleHgn model = MakeModel(g, SmallConfig());
  tensor::ParameterStore a, b;
  core::Rng r1(5), r2(5);
  model.InitParameters(&a, &r1);
  model.InitParameters(&b, &r2);
  ASSERT_TRUE(a.SameStructure(b));
  for (int i = 0; i < a.num_groups(); ++i) {
    EXPECT_TRUE(a.value(i).Equals(b.value(i)));
  }
}

TEST(SimpleHgnTest, MpStructureSymmetrizesAndAddsSelfLoops) {
  graph::HeteroGraph g = MakeTinyDblp();
  SimpleHgn model = MakeModel(g, SmallConfig());
  const MpStructure mp = model.BuildStructure(g);
  EXPECT_EQ(mp.num_nodes, g.num_nodes());
  EXPECT_EQ(static_cast<int64_t>(mp.src->size()),
            2 * g.num_edges() + g.num_nodes());
  // Self-loop type id is num real edge types.
  const int32_t self_type = g.num_edge_types();
  int64_t self_loops = 0;
  for (size_t i = 0; i < mp.etype->size(); ++i) {
    if ((*mp.etype)[i] == self_type) {
      EXPECT_EQ((*mp.src)[i], (*mp.dst)[i]);
      ++self_loops;
    }
  }
  EXPECT_EQ(self_loops, g.num_nodes());
}

TEST(SimpleHgnTest, MpStructureNodePermIsValidPermutation) {
  graph::HeteroGraph g = MakeTinyDblp();
  SimpleHgn model = MakeModel(g, SmallConfig());
  const MpStructure mp = model.BuildStructure(g);
  std::vector<bool> seen(static_cast<size_t>(g.num_nodes()), false);
  for (int32_t p : *mp.node_perm) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, g.num_nodes());
    EXPECT_FALSE(seen[static_cast<size_t>(p)]);
    seen[static_cast<size_t>(p)] = true;
  }
}

TEST(SimpleHgnTest, EncodeShapeAndL2Norm) {
  graph::HeteroGraph g = MakeTinyDblp();
  SimpleHgn model = MakeModel(g, SmallConfig());
  tensor::ParameterStore store;
  core::Rng rng(2);
  model.InitParameters(&store, &rng);
  const MpStructure mp = model.BuildStructure(g);

  tensor::Graph tape(/*training=*/false);
  tensor::Var emb = model.Encode(&tape, g, mp, &store);
  const tensor::Tensor& e = tape.value(emb);
  EXPECT_EQ(e.rows(), g.num_nodes());
  EXPECT_EQ(e.cols(), 8);
  // Final L2 normalization: every row has unit norm (or zero).
  for (int64_t v = 0; v < e.rows(); ++v) {
    double sq = 0.0;
    for (int64_t c = 0; c < e.cols(); ++c) sq += double(e.at(v, c)) * e.at(v, c);
    EXPECT_NEAR(std::sqrt(sq), 1.0, 1e-4) << "row " << v;
  }
}

TEST(SimpleHgnTest, EncodeDeterministicInInference) {
  graph::HeteroGraph g = MakeTinyDblp();
  SimpleHgn model = MakeModel(g, SmallConfig());
  tensor::ParameterStore store;
  core::Rng rng(3);
  model.InitParameters(&store, &rng);
  const MpStructure mp = model.BuildStructure(g);
  tensor::Graph t1(false), t2(false);
  const tensor::Tensor& e1 = t1.value(model.Encode(&t1, g, mp, &store));
  const tensor::Tensor& e2 = t2.value(model.Encode(&t2, g, mp, &store));
  EXPECT_TRUE(e1.Equals(e2));
}

TEST(SimpleHgnTest, TrainingAndInferenceForwardAgree) {
  graph::HeteroGraph g = MakeTinyDblp();
  SimpleHgn model = MakeModel(g, SmallConfig());
  tensor::ParameterStore store;
  core::Rng rng(4);
  model.InitParameters(&store, &rng);
  const MpStructure mp = model.BuildStructure(g);
  tensor::Graph train_tape(true), infer_tape(false);
  const tensor::Tensor& et =
      train_tape.value(model.Encode(&train_tape, g, mp, &store));
  const tensor::Tensor& ei =
      infer_tape.value(model.Encode(&infer_tape, g, mp, &store));
  EXPECT_TRUE(et.AllClose(ei, 1e-6f));
}

TEST(SimpleHgnTest, ScorePairsMatchesScalarScorePair) {
  graph::HeteroGraph g = MakeTinyDblp();
  for (DecoderKind decoder : {DecoderKind::kDot, DecoderKind::kDistMult}) {
    SimpleHgnConfig config = SmallConfig();
    config.decoder = decoder;
    SimpleHgn model = MakeModel(g, config);
    tensor::ParameterStore store;
    core::Rng rng(6);
    model.InitParameters(&store, &rng);
    const MpStructure mp = model.BuildStructure(g);

    tensor::Graph tape(false);
    tensor::Var emb = model.Encode(&tape, g, mp, &store);
    const std::vector<int32_t> us = {0, 1, 2};
    const std::vector<int32_t> vs = {3, 4, 5};
    const std::vector<int32_t> ts = {0, 1, 0};
    tensor::Var logits = model.ScorePairs(&tape, emb, us, vs, ts, &store);
    const tensor::Tensor& e = tape.value(emb);
    for (size_t i = 0; i < us.size(); ++i) {
      EXPECT_NEAR(tape.value(logits).at(static_cast<int64_t>(i), 0),
                  model.ScorePair(e, us[i], vs[i], ts[i], store), 1e-5);
    }
  }
}

TEST(SimpleHgnTest, GradientsFlowToEveryParameterGroup) {
  graph::HeteroGraph g = MakeTinyDblp();
  SimpleHgn model = MakeModel(g, SmallConfig());
  tensor::ParameterStore store;
  core::Rng rng(7);
  model.InitParameters(&store, &rng);
  const MpStructure mp = model.BuildStructure(g);

  store.ZeroGrads();
  tensor::Graph tape(true);
  tensor::Var emb = model.Encode(&tape, g, mp, &store);
  // Stride across the edge list so every edge type appears in the batch
  // (the generator emits edges grouped by type).
  std::vector<int32_t> us, vs, ts;
  const int64_t stride = std::max<int64_t>(1, g.num_edges() / 64);
  for (graph::EdgeId e = 0; e < g.num_edges(); e += stride) {
    us.push_back(g.edge_src(e));
    vs.push_back(g.edge_dst(e));
    ts.push_back(g.edge_type(e));
  }
  tensor::Var logits = model.ScorePairs(&tape, emb, us, vs, ts, &store);
  tensor::Tensor labels(static_cast<int64_t>(us.size()), 1);
  labels.Fill(1.0f);
  tape.Backward(tensor::BceWithLogits(&tape, logits, labels));

  int groups_with_grad = 0;
  for (int i = 0; i < store.num_groups(); ++i) {
    if (store.grad(i).AbsMean() > 0.0) ++groups_with_grad;
  }
  // Every group should receive gradient except possibly DistMult relations
  // of edge types absent from the batch.
  EXPECT_GE(groups_with_grad, store.num_groups() - 3);
}

TEST(SimpleHgnTest, DotDecoderRegistersNoRelations) {
  graph::HeteroGraph g = MakeTinyDblp();
  SimpleHgnConfig config = SmallConfig();
  config.decoder = DecoderKind::kDot;
  SimpleHgn model = MakeModel(g, config);
  tensor::ParameterStore store;
  core::Rng rng(8);
  model.InitParameters(&store, &rng);
  EXPECT_EQ(store.FindByName("decoder/rel/author-author"), -1);
  // Disentangled set shrinks to the per-layer edge embeddings.
  EXPECT_EQ(store.DisentangledGroups().size(), 2u);
}

}  // namespace
}  // namespace fedda::hgn
