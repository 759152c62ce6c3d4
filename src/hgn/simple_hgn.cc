#include "hgn/simple_hgn.h"

#include "core/string_util.h"
#include "obs/trace.h"

namespace fedda::hgn {

using tensor::Graph;
using tensor::ParameterStore;
using tensor::Tensor;
using tensor::Var;

namespace {

/// LeakyReLU slope in the attention logits (Simple-HGN's and GAT's 0.2).
constexpr float kAttentionNegativeSlope = 0.2f;

}  // namespace

SimpleHgn::SimpleHgn(std::vector<int64_t> feature_dims,
                     std::vector<std::string> node_type_names,
                     std::vector<std::string> edge_type_names,
                     SimpleHgnConfig config)
    : feature_dims_(std::move(feature_dims)),
      node_type_names_(std::move(node_type_names)),
      edge_type_names_(std::move(edge_type_names)),
      config_(config) {
  FEDDA_CHECK_EQ(feature_dims_.size(), node_type_names_.size());
  FEDDA_CHECK(!feature_dims_.empty());
  FEDDA_CHECK(!edge_type_names_.empty());
  FEDDA_CHECK_GT(config_.num_layers, 0);
  FEDDA_CHECK_GT(config_.num_heads, 0);
  FEDDA_CHECK_GT(config_.hidden_dim, 0);
  FEDDA_CHECK_GT(config_.edge_emb_dim, 0);

  // The group list InitParameters registers, in order: a group's index is
  // its id in every store InitParameters fills. Shared groups are
  // Glorot-uniform; the disentangled ones ([N_d]) are normal-initialized.
  const auto glorot = [this](std::string name, int64_t rows, int64_t cols) {
    groups_.push_back({std::move(name), rows, cols});
    return static_cast<int>(groups_.size()) - 1;
  };
  const auto disentangled = [this](std::string name, int64_t rows,
                                   int64_t cols, float mean, float stddev,
                                   int edge_type) {
    groups_.push_back({std::move(name), rows, cols, /*normal=*/true, mean,
                       stddev, /*disentangled=*/true, edge_type});
    return static_cast<int>(groups_.size()) - 1;
  };

  // 1. Per-node-type input projections onto the shared hidden space.
  for (size_t t = 0; t < feature_dims_.size(); ++t) {
    input_proj_ids_.push_back(glorot("input_proj/" + node_type_names_[t],
                                     feature_dims_[t], config_.hidden_dim));
  }

  // 2. Per-layer edge-type embedding tables (disentangled: rows are
  // attributable to individual edge types) and per-head attention weights.
  const bool attention = config_.use_attention;
  const bool edge_type_attention =
      attention && config_.use_edge_type_attention;
  head_ids_.resize(static_cast<size_t>(config_.num_layers));
  for (int l = 0; l < config_.num_layers; ++l) {
    if (edge_type_attention) {
      edge_emb_ids_.push_back(
          disentangled(core::StrFormat("layer%d/edge_emb", l),
                       num_mp_edge_types(), config_.edge_emb_dim, 0.0f, 0.5f,
                       /*edge_type=*/-1));
    }
    const int64_t d_in = LayerInputDim(l);
    for (int h = 0; h < config_.num_heads; ++h) {
      HeadIds ids;
      const std::string prefix = core::StrFormat("layer%d/head%d/", l, h);
      ids.w = glorot(prefix + "W", d_in, config_.hidden_dim);
      ids.w_res = glorot(prefix + "W_res", d_in, config_.hidden_dim);
      if (edge_type_attention) {
        ids.w_r = glorot(prefix + "W_r", config_.edge_emb_dim,
                         config_.hidden_dim);
      }
      if (attention) {
        ids.a_src = glorot(prefix + "a_src", config_.hidden_dim, 1);
        ids.a_dst = glorot(prefix + "a_dst", config_.hidden_dim, 1);
      }
      if (edge_type_attention) {
        ids.a_edge = glorot(prefix + "a_edge", config_.hidden_dim, 1);
      }
      head_ids_[static_cast<size_t>(l)].push_back(ids);
    }
  }

  // 3. DistMult relation vectors, one per real edge type (disentangled).
  // Initialized near one so the initial score approximates a dot product.
  if (config_.decoder == DecoderKind::kDistMult) {
    for (size_t t = 0; t < edge_type_names_.size(); ++t) {
      decoder_rel_ids_.push_back(
          disentangled("decoder/rel/" + edge_type_names_[t], 1,
                       config_.hidden_dim, 1.0f, 0.1f, static_cast<int>(t)));
    }
  }
}

int64_t SimpleHgn::LayerInputDim(int l) const {
  FEDDA_CHECK(l >= 0 && l < config_.num_layers);
  if (l == 0) return config_.hidden_dim;
  return static_cast<int64_t>(config_.hidden_dim) * config_.num_heads;
}

void SimpleHgn::InitParameters(ParameterStore* store, core::Rng* rng) const {
  FEDDA_CHECK_EQ(store->num_groups(), 0) << "store must be empty";
  for (const GroupSpec& spec : groups_) {
    Tensor init = spec.normal ? Tensor::RandomNormal(spec.rows, spec.cols, rng,
                                                     spec.mean, spec.stddev)
                              : Tensor::GlorotUniform(spec.rows, spec.cols,
                                                      rng);
    store->Register(spec.name, std::move(init), spec.disentangled,
                    spec.edge_type);
  }
}

MpStructure SimpleHgn::BuildStructure(const graph::HeteroGraph& graph) const {
  FEDDA_CHECK_EQ(graph.num_edge_types(),
                 static_cast<int>(edge_type_names_.size()));
  MpStructure mp;
  mp.num_nodes = graph.num_nodes();

  auto src = std::make_shared<std::vector<int32_t>>();
  auto dst = std::make_shared<std::vector<int32_t>>();
  auto ety = std::make_shared<std::vector<int32_t>>();
  const size_t reserve =
      static_cast<size_t>(graph.num_edges()) * 2 +
      (config_.add_self_loops ? static_cast<size_t>(graph.num_nodes()) : 0);
  src->reserve(reserve);
  dst->reserve(reserve);
  ety->reserve(reserve);

  for (graph::EdgeId e = 0; e < graph.num_edges(); ++e) {
    const int32_t u = graph.edge_src(e);
    const int32_t v = graph.edge_dst(e);
    const int32_t t = graph.edge_type(e);
    src->push_back(u);
    dst->push_back(v);
    ety->push_back(t);
    if (u != v) {
      src->push_back(v);
      dst->push_back(u);
      ety->push_back(t);
    }
  }
  if (config_.add_self_loops) {
    const int32_t self_type = static_cast<int32_t>(num_edge_types());
    for (int64_t v = 0; v < graph.num_nodes(); ++v) {
      src->push_back(static_cast<int32_t>(v));
      dst->push_back(static_cast<int32_t>(v));
      ety->push_back(self_type);
    }
  }
  mp.src = std::move(src);
  mp.dst = std::move(dst);
  mp.etype = std::move(ety);

  // Block offsets for per-type feature assembly.
  std::vector<int64_t> offsets(static_cast<size_t>(graph.num_node_types()),
                               0);
  int64_t acc = 0;
  for (graph::NodeTypeId t = 0; t < graph.num_node_types(); ++t) {
    offsets[static_cast<size_t>(t)] = acc;
    acc += graph.num_nodes_of_type(t);
  }
  auto perm = std::make_shared<std::vector<int32_t>>(
      static_cast<size_t>(graph.num_nodes()));
  for (int64_t v = 0; v < graph.num_nodes(); ++v) {
    const graph::NodeTypeId t = graph.node_type(static_cast<int32_t>(v));
    (*perm)[static_cast<size_t>(v)] = static_cast<int32_t>(
        offsets[static_cast<size_t>(t)] + graph.type_local_index(
                                              static_cast<int32_t>(v)));
  }
  mp.node_perm = std::move(perm);
  return mp;
}

Var SimpleHgn::Encode(Graph* g, const graph::HeteroGraph& graph,
                      const MpStructure& mp, ParameterStore* store,
                      core::Rng* dropout_rng) const {
  FEDDA_CHECK_EQ(mp.num_nodes, graph.num_nodes());
  std::vector<const Tensor*> type_features;
  type_features.reserve(static_cast<size_t>(graph.num_node_types()));
  for (graph::NodeTypeId t = 0; t < graph.num_node_types(); ++t) {
    type_features.push_back(&graph.features(t));
  }
  return EncodeBlocks(g, type_features, mp, store, dropout_rng);
}

Var SimpleHgn::EncodeBlocks(Graph* g,
                            const std::vector<const Tensor*>& type_features,
                            const MpStructure& mp, ParameterStore* store,
                            core::Rng* dropout_rng) const {
  obs::ScopedSpan encode_span(g->tracer(), "hgn-encode");
  FEDDA_CHECK_EQ(type_features.size(), input_proj_ids_.size());

  auto param = [&](int id) {
    return g->training() ? g->Leaf(store->value(id), &store->grad(id))
                         : g->Constant(store->value(id));
  };

  // Input projections per node type, assembled into encoded-node order.
  std::vector<Var> blocks;
  blocks.reserve(type_features.size());
  for (size_t t = 0; t < type_features.size(); ++t) {
    Var x = g->Constant(*type_features[t]);
    blocks.push_back(tensor::MatMul(g, x, param(input_proj_ids_[t])));
  }
  Var h = blocks.size() == 1 ? blocks[0] : tensor::ConcatRows(g, blocks);
  h = tensor::GatherRows(g, h, mp.node_perm);

  const int64_t n = mp.num_nodes;

  // Mean-aggregation mode: fixed alpha_e = 1 / indegree(dst(e)).
  Var uniform_alpha;
  if (!config_.use_attention) {
    std::vector<int64_t> indegree(static_cast<size_t>(n), 0);
    for (int32_t d : *mp.dst) indegree[static_cast<size_t>(d)]++;
    Tensor alpha(static_cast<int64_t>(mp.dst->size()), 1);
    for (size_t e = 0; e < mp.dst->size(); ++e) {
      alpha.data()[e] =
          1.0f / static_cast<float>(indegree[static_cast<size_t>(
                     (*mp.dst)[e])]);
    }
    uniform_alpha = g->Constant(std::move(alpha));
  }
  for (int l = 0; l < config_.num_layers; ++l) {
    if (config_.feat_dropout > 0.0f) {
      h = tensor::Dropout(g, h, config_.feat_dropout, dropout_rng);
    }
    Var edge_emb;
    if (config_.use_attention && config_.use_edge_type_attention) {
      edge_emb = param(edge_emb_ids_[static_cast<size_t>(l)]);
    }
    const bool last = l == config_.num_layers - 1;
    std::vector<Var> heads;
    heads.reserve(static_cast<size_t>(config_.num_heads));
    for (int head = 0; head < config_.num_heads; ++head) {
      const HeadIds& ids = head_ids_[static_cast<size_t>(l)]
                                    [static_cast<size_t>(head)];
      Var wh = tensor::MatMul(g, h, param(ids.w));

      Var alpha;
      if (config_.use_attention) {
        // Attention logits: a_src^T Wh_u + a_dst^T Wh_v (+ a_edge^T W_r r
        // when edge-type attention is on). Node- and type-level scores are
        // computed once; EdgeSoftmax reads them per edge.
        Var s_src = tensor::MatMul(g, wh, param(ids.a_src));
        Var s_dst = tensor::MatMul(g, wh, param(ids.a_dst));
        Var s_edge;
        if (config_.use_edge_type_attention) {
          Var re = tensor::MatMul(g, edge_emb, param(ids.w_r));
          s_edge = tensor::MatMul(g, re, param(ids.a_edge));
        }
        alpha = tensor::EdgeSoftmax(g, s_src, s_dst, s_edge, mp.src, mp.dst,
                                    mp.etype, kAttentionNegativeSlope, n);
        if (config_.attn_dropout > 0.0f) {
          alpha = tensor::Dropout(g, alpha, config_.attn_dropout,
                                  dropout_rng);
        }
      } else {
        alpha = uniform_alpha;
      }

      // Aggregate alpha-weighted messages at destinations (Eq. 3), with
      // pre-activation residual W_res h_u.
      Var aggregated = tensor::EdgeAggregate(g, wh, alpha, mp.src, mp.dst, n);
      if (config_.residual) {
        aggregated =
            tensor::Add(g, aggregated, tensor::MatMul(g, h, param(ids.w_res)));
      }
      heads.push_back(aggregated);
    }

    Var combined;
    if (last) {
      // Final layer averages heads.
      combined = heads[0];
      for (size_t i = 1; i < heads.size(); ++i) {
        combined = tensor::Add(g, combined, heads[i]);
      }
      combined =
          tensor::Scale(g, combined, 1.0f / static_cast<float>(heads.size()));
    } else {
      combined = heads.size() == 1 ? heads[0] : tensor::ConcatCols(g, heads);
    }
    h = tensor::Elu(g, combined);
    if (last && config_.l2_normalize) {
      h = tensor::RowL2Normalize(g, h);
    }
  }
  return h;
}

Var SimpleHgn::ScorePairs(Graph* g, Var node_embeddings,
                          const std::vector<int32_t>& us,
                          const std::vector<int32_t>& vs,
                          const std::vector<int32_t>& edge_types,
                          ParameterStore* store) const {
  FEDDA_CHECK_EQ(us.size(), vs.size());
  FEDDA_CHECK_EQ(us.size(), edge_types.size());
  auto u_idx = tensor::MakeIndices(std::vector<int32_t>(us));
  auto v_idx = tensor::MakeIndices(std::vector<int32_t>(vs));
  Var eu = tensor::GatherRows(g, node_embeddings, u_idx);
  Var ev = tensor::GatherRows(g, node_embeddings, v_idx);
  if (config_.decoder == DecoderKind::kDot) {
    return tensor::RowDot(g, eu, ev);
  }
  // DistMult: assemble the relation table from per-type leaf rows and
  // gather per pair.
  auto param = [&](int id) {
    return g->training() ? g->Leaf(store->value(id), &store->grad(id))
                         : g->Constant(store->value(id));
  };
  std::vector<Var> rel_rows;
  rel_rows.reserve(decoder_rel_ids_.size());
  for (int id : decoder_rel_ids_) rel_rows.push_back(param(id));
  Var rel_table = rel_rows.size() == 1 ? rel_rows[0]
                                       : tensor::ConcatRows(g, rel_rows);
  auto t_idx = tensor::MakeIndices(std::vector<int32_t>(edge_types));
  Var rel = tensor::GatherRows(g, rel_table, t_idx);
  return tensor::RowDot(g, tensor::Mul(g, eu, rel), ev);
}

double SimpleHgn::ScorePair(const Tensor& embeddings, int32_t u, int32_t v,
                            int32_t edge_type,
                            const ParameterStore& store) const {
  const int64_t d = embeddings.cols();
  double score = 0.0;
  if (config_.decoder == DecoderKind::kDot) {
    for (int64_t c = 0; c < d; ++c) {
      score += static_cast<double>(embeddings.at(u, c)) * embeddings.at(v, c);
    }
    return score;
  }
  FEDDA_CHECK(edge_type >= 0 &&
              edge_type < static_cast<int32_t>(decoder_rel_ids_.size()));
  const Tensor& rel =
      store.value(decoder_rel_ids_[static_cast<size_t>(edge_type)]);
  for (int64_t c = 0; c < d; ++c) {
    score += static_cast<double>(embeddings.at(u, c)) * rel.at(0, c) *
             embeddings.at(v, c);
  }
  return score;
}

}  // namespace fedda::hgn
