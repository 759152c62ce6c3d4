#include "data/generator.h"

#include <cmath>
#include <optional>
#include <unordered_set>

namespace fedda::data {

namespace {

using graph::NodeId;

/// 64-bit key for duplicate-edge rejection within one edge type.
uint64_t PairKey(NodeId a, NodeId b) {
  // Canonicalize order: edges are undirected relations.
  const uint64_t lo = static_cast<uint64_t>(std::min(a, b));
  const uint64_t hi = static_cast<uint64_t>(std::max(a, b));
  return (hi << 32) | lo;
}

/// Zipf popularity over n ranks: rank k weighs (k + 1)^-exponent.
std::vector<double> ZipfWeights(size_t n, double exponent) {
  std::vector<double> weights(n);
  for (size_t k = 0; k < n; ++k) weights[k] = std::pow(k + 1.0, -exponent);
  return weights;
}

}  // namespace

graph::HeteroGraph GenerateGraph(const SyntheticSpec& spec, core::Rng* rng) {
  return GenerateGraphWithLabels(spec, rng, nullptr);
}

graph::HeteroGraph GenerateGraphWithLabels(const SyntheticSpec& spec,
                                           core::Rng* rng,
                                           std::vector<int>* labels) {
  FEDDA_CHECK(!spec.node_types.empty());
  FEDDA_CHECK_GT(spec.num_communities, 0);

  graph::HeteroGraphBuilder builder;

  // Node types + nodes.
  std::vector<graph::NodeTypeId> type_ids;
  for (const NodeTypeSpec& nt : spec.node_types) {
    FEDDA_CHECK_GT(nt.count, 0);
    const graph::NodeTypeId t = builder.AddNodeType(nt.name, nt.feature_dim);
    builder.AddNodes(t, nt.count);
    type_ids.push_back(t);
  }

  // Community assignments: per type, each node gets a community.
  std::vector<std::vector<int>> community(spec.node_types.size());
  // Per (type, community): member list for homophilous destination draws.
  std::vector<std::vector<std::vector<int64_t>>> members(
      spec.node_types.size());
  for (size_t t = 0; t < spec.node_types.size(); ++t) {
    community[t].resize(static_cast<size_t>(spec.node_types[t].count));
    members[t].assign(static_cast<size_t>(spec.num_communities), {});
    for (int64_t v = 0; v < spec.node_types[t].count; ++v) {
      const int c = static_cast<int>(
          rng->UniformInt(static_cast<uint64_t>(spec.num_communities)));
      community[t][static_cast<size_t>(v)] = c;
      members[t][static_cast<size_t>(c)].push_back(v);
    }
  }

  // Ground-truth labels: communities by global node id (AddNodes assigned
  // ids sequentially type by type).
  if (labels != nullptr) {
    labels->clear();
    for (size_t t = 0; t < spec.node_types.size(); ++t) {
      labels->insert(labels->end(), community[t].begin(), community[t].end());
    }
  }

  // Features: centroid(type, community) + noise.
  for (size_t t = 0; t < spec.node_types.size(); ++t) {
    const NodeTypeSpec& nt = spec.node_types[t];
    tensor::Tensor centroids = tensor::Tensor::RandomNormal(
        spec.num_communities, nt.feature_dim, rng, 0.0f, 1.0f);
    tensor::Tensor feats(nt.count, nt.feature_dim);
    for (int64_t v = 0; v < nt.count; ++v) {
      const int c = community[t][static_cast<size_t>(v)];
      for (int64_t d = 0; d < nt.feature_dim; ++d) {
        feats.at(v, d) = centroids.at(c, d) +
                         static_cast<float>(rng->Gaussian(
                             0.0, spec.feature_noise));
      }
    }
    builder.SetFeatures(type_ids[t], std::move(feats));
  }

  // Offsets of each type's first global node id (AddNodes is sequential).
  std::vector<NodeId> type_offset(spec.node_types.size(), 0);
  {
    NodeId offset = 0;
    for (size_t t = 0; t < spec.node_types.size(); ++t) {
      type_offset[t] = offset;
      offset += static_cast<NodeId>(spec.node_types[t].count);
    }
  }

  // Per-edge-type community pairing (involution): homophilous type-t edges
  // connect community c to pairing[t][c]. A random perfect matching (last
  // community fixed when the count is odd) keeps the relation symmetric —
  // expressible by DistMult — while decoupling the link patterns of
  // different types (see SyntheticSpec::per_type_community_pairing).
  std::vector<std::vector<int>> pairing(spec.edge_types.size());
  for (size_t t = 0; t < spec.edge_types.size(); ++t) {
    std::vector<int> order(static_cast<size_t>(spec.num_communities));
    for (int c = 0; c < spec.num_communities; ++c) {
      order[static_cast<size_t>(c)] = c;
    }
    if (spec.per_type_community_pairing) rng->Shuffle(&order);
    pairing[t].resize(static_cast<size_t>(spec.num_communities));
    for (size_t i = 0; i + 1 < order.size(); i += 2) {
      if (spec.per_type_community_pairing) {
        pairing[t][static_cast<size_t>(order[i])] = order[i + 1];
        pairing[t][static_cast<size_t>(order[i + 1])] = order[i];
      } else {
        pairing[t][static_cast<size_t>(order[i])] = order[i];
        pairing[t][static_cast<size_t>(order[i + 1])] = order[i + 1];
      }
    }
    if (order.size() % 2 == 1) {
      pairing[t][static_cast<size_t>(order.back())] = order.back();
    }
  }

  // Edges.
  for (size_t type_index = 0; type_index < spec.edge_types.size();
       ++type_index) {
    const EdgeTypeSpec& et = spec.edge_types[type_index];
    FEDDA_CHECK(et.src_type >= 0 &&
                et.src_type < static_cast<int>(spec.node_types.size()));
    FEDDA_CHECK(et.dst_type >= 0 &&
                et.dst_type < static_cast<int>(spec.node_types.size()));
    const graph::EdgeTypeId etype = builder.AddEdgeType(
        et.name, type_ids[static_cast<size_t>(et.src_type)],
        type_ids[static_cast<size_t>(et.dst_type)]);

    const int64_t src_n = spec.node_types[static_cast<size_t>(et.src_type)].count;
    const int64_t dst_n = spec.node_types[static_cast<size_t>(et.dst_type)].count;

    // Zipf popularity over random permutations decouples popularity from id
    // order (otherwise low node ids would be hubs for every type).
    std::vector<int64_t> src_perm(static_cast<size_t>(src_n));
    std::vector<int64_t> dst_perm(static_cast<size_t>(dst_n));
    for (int64_t i = 0; i < src_n; ++i) src_perm[static_cast<size_t>(i)] = i;
    for (int64_t i = 0; i < dst_n; ++i) dst_perm[static_cast<size_t>(i)] = i;
    rng->Shuffle(&src_perm);
    rng->Shuffle(&dst_perm);

    // One popularity table per side, built once for the whole edge type.
    std::optional<core::DiscreteSampler> src_zipf;
    std::optional<core::DiscreteSampler> dst_zipf;
    if (et.zipf_exponent > 0.0) {
      src_zipf.emplace(ZipfWeights(src_perm.size(), et.zipf_exponent));
      dst_zipf.emplace(ZipfWeights(dst_perm.size(), et.zipf_exponent));
    }
    auto draw = [&](const std::vector<int64_t>& perm,
                    const std::optional<core::DiscreteSampler>& zipf) {
      if (!zipf) {
        return perm[rng->UniformInt(static_cast<uint64_t>(perm.size()))];
      }
      return perm[zipf->Sample(rng)];
    };

    std::unordered_set<uint64_t> seen;
    seen.reserve(static_cast<size_t>(et.count) * 2);
    const bool same_type = et.src_type == et.dst_type;
    int64_t added = 0;
    // Budgeted rejection loop: dense specs on tiny graphs may not admit
    // `count` distinct pairs; stop after a generous number of attempts.
    const int64_t max_attempts = et.count * 20;
    for (int64_t attempt = 0; attempt < max_attempts && added < et.count;
         ++attempt) {
      const int64_t u_local = draw(src_perm, src_zipf);
      int64_t v_local;
      if (rng->Bernoulli(et.homophily)) {
        const int c =
            community[static_cast<size_t>(et.src_type)][static_cast<size_t>(
                u_local)];
        const int paired = pairing[type_index][static_cast<size_t>(c)];
        const auto& pool = members[static_cast<size_t>(et.dst_type)]
                                  [static_cast<size_t>(paired)];
        if (pool.empty()) continue;
        v_local = pool[rng->UniformInt(static_cast<uint64_t>(pool.size()))];
      } else {
        v_local = draw(dst_perm, dst_zipf);
      }
      if (same_type && u_local == v_local) continue;
      const NodeId u =
          type_offset[static_cast<size_t>(et.src_type)] +
          static_cast<NodeId>(u_local);
      const NodeId v =
          type_offset[static_cast<size_t>(et.dst_type)] +
          static_cast<NodeId>(v_local);
      const uint64_t key = same_type
                               ? PairKey(u, v)
                               : ((static_cast<uint64_t>(u) << 32) |
                                  static_cast<uint64_t>(v));
      if (!seen.insert(key).second) continue;
      builder.AddEdge(u, v, etype);
      ++added;
    }
  }

  return builder.Build();
}

}  // namespace fedda::data
