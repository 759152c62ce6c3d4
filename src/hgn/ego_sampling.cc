#include "hgn/ego_sampling.h"

#include <unordered_map>
#include <unordered_set>

namespace fedda::hgn {

using graph::EdgeId;
using graph::NodeId;

EgoSubgraph SampleEgoSubgraph(const graph::HeteroGraph& graph,
                              const SimpleHgn& model,
                              const std::vector<NodeId>& targets, int hops,
                              int fanout, core::Rng* rng) {
  FEDDA_CHECK_GE(hops, 0);
  FEDDA_CHECK(rng != nullptr);
  EgoSubgraph sub;

  // BFS with per-node fanout caps. Insertion order defines local ids, so
  // targets occupy a contiguous prefix.
  std::unordered_map<NodeId, int32_t> local_of;
  local_of.reserve(targets.size() * 4);
  auto include = [&](NodeId v) -> int32_t {
    auto [it, inserted] =
        local_of.emplace(v, static_cast<int32_t>(sub.nodes.size()));
    if (inserted) sub.nodes.push_back(v);
    return it->second;
  };

  std::vector<NodeId> frontier;
  for (NodeId v : targets) {
    FEDDA_CHECK(v >= 0 && v < graph.num_nodes()) << "target out of range";
    sub.target_locals.push_back(include(v));
    frontier.push_back(v);
  }

  for (int hop = 0; hop < hops; ++hop) {
    std::vector<NodeId> next_frontier;
    for (NodeId v : frontier) {
      const auto& neighbors = graph.neighbors(v);
      const size_t degree = neighbors.size();
      if (fanout <= 0 || degree <= static_cast<size_t>(fanout)) {
        for (const auto& n : neighbors) {
          if (local_of.find(n.node) == local_of.end()) {
            include(n.node);
            next_frontier.push_back(n.node);
          }
        }
      } else {
        for (size_t idx : rng->SampleWithoutReplacement(
                 degree, static_cast<size_t>(fanout))) {
          const NodeId u = neighbors[idx].node;
          if (local_of.find(u) == local_of.end()) {
            include(u);
            next_frontier.push_back(u);
          }
        }
      }
    }
    frontier = std::move(next_frontier);
  }

  // Every graph edge internal to the sampled node set, in local ids and in
  // discovery order (found via the included nodes' adjacency, so the cost
  // is bounded by the subgraph's own degree mass, not the global edge
  // count). The model's structure rule builds the message-passing lists.
  std::vector<graph::NodeTypeId> node_types;
  node_types.reserve(sub.nodes.size());
  for (const NodeId v : sub.nodes) node_types.push_back(graph.node_type(v));
  std::vector<NodeId> srcs, dsts;
  std::vector<graph::EdgeTypeId> edge_types;
  std::unordered_set<EdgeId> seen_edges;
  for (const NodeId v : sub.nodes) {
    for (const auto& n : graph.neighbors(v)) {
      if (local_of.find(n.node) == local_of.end()) continue;
      if (!seen_edges.insert(n.edge).second) continue;
      srcs.push_back(local_of[graph.edge_src(n.edge)]);
      dsts.push_back(local_of[graph.edge_dst(n.edge)]);
      edge_types.push_back(graph.edge_type(n.edge));
    }
  }
  sub.mp = model.StructureFromEdges(node_types, srcs, dsts, edge_types);
  return sub;
}

std::vector<tensor::Tensor> GatherEgoFeatures(
    const graph::HeteroGraph& graph, const EgoSubgraph& sub) {
  std::vector<tensor::Tensor> blocks;
  // Count per type, then fill rows in local-node order (the order
  // SimpleHgn::StructureFromEdges ranks nodes within a type).
  std::vector<int64_t> counts(static_cast<size_t>(graph.num_node_types()), 0);
  for (NodeId v : sub.nodes) {
    counts[static_cast<size_t>(graph.node_type(v))]++;
  }
  for (graph::NodeTypeId t = 0; t < graph.num_node_types(); ++t) {
    blocks.emplace_back(counts[static_cast<size_t>(t)],
                        graph.node_type_info(t).feature_dim);
  }
  std::vector<int64_t> next_row(counts.size(), 0);
  for (NodeId v : sub.nodes) {
    const size_t t = static_cast<size_t>(graph.node_type(v));
    const tensor::Tensor& features = graph.features(
        static_cast<graph::NodeTypeId>(t));
    const int64_t src_row = graph.type_local_index(v);
    const int64_t dst_row = next_row[t]++;
    for (int64_t c = 0; c < features.cols(); ++c) {
      blocks[t].at(dst_row, c) = features.at(src_row, c);
    }
  }
  return blocks;
}

}  // namespace fedda::hgn
