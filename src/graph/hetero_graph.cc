#include "graph/hetero_graph.h"

#include <algorithm>

namespace fedda::graph {

const NodeTypeInfo& HeteroGraph::node_type_info(NodeTypeId t) const {
  FEDDA_CHECK(t >= 0 && t < num_node_types());
  return node_types_[static_cast<size_t>(t)];
}

const EdgeTypeInfo& HeteroGraph::edge_type_info(EdgeTypeId t) const {
  FEDDA_CHECK(t >= 0 && t < num_edge_types());
  return edge_types_[static_cast<size_t>(t)];
}

NodeTypeId HeteroGraph::node_type(NodeId v) const {
  FEDDA_CHECK(v >= 0 && v < num_nodes()) << "node id out of range";
  return node_type_[static_cast<size_t>(v)];
}

int64_t HeteroGraph::type_local_index(NodeId v) const {
  FEDDA_CHECK(v >= 0 && v < num_nodes()) << "node id out of range";
  return type_local_index_[static_cast<size_t>(v)];
}

int64_t HeteroGraph::num_nodes_of_type(NodeTypeId t) const {
  return static_cast<int64_t>(nodes_of_type(t).size());
}

const std::vector<NodeId>& HeteroGraph::nodes_of_type(NodeTypeId t) const {
  FEDDA_CHECK(t >= 0 && t < num_node_types());
  return nodes_by_type_[static_cast<size_t>(t)];
}

const tensor::Tensor& HeteroGraph::features(NodeTypeId t) const {
  FEDDA_CHECK(t >= 0 && t < num_node_types());
  FEDDA_CHECK(features_ != nullptr);
  return (*features_)[static_cast<size_t>(t)];
}

std::vector<EdgeId> HeteroGraph::EdgesOfType(EdgeTypeId t) const {
  FEDDA_CHECK(t >= 0 && t < num_edge_types());
  std::vector<EdgeId> out;
  for (EdgeId e = 0; e < num_edges(); ++e) {
    if (edge_etype_[static_cast<size_t>(e)] == t) out.push_back(e);
  }
  return out;
}

std::vector<int64_t> HeteroGraph::EdgeTypeCounts() const {
  std::vector<int64_t> counts(static_cast<size_t>(num_edge_types()), 0);
  for (EdgeTypeId t : edge_etype_) counts[static_cast<size_t>(t)]++;
  return counts;
}

std::vector<double> HeteroGraph::EdgeTypeDistribution() const {
  std::vector<double> dist(static_cast<size_t>(num_edge_types()), 0.0);
  if (num_edges() == 0) return dist;
  for (EdgeTypeId t : edge_etype_) dist[static_cast<size_t>(t)] += 1.0;
  for (auto& d : dist) d /= static_cast<double>(num_edges());
  return dist;
}

const std::vector<HeteroGraph::Neighbor>& HeteroGraph::neighbors(
    NodeId v) const {
  FEDDA_CHECK(v >= 0 && v < num_nodes()) << "node id out of range";
  return adjacency_[static_cast<size_t>(v)];
}

bool HeteroGraph::HasEdge(NodeId u, NodeId v, EdgeTypeId t) const {
  for (const Neighbor& n : neighbors(u)) {
    if (n.node == v && edge_type(n.edge) == t) return true;
  }
  return false;
}

HeteroGraph HeteroGraph::SubgraphFromEdges(
    const std::vector<EdgeId>& edge_ids) const {
  HeteroGraph sub;
  sub.node_types_ = node_types_;
  sub.edge_types_ = edge_types_;
  sub.node_type_ = node_type_;
  sub.type_local_index_ = type_local_index_;
  sub.nodes_by_type_ = nodes_by_type_;
  sub.features_ = features_;  // shared, immutable
  sub.edge_src_.reserve(edge_ids.size());
  sub.edge_dst_.reserve(edge_ids.size());
  sub.edge_etype_.reserve(edge_ids.size());
  for (EdgeId e : edge_ids) {
    const size_t i = CheckEdge(e);
    sub.edge_src_.push_back(edge_src_[i]);
    sub.edge_dst_.push_back(edge_dst_[i]);
    sub.edge_etype_.push_back(edge_etype_[i]);
  }
  sub.BuildAdjacency();
  return sub;
}

double HeteroGraph::Density() const {
  if (num_nodes() == 0) return 0.0;
  return static_cast<double>(num_edges()) /
         (static_cast<double>(num_nodes()) * static_cast<double>(num_nodes()));
}

void HeteroGraph::BuildAdjacency() {
  adjacency_.assign(static_cast<size_t>(num_nodes()), {});
  for (EdgeId e = 0; e < num_edges(); ++e) {
    const size_t i = static_cast<size_t>(e);
    const NodeId u = edge_src_[i], v = edge_dst_[i];
    adjacency_[static_cast<size_t>(u)].push_back(Neighbor{v, e});
    if (u != v) adjacency_[static_cast<size_t>(v)].push_back(Neighbor{u, e});
  }
}

NodeTypeId HeteroGraphBuilder::AddNodeType(const std::string& name,
                                           int64_t feature_dim) {
  FEDDA_CHECK_GE(feature_dim, 0);
  FEDDA_CHECK_LT(node_types_.size(), kMaxTypes) << "too many node types";
  node_types_.push_back(NodeTypeInfo{name, feature_dim});
  type_counts_.push_back(0);
  features_.emplace_back();
  features_set_.push_back(false);
  return static_cast<NodeTypeId>(node_types_.size() - 1);
}

EdgeTypeId HeteroGraphBuilder::AddEdgeType(const std::string& name,
                                           NodeTypeId src_type,
                                           NodeTypeId dst_type) {
  FEDDA_CHECK(src_type >= 0 &&
              src_type < static_cast<NodeTypeId>(node_types_.size()));
  FEDDA_CHECK(dst_type >= 0 &&
              dst_type < static_cast<NodeTypeId>(node_types_.size()));
  FEDDA_CHECK_LT(edge_types_.size(), kMaxTypes) << "too many edge types";
  edge_types_.push_back(EdgeTypeInfo{name, src_type, dst_type});
  return static_cast<EdgeTypeId>(edge_types_.size() - 1);
}

NodeId HeteroGraphBuilder::AddNode(NodeTypeId t) {
  FEDDA_CHECK(t >= 0 && t < static_cast<NodeTypeId>(node_types_.size()));
  node_type_.push_back(t);
  ++type_counts_[static_cast<size_t>(t)];
  return static_cast<NodeId>(node_type_.size() - 1);
}

NodeId HeteroGraphBuilder::AddNodes(NodeTypeId t, int64_t count) {
  FEDDA_CHECK_GT(count, 0);
  const NodeId first = AddNode(t);
  for (int64_t i = 1; i < count; ++i) AddNode(t);
  return first;
}

EdgeId HeteroGraphBuilder::AddEdge(NodeId u, NodeId v, EdgeTypeId t) {
  FEDDA_CHECK(t >= 0 && t < static_cast<EdgeTypeId>(edge_types_.size()));
  FEDDA_CHECK(u >= 0 && u < static_cast<NodeId>(node_type_.size()));
  FEDDA_CHECK(v >= 0 && v < static_cast<NodeId>(node_type_.size()));
  const EdgeTypeInfo& info = edge_types_[static_cast<size_t>(t)];
  FEDDA_CHECK_EQ(node_type_[static_cast<size_t>(u)], info.src_type);
  FEDDA_CHECK_EQ(node_type_[static_cast<size_t>(v)], info.dst_type);
  edge_src_.push_back(u);
  edge_dst_.push_back(v);
  edge_etype_.push_back(t);
  return static_cast<EdgeId>(edge_src_.size() - 1);
}

void HeteroGraphBuilder::SetFeatures(NodeTypeId t, tensor::Tensor features) {
  FEDDA_CHECK(t >= 0 && t < static_cast<NodeTypeId>(node_types_.size()));
  const size_t i = static_cast<size_t>(t);
  FEDDA_CHECK_EQ(features.rows(), type_counts_[i]);
  FEDDA_CHECK_EQ(features.cols(), node_types_[i].feature_dim);
  features_[i] = std::move(features);
  features_set_[i] = true;
}

HeteroGraph HeteroGraphBuilder::Build() {
  HeteroGraph g;
  g.node_types_ = node_types_;
  g.edge_types_ = edge_types_;
  g.node_type_ = node_type_;
  g.edge_src_ = edge_src_;
  g.edge_dst_ = edge_dst_;
  g.edge_etype_ = edge_etype_;

  g.type_local_index_.resize(node_type_.size());
  g.nodes_by_type_.assign(node_types_.size(), {});
  std::vector<int64_t> next_local(node_types_.size(), 0);
  for (size_t v = 0; v < node_type_.size(); ++v) {
    const size_t t = static_cast<size_t>(node_type_[v]);
    g.type_local_index_[v] = next_local[t]++;
    g.nodes_by_type_[t].push_back(static_cast<NodeId>(v));
  }

  auto feats = std::make_shared<std::vector<tensor::Tensor>>();
  feats->reserve(node_types_.size());
  for (size_t t = 0; t < node_types_.size(); ++t) {
    if (features_set_[t]) {
      feats->push_back(std::move(features_[t]));
    } else {
      feats->push_back(
          tensor::Tensor::Zeros(type_counts_[t], node_types_[t].feature_dim));
    }
  }
  g.features_ = std::move(feats);
  g.BuildAdjacency();
  return g;
}

}  // namespace fedda::graph
