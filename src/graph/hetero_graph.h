#ifndef FEDDA_GRAPH_HETERO_GRAPH_H_
#define FEDDA_GRAPH_HETERO_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace fedda::graph {

using NodeId = int32_t;
using EdgeId = int64_t;
using NodeTypeId = int16_t;
using EdgeTypeId = int16_t;
/// Most node types, and most edge types, one graph may declare: the largest
/// count that fits the 16-bit id types, as the builder's bounds checks cast
/// the count to them.
inline constexpr size_t kMaxTypes = std::numeric_limits<NodeTypeId>::max();
static_assert(std::numeric_limits<EdgeTypeId>::max() == kMaxTypes);

/// Schema entry for one node type.
struct NodeTypeInfo {
  std::string name;
  int64_t feature_dim = 0;
};

/// Schema entry for one edge (link) type: endpoints are node types. All edge
/// types in this work are undirected relations stored once per edge; message
/// passing symmetrizes them (see hgn/simple_hgn.h).
struct EdgeTypeInfo {
  std::string name;
  NodeTypeId src_type = 0;
  NodeTypeId dst_type = 0;
};

class HeteroGraphBuilder;

/// Immutable heterogeneous graph: multi-typed nodes with per-type feature
/// matrices and multi-typed edges, following the paper's
/// H = {V, E, phi, psi, X} formulation.
///
/// Node ids are global (0..num_nodes) and shared across every subgraph built
/// from the same global graph (`SubgraphFromEdges`), which is what lets
/// federated clients hold aligned models without exchanging raw data. Feature
/// matrices are shared (refcounted) between a graph and its subgraphs.
class HeteroGraph {
 public:
  HeteroGraph() = default;

  // -- Schema ---------------------------------------------------------------
  int num_node_types() const { return static_cast<int>(node_types_.size()); }
  int num_edge_types() const { return static_cast<int>(edge_types_.size()); }
  const NodeTypeInfo& node_type_info(NodeTypeId t) const;
  const EdgeTypeInfo& edge_type_info(EdgeTypeId t) const;

  // -- Nodes ----------------------------------------------------------------
  int64_t num_nodes() const { return static_cast<int64_t>(node_type_.size()); }
  NodeTypeId node_type(NodeId v) const;
  /// Index of `v` within its type's feature matrix.
  int64_t type_local_index(NodeId v) const;
  /// Number of nodes of type `t`.
  int64_t num_nodes_of_type(NodeTypeId t) const;
  /// Global ids of all nodes of type `t` (ascending).
  const std::vector<NodeId>& nodes_of_type(NodeTypeId t) const;
  /// Feature matrix of node type `t`: (num_nodes_of_type(t) x feature_dim).
  const tensor::Tensor& features(NodeTypeId t) const;

  // -- Edges ----------------------------------------------------------------
  int64_t num_edges() const { return static_cast<int64_t>(edge_src_.size()); }
  NodeId edge_src(EdgeId e) const { return edge_src_[CheckEdge(e)]; }
  NodeId edge_dst(EdgeId e) const { return edge_dst_[CheckEdge(e)]; }
  EdgeTypeId edge_type(EdgeId e) const { return edge_etype_[CheckEdge(e)]; }
  const std::vector<NodeId>& edge_srcs() const { return edge_src_; }
  const std::vector<NodeId>& edge_dsts() const { return edge_dst_; }
  const std::vector<EdgeTypeId>& edge_types() const { return edge_etype_; }

  /// Edge ids of the given type.
  std::vector<EdgeId> EdgesOfType(EdgeTypeId t) const;
  /// Number of edges per type (size num_edge_types()).
  std::vector<int64_t> EdgeTypeCounts() const;
  /// Empirical edge-type distribution P(psi(e)) (sums to 1; all zeros for an
  /// edgeless graph). This is the P_i whose divergence across clients defines
  /// the paper's Non-IID setting.
  std::vector<double> EdgeTypeDistribution() const;

  /// Out-neighbors of `v` under the symmetrized view (each stored edge
  /// contributes both directions). Returns (neighbor, edge id) pairs.
  struct Neighbor {
    NodeId node;
    EdgeId edge;
  };
  const std::vector<Neighbor>& neighbors(NodeId v) const;

  /// True if an edge of type `t` exists between u and v in either direction.
  bool HasEdge(NodeId u, NodeId v, EdgeTypeId t) const;

  /// Graph with the same schema/nodes/features but only `edge_ids` edges.
  HeteroGraph SubgraphFromEdges(const std::vector<EdgeId>& edge_ids) const;

  /// Density per the paper's Table 1: num_edges / num_nodes^2.
  double Density() const;

 private:
  friend class HeteroGraphBuilder;

  size_t CheckEdge(EdgeId e) const {
    FEDDA_CHECK(e >= 0 && e < num_edges()) << "edge id out of range";
    return static_cast<size_t>(e);
  }

  void BuildAdjacency();

  std::vector<NodeTypeInfo> node_types_;
  std::vector<EdgeTypeInfo> edge_types_;

  std::vector<NodeTypeId> node_type_;
  std::vector<int64_t> type_local_index_;
  std::vector<std::vector<NodeId>> nodes_by_type_;
  std::shared_ptr<const std::vector<tensor::Tensor>> features_;

  std::vector<NodeId> edge_src_;
  std::vector<NodeId> edge_dst_;
  std::vector<EdgeTypeId> edge_etype_;

  std::vector<std::vector<Neighbor>> adjacency_;
};

/// Incremental constructor for HeteroGraph.
class HeteroGraphBuilder {
 public:
  HeteroGraphBuilder() = default;

  /// Declares a node type; returns its id. At most kMaxTypes node types.
  NodeTypeId AddNodeType(const std::string& name, int64_t feature_dim);
  /// Declares an edge type between two declared node types; returns its id.
  /// At most kMaxTypes edge types.
  EdgeTypeId AddEdgeType(const std::string& name, NodeTypeId src_type,
                         NodeTypeId dst_type);

  /// Adds one node of type `t`; returns its global id.
  NodeId AddNode(NodeTypeId t);
  /// Adds `count` nodes of type `t`; returns the first global id.
  NodeId AddNodes(NodeTypeId t, int64_t count);

  /// Adds an edge; endpoint types must match the edge type's schema.
  EdgeId AddEdge(NodeId u, NodeId v, EdgeTypeId t);

  /// Sets the feature matrix for node type `t`. Must be
  /// (num nodes of type t) x (declared feature_dim); call after all AddNode
  /// calls for that type.
  void SetFeatures(NodeTypeId t, tensor::Tensor features);

  int64_t num_nodes() const { return static_cast<int64_t>(node_type_.size()); }
  int64_t num_edges() const { return static_cast<int64_t>(edge_src_.size()); }

  /// Validates and produces the immutable graph. Node types without
  /// explicitly set features get zero feature matrices.
  HeteroGraph Build();

 private:
  std::vector<NodeTypeInfo> node_types_;
  std::vector<EdgeTypeInfo> edge_types_;
  std::vector<NodeTypeId> node_type_;
  std::vector<int64_t> type_counts_;
  std::vector<NodeId> edge_src_;
  std::vector<NodeId> edge_dst_;
  std::vector<EdgeTypeId> edge_etype_;
  std::vector<tensor::Tensor> features_;
  std::vector<bool> features_set_;
};

}  // namespace fedda::graph

#endif  // FEDDA_GRAPH_HETERO_GRAPH_H_
