#ifndef FEDDA_HGN_SIMPLE_HGN_H_
#define FEDDA_HGN_SIMPLE_HGN_H_

#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "graph/hetero_graph.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "tensor/parameter_store.h"

namespace fedda::hgn {

/// Link-prediction score function (paper Sec. 5.1.1: dot product or
/// DistMult, whichever suits the dataset).
enum class DecoderKind { kDot, kDistMult };

/// Hyper-parameters of Simple-HGN (Lv et al., KDD'21) as used by the paper:
/// a three-layer, three-head GAT extended with learnable edge-type
/// embeddings in the attention, pre-activation residual connections, and L2
/// normalization of the final output. The residuals, the L2 normalization
/// and one self loop per node are the fixed architecture.
struct SimpleHgnConfig {
  int num_layers = 3;
  int num_heads = 3;
  /// Per-head output dimension; also the final embedding dimension.
  int hidden_dim = 32;
  /// Dimension of the learnable edge-type embeddings r_psi.
  int edge_emb_dim = 16;
  /// Simple-HGN's defining enhancement over GAT: include learnable
  /// edge-type embeddings in the attention logits. Disabling this (and
  /// keeping everything else) yields the vanilla multi-head GAT baseline the
  /// Simple-HGN paper compares against — no edge-type embedding tables, W_r
  /// transforms, or a_edge vectors are registered.
  bool use_edge_type_attention = true;
  DecoderKind decoder = DecoderKind::kDistMult;
};

/// Symmetrized message-passing lists for one graph: each stored (undirected)
/// edge contributes both directions, plus one self loop per node under a
/// dedicated edge type id (== num_edge_types). Built once per graph (or per
/// ego subgraph) by SimpleHgn::StructureFromEdges.
struct MpStructure {
  std::shared_ptr<const std::vector<int32_t>> src;
  std::shared_ptr<const std::vector<int32_t>> dst;
  std::shared_ptr<const std::vector<int32_t>> etype;
  /// Permutation assembling per-type feature blocks into node order: row v
  /// of the node matrix is block_offset[type(v)] + (v's rank within its
  /// type, in node order).
  std::shared_ptr<const std::vector<int32_t>> node_perm;
  int64_t num_nodes = 0;
};

/// The Simple-HGN encoder/decoder with parameters held externally in a
/// `ParameterStore`, which is what makes it federable: the server and every
/// client own structurally identical stores and share one immutable
/// SimpleHgn instance describing the computation.
///
/// Parameter groups (and the order they are registered) follow the paper's
/// accounting — for the DBLP schema (3 node types, 5 edge types, 3 layers,
/// 3 heads, DistMult) this yields exactly 65 groups, matching Table 3's
/// 65 transmitted parameters per client-round under FedAvg. Groups in the
/// disentangled set [N_d] (edge-type embeddings and DistMult relations) are
/// flagged for FedDA's per-parameter activation.
class SimpleHgn {
 public:
  /// `feature_dims[t]` is the input feature dimension of node type t;
  /// `edge_type_names` supplies decoder relation names (size = number of
  /// real edge types, excluding the synthetic self-loop type).
  SimpleHgn(std::vector<int64_t> feature_dims,
            std::vector<std::string> node_type_names,
            std::vector<std::string> edge_type_names, SimpleHgnConfig config);

  /// Registers all parameter groups into an empty store with Glorot/normal
  /// initialization. The group list and every group id are fixed at
  /// construction, so stores from different calls (e.g. one per experiment
  /// run with a fresh seed) are structurally identical and interoperable,
  /// and concurrent calls on one model are safe.
  void InitParameters(tensor::ParameterStore* store, core::Rng* rng) const;

  /// Builds the message-passing structure for `graph` (which must follow
  /// this model's schema): StructureFromEdges over every node and edge.
  MpStructure BuildStructure(const graph::HeteroGraph& graph) const;

  /// The message-passing rule, over nodes 0..node_types.size() (node v has
  /// type node_types[v]) and edges (srcs[i], dsts[i], edge_types[i]) in that
  /// order: each edge runs both ways (a self-edge once), then every node
  /// gets one self loop under edge type num_edge_types(), and node_perm
  /// orders the rows by type block. BuildStructure and SampleEgoSubgraph
  /// (hgn/ego_sampling.h) both build through it.
  MpStructure StructureFromEdges(
      const std::vector<graph::NodeTypeId>& node_types,
      const std::vector<graph::NodeId>& srcs,
      const std::vector<graph::NodeId>& dsts,
      const std::vector<graph::EdgeTypeId>& edge_types) const;

  /// Encodes every node: returns a (num_nodes x hidden_dim) Var of L2
  /// normalized embeddings.
  tensor::Var Encode(tensor::Graph* g, const graph::HeteroGraph& graph,
                     const MpStructure& mp,
                     tensor::ParameterStore* store) const;

  /// Generic encoding over explicit per-type feature blocks: block t holds
  /// the input features of the encoded nodes of type t, and `mp.node_perm`
  /// maps each encoded node to its row in the vertical concatenation of the
  /// blocks. `Encode` is this with the graph's full feature matrices; the
  /// ego-graph path (hgn/ego_sampling.h) passes gathered sub-blocks.
  tensor::Var EncodeBlocks(
      tensor::Graph* g,
      const std::vector<const tensor::Tensor*>& type_features,
      const MpStructure& mp, tensor::ParameterStore* store) const;

  /// Differentiable link scores (logits) for node pairs, used in training.
  tensor::Var ScorePairs(tensor::Graph* g, tensor::Var node_embeddings,
                         const std::vector<int32_t>& us,
                         const std::vector<int32_t>& vs,
                         const std::vector<int32_t>& edge_types,
                         tensor::ParameterStore* store) const;

  /// Non-differentiable score for one pair from concrete embeddings
  /// (evaluation fast path).
  double ScorePair(const tensor::Tensor& embeddings, int32_t u, int32_t v,
                   int32_t edge_type,
                   const tensor::ParameterStore& store) const;

  const SimpleHgnConfig& config() const { return config_; }
  int out_dim() const { return config_.hidden_dim; }
  /// Real edge types; the self loops' type id is this count.
  int num_edge_types() const {
    return static_cast<int>(edge_type_names_.size());
  }
  /// Input dimension of layer `l` (head outputs concatenate between layers).
  int64_t LayerInputDim(int l) const;

 private:
  /// One parameter group InitParameters registers.
  struct GroupSpec {
    std::string name;
    int64_t rows = 0;
    int64_t cols = 0;
    /// RandomNormal(mean, stddev) when true, GlorotUniform otherwise.
    bool normal = false;
    float mean = 0.0f;
    float stddev = 0.0f;
    bool disentangled = false;
    int edge_type = -1;
  };

  struct HeadIds {
    int w = -1;
    int w_res = -1;
    int w_r = -1;
    int a_src = -1;
    int a_dst = -1;
    int a_edge = -1;
  };

  std::vector<int64_t> feature_dims_;
  std::vector<std::string> node_type_names_;
  std::vector<std::string> edge_type_names_;
  SimpleHgnConfig config_;

  /// Every group in registration order; its index is its group id.
  std::vector<GroupSpec> groups_;
  std::vector<int> input_proj_ids_;
  std::vector<int> edge_emb_ids_;              // per layer
  std::vector<std::vector<HeadIds>> head_ids_; // [layer][head]
  std::vector<int> decoder_rel_ids_;           // per real edge type (DistMult)
};

}  // namespace fedda::hgn

#endif  // FEDDA_HGN_SIMPLE_HGN_H_
