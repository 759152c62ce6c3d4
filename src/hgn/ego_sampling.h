#ifndef FEDDA_HGN_EGO_SAMPLING_H_
#define FEDDA_HGN_EGO_SAMPLING_H_

#include <vector>

#include "core/rng.h"
#include "graph/hetero_graph.h"
#include "hgn/simple_hgn.h"

namespace fedda::hgn {

/// A k-hop sampled neighborhood (the union of the targets' ego-graphs, the
/// paper's H_i(v)) re-indexed to a compact local node space, ready for
/// encoding. This is the standard GraphSAGE-style route to graphs too large
/// for full-graph message passing: per batch, only O(targets * fanout^hops)
/// nodes are touched.
struct EgoSubgraph {
  /// Global ids of the included nodes; position = local id.
  std::vector<graph::NodeId> nodes;
  /// Local ids of the requested targets, aligned with the `targets` input.
  std::vector<int32_t> target_locals;
  /// Message-passing lists in local indices, built by the model's
  /// structure rule (SimpleHgn::StructureFromEdges).
  MpStructure mp;
};

/// Samples the union of `hops`-hop neighborhoods around `targets`,
/// keeping at most `fanout` sampled neighbors per node per hop
/// (fanout <= 0 keeps all neighbors). Every edge of `graph` whose both
/// endpoints were included is part of the message-passing lists.
EgoSubgraph SampleEgoSubgraph(const graph::HeteroGraph& graph,
                              const SimpleHgn& model,
                              const std::vector<graph::NodeId>& targets,
                              int hops, int fanout, core::Rng* rng);

/// Extracts the per-type input-feature blocks of the sampled nodes, in the
/// row order expected by `EgoSubgraph::mp.node_perm`. Feed the result to
/// `SimpleHgn::EncodeBlocks` to embed the sampled nodes:
///
///   EgoSubgraph sub = SampleEgoSubgraph(graph, model, targets, 2, 10, &rng);
///   std::vector<tensor::Tensor> blocks = GatherEgoFeatures(graph, sub);
///   std::vector<const tensor::Tensor*> ptrs;
///   for (const auto& b : blocks) ptrs.push_back(&b);
///   tensor::Var emb = model.EncodeBlocks(&g, ptrs, sub.mp, &store);
///   // row sub.target_locals[i] of emb is targets[i]'s embedding.
std::vector<tensor::Tensor> GatherEgoFeatures(const graph::HeteroGraph& graph,
                                              const EgoSubgraph& sub);

}  // namespace fedda::hgn

#endif  // FEDDA_HGN_EGO_SAMPLING_H_
