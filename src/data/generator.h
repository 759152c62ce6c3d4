#ifndef FEDDA_DATA_GENERATOR_H_
#define FEDDA_DATA_GENERATOR_H_

#include "core/rng.h"
#include "data/schema.h"
#include "graph/hetero_graph.h"

namespace fedda::data {

/// Generates a synthetic heterograph from a `SyntheticSpec`.
///
/// The generative model is a degree-skewed stochastic block model on a
/// shared latent community space:
///   1. Every node is assigned a community c(v) in [num_communities].
///   2. Node features are its community centroid (drawn once per
///      (node type, community)) plus Gaussian noise — so features carry the
///      community signal a GNN can exploit.
///   3. For every edge type, endpoints are drawn with Zipf-skewed popularity
///      over a per-type random permutation; with probability `homophily`
///      the destination is re-drawn from the source's community. The
///      popularity table is built once per edge type (one
///      `core::DiscreteSampler` per endpoint side), so a draw costs
///      O(log n) in the endpoint type's node count n.
///   4. Duplicate edges and self loops are rejected.
///
/// This substitutes the paper's real Amazon/DBLP datasets (see DESIGN.md):
/// link prediction is learnable (community structure) and edge-type
/// distributions can be made Non-IID across clients by the partitioner.
graph::HeteroGraph GenerateGraph(const SyntheticSpec& spec, core::Rng* rng);

/// As GenerateGraph, additionally returning each node's latent community id
/// (indexed by global node id, in [0, spec.num_communities)). Communities
/// drive both features and link structure, so they double as ground-truth
/// labels for node classification.
graph::HeteroGraph GenerateGraphWithLabels(const SyntheticSpec& spec,
                                           core::Rng* rng,
                                           std::vector<int>* labels);

}  // namespace fedda::data

#endif  // FEDDA_DATA_GENERATOR_H_
