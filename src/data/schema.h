#ifndef FEDDA_DATA_SCHEMA_H_
#define FEDDA_DATA_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

namespace fedda::data {

/// Specification of one node type in a synthetic heterograph.
struct NodeTypeSpec {
  std::string name;
  int64_t count = 0;
  int64_t feature_dim = 0;
};

/// Specification of one (undirected) edge type.
struct EdgeTypeSpec {
  std::string name;
  int src_type = 0;
  int dst_type = 0;
  int64_t count = 0;
  /// Degree skew: each endpoint is drawn with Zipf popularity, rank k
  /// weighing (k + 1)^-exponent, over a random permutation of its endpoint
  /// type's nodes (not over `count`), producing the heavy-tailed degree
  /// profiles of real co-purchase/citation graphs. 0 disables skew (uniform
  /// endpoints).
  double zipf_exponent = 1.0;
  /// Probability that an edge connects nodes of the same latent community,
  /// which couples structure to features and makes link prediction
  /// learnable (see generator.h).
  double homophily = 0.8;
};

/// A full synthetic heterograph specification.
struct SyntheticSpec {
  std::string name;
  std::vector<NodeTypeSpec> node_types;
  std::vector<EdgeTypeSpec> edge_types;
  /// Number of latent communities shared across node types.
  int num_communities = 8;
  /// Standard deviation of feature noise around the community centroid.
  double feature_noise = 0.6;
  /// When true (default), every edge type gets its own random pairing
  /// (involution) of communities and homophilous edges connect community c
  /// to pairing_t(c). Predicting type-t links then requires having trained
  /// on type-t edges — a model that only saw other types misreads the
  /// pairing — which reproduces the paper's large Global-vs-Local gap under
  /// Non-IID edge types. When false, all types share the identity pairing
  /// (community structure transfers freely across types).
  bool per_type_community_pairing = true;
};

/// The paper's Amazon heterograph schema (Fig. 4(a), Table 1): a single
/// `product` node type with `co-view` and `co-purchase` link types.
/// `scale` linearly scales node and edge counts; scale=1 approximates the
/// paper's sizes (10,099 nodes / 148,659 edges), the default bench scale is
/// ~0.1 for single-core runtimes.
SyntheticSpec AmazonSpec(double scale = 0.1);

/// The paper's DBLP subgraph schema (Fig. 4(b), Table 1): `author`,
/// `phrase`, and `year` node types with 5 link types (author collaboration,
/// author-phrase, author-year, phrase co-occurrence, phrase-year).
SyntheticSpec DblpSpec(double scale = 0.02);

}  // namespace fedda::data

#endif  // FEDDA_DATA_SCHEMA_H_
