#include "graph/hetero_graph.h"

#include <gtest/gtest.h>

namespace fedda::graph {
namespace {

/// Small two-type graph used across tests:
///   authors {0,1,2} (type A), papers {3,4} (type P)
///   writes: 0-3, 1-3, 2-4 ; cites: 3-4.
HeteroGraph MakeBibGraph() {
  HeteroGraphBuilder b;
  const NodeTypeId author = b.AddNodeType("author", 2);
  const NodeTypeId paper = b.AddNodeType("paper", 3);
  const EdgeTypeId writes = b.AddEdgeType("writes", author, paper);
  const EdgeTypeId cites = b.AddEdgeType("cites", paper, paper);
  b.AddNodes(author, 3);
  b.AddNodes(paper, 2);
  b.AddEdge(0, 3, writes);
  b.AddEdge(1, 3, writes);
  b.AddEdge(2, 4, writes);
  b.AddEdge(3, 4, cites);
  tensor::Tensor author_feats = tensor::Tensor::FromVector(
      3, 2, {1, 2, 3, 4, 5, 6});
  b.SetFeatures(author, author_feats);
  return b.Build();
}

TEST(HeteroGraphBuilderTest, CountsAndSchema) {
  HeteroGraph g = MakeBibGraph();
  EXPECT_EQ(g.num_nodes(), 5);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.num_node_types(), 2);
  EXPECT_EQ(g.num_edge_types(), 2);
  EXPECT_EQ(g.node_type_info(0).name, "author");
  EXPECT_EQ(g.node_type_info(1).feature_dim, 3);
  EXPECT_EQ(g.edge_type_info(0).name, "writes");
  EXPECT_EQ(g.edge_type_info(0).src_type, 0);
  EXPECT_EQ(g.edge_type_info(0).dst_type, 1);
}

TEST(HeteroGraphTest, NodeTypesAndLocalIndices) {
  HeteroGraph g = MakeBibGraph();
  EXPECT_EQ(g.node_type(0), 0);
  EXPECT_EQ(g.node_type(4), 1);
  EXPECT_EQ(g.type_local_index(0), 0);
  EXPECT_EQ(g.type_local_index(2), 2);
  EXPECT_EQ(g.type_local_index(3), 0);
  EXPECT_EQ(g.type_local_index(4), 1);
  EXPECT_EQ(g.num_nodes_of_type(0), 3);
  EXPECT_EQ(g.nodes_of_type(1), (std::vector<NodeId>{3, 4}));
}

TEST(HeteroGraphTest, FeaturesSetAndDefaulted) {
  HeteroGraph g = MakeBibGraph();
  EXPECT_EQ(g.features(0).at(2, 1), 6.0f);
  // Paper features were never set: zero matrix of declared shape.
  EXPECT_EQ(g.features(1).rows(), 2);
  EXPECT_EQ(g.features(1).cols(), 3);
  EXPECT_EQ(g.features(1).Sum(), 0.0);
}

TEST(HeteroGraphTest, EdgeAccessors) {
  HeteroGraph g = MakeBibGraph();
  EXPECT_EQ(g.edge_src(0), 0);
  EXPECT_EQ(g.edge_dst(0), 3);
  EXPECT_EQ(g.edge_type(3), 1);
  EXPECT_EQ(g.EdgesOfType(0), (std::vector<EdgeId>{0, 1, 2}));
  EXPECT_EQ(g.EdgeTypeCounts(), (std::vector<int64_t>{3, 1}));
}

TEST(HeteroGraphTest, EdgeTypeDistribution) {
  HeteroGraph g = MakeBibGraph();
  const std::vector<double> dist = g.EdgeTypeDistribution();
  EXPECT_DOUBLE_EQ(dist[0], 0.75);
  EXPECT_DOUBLE_EQ(dist[1], 0.25);
}

TEST(HeteroGraphTest, NeighborsAreSymmetrized) {
  HeteroGraph g = MakeBibGraph();
  // Node 3 (paper): incident to writes 0-3, 1-3 and cites 3-4.
  const auto& n3 = g.neighbors(3);
  EXPECT_EQ(n3.size(), 3u);
  // Node 0 (author) sees node 3 through edge 0.
  const auto& n0 = g.neighbors(0);
  ASSERT_EQ(n0.size(), 1u);
  EXPECT_EQ(n0[0].node, 3);
  EXPECT_EQ(n0[0].edge, 0);
}

TEST(HeteroGraphTest, HasEdgeChecksTypeAndBothDirections) {
  HeteroGraph g = MakeBibGraph();
  EXPECT_TRUE(g.HasEdge(0, 3, 0));
  EXPECT_TRUE(g.HasEdge(3, 0, 0));   // symmetrized
  EXPECT_FALSE(g.HasEdge(0, 3, 1));  // wrong type
  EXPECT_FALSE(g.HasEdge(0, 4, 0));  // absent
}

TEST(HeteroGraphTest, SubgraphKeepsNodesDropsEdges) {
  HeteroGraph g = MakeBibGraph();
  HeteroGraph sub = g.SubgraphFromEdges({1, 3});
  EXPECT_EQ(sub.num_nodes(), 5);
  EXPECT_EQ(sub.num_edges(), 2);
  // Edge ids renumbered by position.
  EXPECT_EQ(sub.edge_src(0), 1);
  EXPECT_EQ(sub.edge_type(1), 1);
  // Features shared with the parent.
  EXPECT_EQ(sub.features(0).at(0, 0), 1.0f);
  // Parent untouched.
  EXPECT_EQ(g.num_edges(), 4);
}

TEST(HeteroGraphTest, SubgraphAdjacencyRebuilt) {
  HeteroGraph g = MakeBibGraph();
  HeteroGraph sub = g.SubgraphFromEdges({3});
  EXPECT_TRUE(sub.neighbors(0).empty());
  EXPECT_EQ(sub.neighbors(3).size(), 1u);
  EXPECT_FALSE(sub.HasEdge(0, 3, 0));
  EXPECT_TRUE(sub.HasEdge(3, 4, 1));
}

TEST(HeteroGraphTest, EmptySubgraph) {
  HeteroGraph g = MakeBibGraph();
  HeteroGraph sub = g.SubgraphFromEdges({});
  EXPECT_EQ(sub.num_edges(), 0);
  EXPECT_EQ(sub.num_nodes(), 5);
  const std::vector<double> dist = sub.EdgeTypeDistribution();
  EXPECT_EQ(dist[0], 0.0);
}

TEST(HeteroGraphTest, DensityMatchesDefinition) {
  HeteroGraph g = MakeBibGraph();
  EXPECT_DOUBLE_EQ(g.Density(), 4.0 / 25.0);
}

TEST(HeteroGraphBuilderDeathTest, EndpointTypeMismatchAborts) {
  HeteroGraphBuilder b;
  const NodeTypeId a = b.AddNodeType("a", 1);
  const NodeTypeId p = b.AddNodeType("p", 1);
  const EdgeTypeId t = b.AddEdgeType("ap", a, p);
  b.AddNode(a);
  b.AddNode(p);
  EXPECT_DEATH(b.AddEdge(1, 0, t), "");  // p -> a under an a -> p type
}

TEST(HeteroGraphBuilderDeathTest, FeatureShapeMismatchAborts) {
  HeteroGraphBuilder b;
  const NodeTypeId a = b.AddNodeType("a", 2);
  b.AddNodes(a, 3);
  EXPECT_DEATH(b.SetFeatures(a, tensor::Tensor::Zeros(2, 2)), "");
  EXPECT_DEATH(b.SetFeatures(a, tensor::Tensor::Zeros(3, 1)), "");
}

TEST(HeteroGraphBuilderDeathTest, TypeDeclarationPastTheCapAborts) {
  // 32,767 types of each kind get ids 0..32766, NodeTypeId's and
  // EdgeTypeId's range; the next declaration has no id to take.
  constexpr int kDeclarable = 32767;
  HeteroGraphBuilder nodes;
  for (int t = 0; t < kDeclarable; ++t) nodes.AddNodeType("n", 0);
  EXPECT_DEATH(nodes.AddNodeType("n", 0), "too many node types");

  HeteroGraphBuilder edges;
  const NodeTypeId a = edges.AddNodeType("a", 0);
  for (int t = 0; t < kDeclarable; ++t) edges.AddEdgeType("e", a, a);
  EXPECT_DEATH(edges.AddEdgeType("e", a, a), "too many edge types");
}

TEST(HeteroGraphDeathTest, BadIdsAbort) {
  HeteroGraph g = MakeBibGraph();
  EXPECT_DEATH(g.node_type(5), "out of range");
  EXPECT_DEATH(g.edge_src(4), "out of range");
  EXPECT_DEATH(g.SubgraphFromEdges({9}), "out of range");
}

TEST(HeteroGraphTest, SelfLoopAppearsOnceInAdjacency) {
  HeteroGraphBuilder b;
  const NodeTypeId t = b.AddNodeType("n", 1);
  const EdgeTypeId e = b.AddEdgeType("self", t, t);
  b.AddNodes(t, 2);
  b.AddEdge(0, 0, e);
  HeteroGraph g = b.Build();
  EXPECT_EQ(g.neighbors(0).size(), 1u);
}

}  // namespace
}  // namespace fedda::graph
