#include "graph/graph_io.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "core/binary_io.h"
#include "data/generator.h"
#include "data/schema.h"

namespace fedda::graph {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::remove(bin_path_.c_str());
    std::remove(nodes_path_.c_str());
    std::remove(edges_path_.c_str());
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
  }

  std::string bin_path_ = ::testing::TempDir() + "/fedda_graph.bin";
  std::string nodes_path_ = ::testing::TempDir() + "/fedda_nodes.tsv";
  std::string edges_path_ = ::testing::TempDir() + "/fedda_edges.tsv";
};

TEST_F(GraphIoTest, BinaryRoundTripPreservesEverything) {
  core::Rng rng(5);
  const HeteroGraph original =
      data::GenerateGraph(data::DblpSpec(0.004), &rng);
  ASSERT_TRUE(SaveGraph(original, bin_path_).ok());

  HeteroGraph loaded;
  ASSERT_TRUE(LoadGraph(bin_path_, &loaded).ok());
  ASSERT_EQ(loaded.num_nodes(), original.num_nodes());
  ASSERT_EQ(loaded.num_edges(), original.num_edges());
  ASSERT_EQ(loaded.num_node_types(), original.num_node_types());
  ASSERT_EQ(loaded.num_edge_types(), original.num_edge_types());
  for (NodeTypeId t = 0; t < original.num_node_types(); ++t) {
    EXPECT_EQ(loaded.node_type_info(t).name,
              original.node_type_info(t).name);
    EXPECT_TRUE(loaded.features(t).Equals(original.features(t)));
  }
  for (EdgeTypeId t = 0; t < original.num_edge_types(); ++t) {
    EXPECT_EQ(loaded.edge_type_info(t).name,
              original.edge_type_info(t).name);
    EXPECT_EQ(loaded.edge_type_info(t).src_type,
              original.edge_type_info(t).src_type);
  }
  for (NodeId v = 0; v < original.num_nodes(); ++v) {
    ASSERT_EQ(loaded.node_type(v), original.node_type(v));
  }
  for (EdgeId e = 0; e < original.num_edges(); ++e) {
    ASSERT_EQ(loaded.edge_src(e), original.edge_src(e));
    ASSERT_EQ(loaded.edge_dst(e), original.edge_dst(e));
    ASSERT_EQ(loaded.edge_type(e), original.edge_type(e));
  }
}

TEST_F(GraphIoTest, BinaryRejectsTrailingByte) {
  core::Rng rng(5);
  ASSERT_TRUE(
      SaveGraph(data::GenerateGraph(data::DblpSpec(0.004), &rng), bin_path_)
          .ok());
  std::ofstream(bin_path_, std::ios::binary | std::ios::app).put('\0');
  HeteroGraph graph;
  EXPECT_EQ(LoadGraph(bin_path_, &graph).code(),
            core::StatusCode::kInvalidArgument);
}

TEST_F(GraphIoTest, BinaryRejectsGarbage) {
  WriteFile(bin_path_, "garbage data, not a graph");
  HeteroGraph graph;
  EXPECT_FALSE(LoadGraph(bin_path_, &graph).ok());
}

// A node-type record declaring feature dim = node count = 2^31: the
// dim * count element total overflows int64 multiplication (UB) and would
// demand exabytes regardless; the reader must reject the block against the
// bytes actually in the file before multiplying or allocating.
TEST_F(GraphIoTest, BinaryRejectsFeatureBlockOverflow) {
  core::ByteWriter writer;
  writer.WriteU32(0xF3DDA6F2);  // magic
  writer.WriteU32(1);           // version
  writer.WriteU32(1);           // one node type
  writer.WriteString("paper");
  writer.WriteI64(int64_t{1} << 31);  // feature dim
  writer.WriteI64(int64_t{1} << 31);  // node count
  const std::vector<uint8_t> bytes = writer.Release();
  ASSERT_TRUE(core::WriteFile(bin_path_, bytes).ok());
  HeteroGraph graph;
  const core::Status status = LoadGraph(bin_path_, &graph);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("node feature block exceeds file"),
            std::string::npos)
      << status.ToString();
}

// An edge record whose endpoints are in-range node ids of the wrong types
// for the declared edge type used to reach the builder's
// endpoint-consistency FEDDA_CHECK — an abort from file bytes. It must be
// a Status.
TEST_F(GraphIoTest, BinaryRejectsEdgeEndpointTypeMismatch) {
  core::ByteWriter writer;
  writer.WriteU32(0xF3DDA6F2);  // magic
  writer.WriteU32(1);           // version
  writer.WriteU32(2);           // two node types, no features
  writer.WriteString("a");
  writer.WriteI64(0);
  writer.WriteI64(1);
  writer.WriteString("b");
  writer.WriteI64(0);
  writer.WriteI64(1);
  writer.WriteU32(1);  // one edge type: a -> b
  writer.WriteString("ab");
  writer.WriteU32(0);
  writer.WriteU32(1);
  writer.WriteI64(2);  // nodes: one of each type
  writer.WriteU32(0);
  writer.WriteU32(1);
  writer.WriteI64(1);  // one edge: b -> a under type a -> b
  writer.WriteU32(1);
  writer.WriteU32(0);
  writer.WriteU32(0);
  const std::vector<uint8_t> bytes = writer.Release();
  ASSERT_TRUE(core::WriteFile(bin_path_, bytes).ok());
  HeteroGraph graph;
  const core::Status status = LoadGraph(bin_path_, &graph);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("edge endpoints do not match edge type"),
            std::string::npos)
      << status.ToString();
}

// A graph file with `node_types` feature-less node types and `edge_types`
// edge types, all between the last node type and itself, one node of the
// last node type and (with any edge type) one self-loop of the last edge
// type.
std::vector<uint8_t> GraphWithTypeCounts(uint32_t node_types,
                                         uint32_t edge_types) {
  core::ByteWriter writer;
  writer.WriteU32(0xF3DDA6F2);  // magic
  writer.WriteU32(1);           // version
  writer.WriteU32(node_types);
  for (uint32_t t = 0; t < node_types; ++t) {
    writer.WriteString("");
    writer.WriteI64(0);                             // feature dim
    writer.WriteI64(t + 1 == node_types ? 1 : 0);  // node count
  }
  writer.WriteU32(edge_types);
  for (uint32_t t = 0; t < edge_types; ++t) {
    writer.WriteString("");
    writer.WriteU32(node_types - 1);
    writer.WriteU32(node_types - 1);
  }
  writer.WriteI64(1);  // one node
  writer.WriteU32(node_types - 1);
  writer.WriteI64(edge_types > 0 ? 1 : 0);
  if (edge_types > 0) {
    writer.WriteU32(0);
    writer.WriteU32(0);
    writer.WriteU32(edge_types - 1);
  }
  return writer.Release();
}

// Type ids are int16_t. A file with 32,768 node or edge types and one node
// or edge of the last type used to pass the loader and abort in the
// builder's bounds checks, which cast the type count to int16_t; 32,767
// still loads.
TEST_F(GraphIoTest, BinaryRejectsMoreThanInt16MaxTypes) {
  auto load = [this](uint32_t node_types, uint32_t edge_types) {
    EXPECT_TRUE(core::WriteFile(bin_path_,
                                GraphWithTypeCounts(node_types, edge_types))
                    .ok());
    HeteroGraph graph;
    return LoadGraph(bin_path_, &graph);
  };
  EXPECT_EQ(load(32768, 0).code(), core::StatusCode::kInvalidArgument);
  EXPECT_EQ(load(1, 32768).code(), core::StatusCode::kInvalidArgument);
  const core::Status at_max = load(32767, 32767);
  EXPECT_TRUE(at_max.ok()) << at_max.ToString();
}

// The TSV import numbers types on first use. The 32,769th node type name
// used to get id -32,768 and index a vector with it; 32,768 names already
// aborted in the builder. More than 32,767 node or edge types is an error.
TEST_F(GraphIoTest, TsvRejectsMoreThanInt16MaxTypes) {
  auto names = [](const char* prefix, int count, const char* suffix) {
    std::string text;
    for (int i = 0; i < count; ++i) {
      text += prefix + std::to_string(i) + suffix + "\n";
    }
    return text;
  };
  HeteroGraph graph;
  WriteFile(nodes_path_, names("n", 32768, ""));
  WriteFile(edges_path_, "");
  EXPECT_EQ(LoadGraphFromTsv(nodes_path_, edges_path_, &graph).code(),
            core::StatusCode::kInvalidArgument);
  WriteFile(nodes_path_, names("n", 32769, ""));
  EXPECT_EQ(LoadGraphFromTsv(nodes_path_, edges_path_, &graph).code(),
            core::StatusCode::kInvalidArgument);
  WriteFile(nodes_path_, "n\n");
  WriteFile(edges_path_, names("e", 32768, "\t0\t0"));
  EXPECT_EQ(LoadGraphFromTsv(nodes_path_, edges_path_, &graph).code(),
            core::StatusCode::kInvalidArgument);

  WriteFile(nodes_path_, names("n", 32767, ""));
  WriteFile(edges_path_, names("e", 32767, "\t32766\t32766"));
  const core::Status at_max =
      LoadGraphFromTsv(nodes_path_, edges_path_, &graph);
  ASSERT_TRUE(at_max.ok()) << at_max.ToString();
  EXPECT_EQ(graph.num_node_types(), 32767);
  EXPECT_EQ(graph.num_edge_types(), 32767);
}

TEST_F(GraphIoTest, TsvImportBuildsTypedGraph) {
  WriteFile(nodes_path_,
            "# node file: type<TAB>features...\n"
            "author\t0.1\t0.2\n"
            "author\t0.3\t0.4\n"
            "paper\t1.0\n"
            "paper\t2.0\n"
            "\n"
            "author\t0.5\t0.6\n");
  WriteFile(edges_path_,
            "# edge file: type<TAB>src<TAB>dst\n"
            "writes\t0\t2\n"
            "writes\t1\t3\n"
            "cites\t2\t3\n");
  HeteroGraph graph;
  ASSERT_TRUE(LoadGraphFromTsv(nodes_path_, edges_path_, &graph).ok());
  EXPECT_EQ(graph.num_nodes(), 5);
  EXPECT_EQ(graph.num_node_types(), 2);
  EXPECT_EQ(graph.num_edges(), 3);
  EXPECT_EQ(graph.num_edge_types(), 2);
  // Global node ids follow file order: 0,1 author; 2,3 paper; 4 author.
  EXPECT_EQ(graph.node_type(4), graph.node_type(0));
  EXPECT_EQ(graph.type_local_index(4), 2);
  // Author features: dim 2, third author row = (0.5, 0.6).
  EXPECT_FLOAT_EQ(graph.features(graph.node_type(0)).at(2, 0), 0.5f);
  EXPECT_EQ(graph.node_type_info(graph.node_type(2)).feature_dim, 1);
  EXPECT_EQ(graph.edge_type_info(graph.edge_type(0)).name, "writes");
}

TEST_F(GraphIoTest, TsvRejectsInconsistentFeatureCounts) {
  WriteFile(nodes_path_, "a\t1.0\t2.0\na\t3.0\n");
  WriteFile(edges_path_, "");
  HeteroGraph graph;
  const core::Status status =
      LoadGraphFromTsv(nodes_path_, edges_path_, &graph);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("feature count"), std::string::npos);
}

TEST_F(GraphIoTest, TsvRejectsBadEdgeRecords) {
  WriteFile(nodes_path_, "a\t1.0\na\t2.0\n");
  {
    WriteFile(edges_path_, "link\t0\n");
    HeteroGraph graph;
    EXPECT_FALSE(LoadGraphFromTsv(nodes_path_, edges_path_, &graph).ok());
  }
  {
    WriteFile(edges_path_, "link\t0\t7\n");
    HeteroGraph graph;
    EXPECT_EQ(LoadGraphFromTsv(nodes_path_, edges_path_, &graph).code(),
              core::StatusCode::kOutOfRange);
  }
  {
    WriteFile(edges_path_, "link\t0\tx\n");
    HeteroGraph graph;
    EXPECT_FALSE(LoadGraphFromTsv(nodes_path_, edges_path_, &graph).ok());
  }
}

TEST_F(GraphIoTest, TsvRejectsEndpointTypeDrift) {
  WriteFile(nodes_path_, "a\t1.0\na\t2.0\nb\t3.0\n");
  // First "link" is a-a, second tries a-b under the same type name.
  WriteFile(edges_path_, "link\t0\t1\nlink\t0\t2\n");
  HeteroGraph graph;
  const core::Status status =
      LoadGraphFromTsv(nodes_path_, edges_path_, &graph);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("endpoint"), std::string::npos);
}

TEST_F(GraphIoTest, TsvMissingFilesFail) {
  HeteroGraph graph;
  EXPECT_FALSE(
      LoadGraphFromTsv("/nonexistent_x/n.tsv", "/nonexistent_x/e.tsv", &graph)
          .ok());
}

TEST_F(GraphIoTest, SavedGraphUsableAfterLoad) {
  core::Rng rng(6);
  const HeteroGraph original =
      data::GenerateGraph(data::AmazonSpec(0.01), &rng);
  ASSERT_TRUE(SaveGraph(original, bin_path_).ok());
  HeteroGraph loaded;
  ASSERT_TRUE(LoadGraph(bin_path_, &loaded).ok());
  // Adjacency was rebuilt: neighbor queries work.
  EXPECT_EQ(loaded.neighbors(0).size(), original.neighbors(0).size());
  EXPECT_EQ(loaded.EdgeTypeDistribution(), original.EdgeTypeDistribution());
}

}  // namespace
}  // namespace fedda::graph
