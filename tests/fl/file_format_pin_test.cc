// The bytes of every file format the system saves, pinned by length and
// FNV-1a hash: a model checkpoint, a graph file and an activation state at
// both granularities. Generated once, before the file encoders moved onto
// the in-memory byte codec, and never regenerated: a file written by one
// build must load in the next, so an encoder change that moves any byte
// fails here.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "fl/activation.h"
#include "graph/graph_io.h"
#include "graph/hetero_graph.h"
#include "net/transport.h"
#include "tensor/checkpoint.h"
#include "tensor/parameter_store.h"

namespace fedda {
namespace {

using tensor::ParameterStore;
using tensor::Tensor;

/// Six groups: dense and disentangled, with and without an edge type, and
/// one of zero size. 15 + 14 + 3 + 0 + 4 + 25 = 61 scalars, 42 of them in
/// disentangled groups.
ParameterStore PinStore() {
  core::Rng rng(2025);
  ParameterStore store;
  store.Register("enc/W", Tensor::RandomNormal(3, 5, &rng));
  store.Register("enc/edge_emb", Tensor::RandomNormal(2, 7, &rng),
                 /*disentangled=*/true);
  store.Register("dec/rel/writes", Tensor::RandomNormal(1, 3, &rng),
                 /*disentangled=*/true, /*edge_type=*/0);
  store.Register("empty", Tensor::Zeros(0, 4));
  store.Register("enc/bias", Tensor::RandomNormal(1, 4, &rng));
  store.Register("dec/rel/cites", Tensor::RandomNormal(5, 5, &rng),
                 /*disentangled=*/true, /*edge_type=*/1);
  return store;
}

/// Three node types (one without features) interleaved in id order, and
/// three edge types, one of them a self-relation.
graph::HeteroGraph PinGraph() {
  core::Rng rng(2026);
  graph::HeteroGraphBuilder builder;
  const graph::NodeTypeId paper = builder.AddNodeType("paper", 4);
  const graph::NodeTypeId author = builder.AddNodeType("author", 3);
  const graph::NodeTypeId venue = builder.AddNodeType("venue", 0);
  const graph::EdgeTypeId writes =
      builder.AddEdgeType("writes", author, paper);
  const graph::EdgeTypeId cites = builder.AddEdgeType("cites", paper, paper);
  const graph::EdgeTypeId published =
      builder.AddEdgeType("published_in", paper, venue);
  std::vector<graph::NodeId> by_type[3];
  const graph::NodeTypeId types[3] = {paper, author, venue};
  for (int v = 0; v < 60; ++v) {
    // One node of each type first, then types drawn at random.
    const size_t t = v < 3 ? static_cast<size_t>(v) : rng.UniformInt(3u);
    by_type[t].push_back(builder.AddNode(types[t]));
  }
  auto pick = [&rng](const std::vector<graph::NodeId>& nodes) {
    return nodes[rng.UniformInt(static_cast<uint64_t>(nodes.size()))];
  };
  for (int e = 0; e < 150; ++e) {
    switch (e % 3) {
      case 0:
        builder.AddEdge(pick(by_type[1]), pick(by_type[0]), writes);
        break;
      case 1:
        builder.AddEdge(pick(by_type[0]), pick(by_type[0]), cites);
        break;
      default:
        builder.AddEdge(pick(by_type[0]), pick(by_type[2]), published);
        break;
    }
  }
  builder.SetFeatures(
      paper, Tensor::RandomNormal(
                 static_cast<int64_t>(by_type[0].size()), 4, &rng));
  builder.SetFeatures(
      author, Tensor::RandomNormal(
                  static_cast<int64_t>(by_type[1].size()), 3, &rng));
  return builder.Build();
}

/// Five clients with distinct masks (partial mask bytes at scalar
/// granularity) and two of them deactivated.
fl::ActivationState PinActivation(const ParameterStore& store,
                                  fl::ActivationGranularity granularity) {
  fl::ActivationOptions options;
  options.granularity = granularity;
  options.alpha = 0.375;
  options.threshold_rule = fl::ThresholdRule::kPercentile;
  options.threshold_percentile = 0.625;
  fl::ActivationState state(5, store, options);
  core::Rng rng(2027);
  for (int c = 0; c < 5; ++c) {
    std::vector<uint8_t> mask(static_cast<size_t>(state.num_units()));
    for (uint8_t& bit : mask) bit = static_cast<uint8_t>(rng.UniformInt(2u));
    state.SetClientMask(c, mask);
  }
  state.DeactivateClient(1);
  state.DeactivateClient(4);
  return state;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class FileFormatPinTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  void ExpectPinned(size_t size, uint64_t hash) {
    const std::string bytes = FileBytes(path_);
    EXPECT_EQ(bytes.size(), size);
    EXPECT_EQ(net::Fingerprint64(bytes), hash);
  }

  std::string path_ = ::testing::TempDir() + "/fedda_file_format_pin.bin";
};

TEST_F(FileFormatPinTest, CheckpointBytesArePinned) {
  ASSERT_TRUE(tensor::SaveCheckpoint(PinStore(), path_).ok());
  ExpectPinned(505, 7607971287871714981ull);
}

TEST_F(FileFormatPinTest, GraphBytesArePinned) {
  ASSERT_TRUE(graph::SaveGraph(PinGraph(), path_).ok());
  ExpectPinned(2779, 15364401761101824309ull);
}

TEST_F(FileFormatPinTest, TensorActivationBytesArePinned) {
  const ParameterStore store = PinStore();
  ASSERT_TRUE(
      PinActivation(store, fl::ActivationGranularity::kTensor).Save(path_)
          .ok());
  ExpectPinned(50, 10134624664952794104ull);
}

TEST_F(FileFormatPinTest, ScalarActivationBytesArePinned) {
  const ParameterStore store = PinStore();
  ASSERT_TRUE(
      PinActivation(store, fl::ActivationGranularity::kScalar).Save(path_)
          .ok());
  ExpectPinned(75, 15795384770999440178ull);
}

}  // namespace
}  // namespace fedda
