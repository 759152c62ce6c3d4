// What the synthetic graph generator produces, pinned by FNV-1a hash: every
// edge (src, dst, type) in id order, the bits of every node feature, and the
// generator RNG's next raw draw after the graph is built. Generated once,
// before the endpoint sampler's rewrite, and never regenerated: every golden
// and pin downstream trains on these graphs and continues this RNG stream
// (SplitEdges and PartitionClients draw from it next), so a generator change
// that moves one edge, one feature bit or one draw fails here first.

#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "data/generator.h"
#include "data/schema.h"
#include "graph/hetero_graph.h"

namespace fedda::data {
namespace {

/// 64-bit FNV-1a over raw bytes.
class Fnv1a {
 public:
  template <typename T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 0x100000001B3ULL;
    }
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

struct Pin {
  int64_t num_edges;
  uint64_t edge_hash;
  uint64_t feature_hash;
  uint64_t next_draw;
};

void ExpectPinned(const SyntheticSpec& spec, uint64_t seed, const Pin& pin) {
  core::Rng rng(seed);
  const graph::HeteroGraph g = GenerateGraph(spec, &rng);
  Fnv1a edges;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    edges.Add(g.edge_src(e));
    edges.Add(g.edge_dst(e));
    edges.Add(g.edge_type(e));
  }
  Fnv1a features;
  for (graph::NodeTypeId t = 0; t < g.num_node_types(); ++t) {
    const tensor::Tensor& f = g.features(t);
    for (int64_t i = 0; i < f.rows() * f.cols(); ++i) features.Add(f.data()[i]);
  }
  EXPECT_EQ(g.num_edges(), pin.num_edges);
  EXPECT_EQ(edges.hash(), pin.edge_hash);
  EXPECT_EQ(features.hash(), pin.feature_hash);
  EXPECT_EQ(rng.Next(), pin.next_draw);
}

TEST(GeneratorPinTest, DblpBenchDefault) {
  // bench::CommonFlags' DBLP system: scale 0.008, system seed 7.
  ExpectPinned(DblpSpec(0.008), 7,
               {15133, 9290403725929841574ull, 8112610167576587937ull,
                5429033806885129756ull});
}

TEST(GeneratorPinTest, AmazonUdsSystem) {
  // transport_demo's and perfbench uds-fedda-remote's system.
  ExpectPinned(AmazonSpec(0.012), 41,
               {1784, 10819092913877367689ull, 8309408390515780892ull,
                2911562897439064873ull});
}

TEST(GeneratorPinTest, DblpDefaultScale) {
  ExpectPinned(DblpSpec(0.02), 42,
               {37833, 9789885945612000219ull, 6125548362611861256ull,
                1249893279464955380ull});
}

TEST(GeneratorPinTest, UniformEndpointsWithoutSkew) {
  // zipf_exponent = 0 takes the UniformInt branch, which no preset uses.
  SyntheticSpec spec;
  spec.name = "uniform";
  spec.node_types = {{"a", 120, 3}, {"b", 45, 2}};
  spec.edge_types = {{"a-a", 0, 0, 400, 0.0, 0.5},
                     {"a-b", 0, 1, 300, 0.0, 0.8}};
  spec.num_communities = 5;
  ExpectPinned(spec, 2028,
               {700, 2856678352713191755ull, 9530752396604552597ull,
                7148731109383053488ull});
}

}  // namespace
}  // namespace fedda::data
