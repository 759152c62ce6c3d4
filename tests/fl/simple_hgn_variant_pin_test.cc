// Simple-HGN variant pins: one fingerprint per seeded federated run of a
// model variant the golden runs and the runner pin grid leave out — vanilla
// GAT (no edge-type attention) and ego-subgraph mini-batches (fresh index
// vectors every batch). Ego runs at 0 and 3 workers. A kernel or op change
// that alters either message-passing path trips the pin of the variant that
// exercises it.
//
// The table is a property of the seeded computation: it was generated once
// and must never be regenerated to make a refactoring pass. To print it:
//   FEDDA_REGEN_GOLDENS=1 ./build/tests/fl_test --gtest_filter='SimpleHgnVariantPinTest.*'
// A mismatch prints that variant's full rendering.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/string_util.h"
#include "fl/experiment.h"
#include "tests/fl/run_fingerprint.h"

namespace fedda::fl {
namespace {

constexpr uint64_t kRunSeed = 123;

/// One pinned variant: a tweak of the model config, of the local training
/// options, or both.
struct Variant {
  const char* name;
  void (*model)(hgn::SimpleHgnConfig*);
  void (*train)(hgn::TrainOptions*);
  std::vector<int> workers;
};

void NoModelChange(hgn::SimpleHgnConfig*) {}
void NoTrainChange(hgn::TrainOptions*) {}

std::vector<Variant> Variants() {
  return {
      {"gat",
       [](hgn::SimpleHgnConfig* m) { m->use_edge_type_attention = false; },
       NoTrainChange,
       {0}},
      {"ego", NoModelChange,
       [](hgn::TrainOptions* t) {
         t->ego_hops = 2;
         t->ego_fanout = 6;
         t->batch_size = 32;
       },
       {0, 3}},
  };
}

SystemConfig VariantSystemConfig(const Variant& variant) {
  SystemConfig config;
  config.data = data::AmazonSpec(0.012);
  config.test_fraction = 0.2;
  config.partition.num_clients = 4;
  config.partition.num_specialties = 1;
  config.model.num_layers = 2;
  config.model.num_heads = 2;
  config.model.hidden_dim = 8;
  config.model.edge_emb_dim = 4;
  config.seed = 41;
  variant.model(&config.model);
  return config;
}

FlOptions VariantOptions(const Variant& variant, int workers) {
  FlOptions options;
  options.algorithm = FlAlgorithm::kFedDaRestart;
  options.rounds = 4;
  options.local.local_epochs = 1;
  options.local.learning_rate = 5e-3f;
  options.eval.max_edges = 64;
  options.eval.mrr_negatives = 5;
  options.eval_every_round = true;
  options.worker_threads = workers;
  variant.train(&options.local);
  return options;
}

/// Fingerprints generated at the commit before Simple-HGN's edge
/// aggregation was fused into one op.
const std::map<std::string, uint64_t>& PinTable() {
  static const std::map<std::string, uint64_t> table = {
      {"gat/w0", 0x18bf1dae70ea589full},
      {"ego/w0", 0x6685af8439deae45ull},
      {"ego/w3", 0x6685af8439deae45ull},
  };
  return table;
}

TEST(SimpleHgnVariantPinTest, EveryVariantMatchesItsPin) {
  const bool regen = std::getenv("FEDDA_REGEN_GOLDENS") != nullptr;
  for (const Variant& variant : Variants()) {
    const FederatedSystem system =
        FederatedSystem::Build(VariantSystemConfig(variant));
    for (int workers : variant.workers) {
      const std::string name =
          core::StrFormat("%s/w%d", variant.name, workers);
      const FlRunResult result =
          RunFederated(system, VariantOptions(variant, workers), kRunSeed);
      const uint64_t fingerprint = testing::RunFingerprint(result);
      if (regen) {
        std::printf("      {\"%s\", 0x%016llxull},\n", name.c_str(),
                    static_cast<unsigned long long>(fingerprint));
        continue;
      }
      const auto it = PinTable().find(name);
      if (it == PinTable().end()) {
        ADD_FAILURE() << "no pin for " << name;
        continue;
      }
      EXPECT_EQ(fingerprint, it->second) << name << " renders as:\n"
                                         << testing::RenderRun(result);
    }
  }
}

}  // namespace
}  // namespace fedda::fl
