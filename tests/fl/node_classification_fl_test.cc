// Federated node classification through the task-agnostic runner — the
// paper's conclusion claims dynamic activation generalizes beyond the
// link-prediction setting; this exercises FedAvg and FedDA end-to-end on a
// different objective with a custom evaluator. SeededRunsMatchPins pins
// this generic-Client, custom-Evaluator path the way RunnerPinTest pins the
// RunFederated one: the table was generated once and must never be
// regenerated to make a refactoring pass. To print it, run fl_test with
// FEDDA_REGEN_GOLDENS=1 and
//   --gtest_filter='NodeClassificationFlTest.SeededRunsMatchPins'

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "core/string_util.h"
#include "data/generator.h"
#include "data/schema.h"
#include "fl/runner.h"
#include "hgn/node_classification.h"
#include "tests/fl/run_fingerprint.h"

namespace fedda::fl {
namespace {

class NodeClassificationFlTest : public ::testing::Test {
 protected:
  static constexpr int kClasses = 4;
  static constexpr int kClients = 3;

  void SetUp() override {
    data::SyntheticSpec spec = data::AmazonSpec(0.015);
    spec.num_communities = kClasses;
    core::Rng rng(91);
    std::vector<int> raw_labels;
    global_ = data::GenerateGraphWithLabels(spec, &rng, &raw_labels);
    labels_.assign(raw_labels.begin(), raw_labels.end());
    node_split_ = hgn::SplitNodes(global_.num_nodes(), 0.3, &rng);

    hgn::SimpleHgnConfig config;
    config.num_layers = 2;
    config.num_heads = 2;
    config.hidden_dim = 16;
    config.edge_emb_dim = 4;
    model_ = std::make_unique<hgn::SimpleHgn>(
        std::vector<int64_t>{global_.node_type_info(0).feature_dim},
        std::vector<std::string>{"product"},
        std::vector<std::string>{"co-view", "co-purchase"}, config);
    core::Rng init(92);
    model_->InitParameters(&reference_, &init);

    // Global evaluation task (also registers the softmax head).
    eval_task_ = std::make_unique<hgn::NodeClassificationTask>(
        model_.get(), &global_, labels_, node_split_.train, kClasses);
    core::Rng head_rng(93);
    eval_task_->InitHeadParameters(&reference_, &head_rng);
  }

  /// Clients: each holds a biased subgraph (edge subset) and a disjoint
  /// slice of the labeled training nodes.
  std::vector<std::unique_ptr<Client>> MakeClients() {
    std::vector<std::unique_ptr<Client>> clients;
    core::Rng rng(94);
    local_graphs_.clear();
    for (int i = 0; i < kClients; ++i) {
      // Every client sees a random 40% of the global edges.
      std::vector<graph::EdgeId> edges;
      for (graph::EdgeId e = 0; e < global_.num_edges(); ++e) {
        if (rng.Bernoulli(0.4)) edges.push_back(e);
      }
      local_graphs_.push_back(std::make_unique<graph::HeteroGraph>(
          global_.SubgraphFromEdges(edges)));
      // Disjoint label slice.
      std::vector<graph::NodeId> local_nodes;
      for (size_t k = static_cast<size_t>(i); k < node_split_.train.size();
           k += kClients) {
        local_nodes.push_back(node_split_.train[k]);
      }
      auto task = std::make_unique<hgn::NodeClassificationTask>(
          model_.get(), local_graphs_.back().get(), labels_,
          std::move(local_nodes), kClasses);
      core::Rng head_rng(95);
      task->InitHeadParameters(&reference_, &head_rng);  // records ids only
      clients.push_back(
          std::make_unique<Client>(i, std::move(task), reference_));
    }
    return clients;
  }

  FederatedRunner::Evaluator MakeEvaluator() {
    return [this](tensor::ParameterStore* store, core::Rng* rng) {
      const auto result = eval_task_->Evaluate(store, node_split_.eval);
      return std::make_pair(result.accuracy, result.macro_f1);
    };
  }

  graph::HeteroGraph global_;
  std::vector<int32_t> labels_;
  hgn::NodeSplit node_split_;
  std::unique_ptr<hgn::SimpleHgn> model_;
  std::unique_ptr<hgn::NodeClassificationTask> eval_task_;
  std::vector<std::unique_ptr<graph::HeteroGraph>> local_graphs_;
  tensor::ParameterStore reference_;
};

TEST_F(NodeClassificationFlTest, FedAvgLearnsAboveChance) {
  FlOptions options;
  options.rounds = 10;
  options.local.local_epochs = 1;
  options.local.learning_rate = 5e-3f;
  FederatedRunner runner(MakeClients(), MakeEvaluator(), options);
  tensor::ParameterStore store = reference_;
  core::Rng rng(96);
  const FlRunResult result = runner.Run(&store, &rng);
  // record.auc carries accuracy here; chance is 1/4.
  EXPECT_GT(result.final_auc, 0.5);
  EXPECT_GT(result.history.back().auc, result.history.front().auc - 0.05);
}

TEST_F(NodeClassificationFlTest, FedDaSavesCommunicationOnThisTaskToo) {
  FlOptions fedavg_options;
  fedavg_options.rounds = 8;
  fedavg_options.local.learning_rate = 5e-3f;
  FlOptions fedda_options = fedavg_options;
  fedda_options.algorithm = FlAlgorithm::kFedDaExplore;

  tensor::ParameterStore store_a = reference_;
  core::Rng rng_a(97);
  FederatedRunner fedavg(MakeClients(), MakeEvaluator(), fedavg_options);
  const FlRunResult run_a = fedavg.Run(&store_a, &rng_a);

  tensor::ParameterStore store_b = reference_;
  core::Rng rng_b(97);
  FederatedRunner fedda(MakeClients(), MakeEvaluator(), fedda_options);
  const FlRunResult run_b = fedda.Run(&store_b, &rng_b);

  EXPECT_LT(run_b.total_uplink_groups, run_a.total_uplink_groups);
  EXPECT_GT(run_b.final_auc, 0.4);
}

TEST_F(NodeClassificationFlTest, HeadParametersAreFederated) {
  // After a run, the head weights must differ from the broadcast initial
  // values (i.e. the aggregation covered the task head, not only the
  // encoder).
  FlOptions options;
  options.rounds = 3;
  options.local.learning_rate = 5e-3f;
  FederatedRunner runner(MakeClients(), MakeEvaluator(), options);
  tensor::ParameterStore store = reference_;
  core::Rng rng(98);
  runner.Run(&store, &rng);
  const int head = store.FindByName("head/W");
  ASSERT_GE(head, 0);
  EXPECT_FALSE(store.value(head).Equals(reference_.value(head)));
}

TEST_F(NodeClassificationFlTest, SeededRunsMatchPins) {
  // Sequential and pooled runs must agree, so each algorithm's two worker
  // counts share one fingerprint.
  const std::map<std::string, uint64_t> pins = {
      {"FedAvg/w0", 0x7dd5e62e600685cdull},
      {"FedAvg/w3", 0x7dd5e62e600685cdull},
      {"FedDA-Explore/w0", 0x751858c647d850ddull},
      {"FedDA-Explore/w3", 0x751858c647d850ddull},
  };
  const bool regen = std::getenv("FEDDA_REGEN_GOLDENS") != nullptr;
  for (FlAlgorithm algorithm :
       {FlAlgorithm::kFedAvg, FlAlgorithm::kFedDaExplore}) {
    for (int workers : {0, 3}) {
      const std::string name = core::StrFormat(
          "%s/w%d", FlAlgorithmName(algorithm), workers);
      FlOptions options;
      options.algorithm = algorithm;
      options.rounds = 4;
      options.local.learning_rate = 5e-3f;
      options.worker_threads = workers;
      FederatedRunner runner(MakeClients(), MakeEvaluator(), options);
      tensor::ParameterStore store = reference_;
      core::Rng rng(99);
      const FlRunResult result = runner.Run(&store, &rng);
      const uint64_t fingerprint = testing::RunFingerprint(result);
      if (regen) {
        std::printf("      {\"%s\", 0x%016llxull},\n", name.c_str(),
                    static_cast<unsigned long long>(fingerprint));
        continue;
      }
      EXPECT_EQ(fingerprint, pins.at(name)) << name << " renders as:\n"
                                            << testing::RenderRun(result);
    }
  }
}

}  // namespace
}  // namespace fedda::fl
