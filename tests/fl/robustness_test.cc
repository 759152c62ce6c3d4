// Tests for the robustness/privacy extensions of the runner: client failure
// injection and DP-style noise on returned updates, plus the GAT encoder
// ablation and per-edge-type AUC diagnostics used by the ablation benches.

#include <gtest/gtest.h>

#include "fl/experiment.h"

namespace fedda::fl {
namespace {

class RobustnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SystemConfig config;
    config.data = data::AmazonSpec(0.012);
    config.test_fraction = 0.2;
    config.partition.num_clients = 4;
    config.partition.num_specialties = 1;
    config.model.num_layers = 2;
    config.model.num_heads = 2;
    config.model.hidden_dim = 8;
    config.model.edge_emb_dim = 4;
    config.seed = 51;
    system_ = new FederatedSystem(FederatedSystem::Build(config));
  }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }

  static FlOptions FastOptions(int rounds = 4) {
    FlOptions options;
    options.rounds = rounds;
    options.local.local_epochs = 1;
    options.local.learning_rate = 2e-3f;
    options.eval.mrr_negatives = 3;
    options.eval.max_edges = 64;
    return options;
  }

  static FederatedSystem* system_;
};

FederatedSystem* RobustnessTest::system_ = nullptr;

TEST_F(RobustnessTest, TotalFailureLeavesModelUntouched) {
  FlOptions options = FastOptions(3);
  options.client_failure_prob = 1.0;
  tensor::ParameterStore store = system_->MakeInitialStore(1);
  const std::vector<float> before = store.FlattenValues();
  FederatedRunner runner(&system_->model(), &system_->global(),
                         &system_->test_edges(), system_->MakeClients(store),
                         options);
  core::Rng rng(123);
  const FlRunResult result = runner.Run(&store, &rng);
  for (const RoundRecord& record : result.history) {
    EXPECT_EQ(record.participants, 0);
    EXPECT_EQ(record.uplink_groups, 0);
  }
  // The global model never changed.
  EXPECT_EQ(store.FlattenValues(), before);
}

TEST_F(RobustnessTest, PartialFailureReducesParticipantsButStillLearns) {
  FlOptions options = FastOptions(8);
  options.client_failure_prob = 0.5;
  const FlRunResult result = RunFederated(*system_, options, 2);
  int64_t total_participants = 0;
  for (const RoundRecord& record : result.history) {
    EXPECT_LE(record.participants, 4);
    total_participants += record.participants;
  }
  // With p=0.5 over 8 rounds x 4 clients, expect roughly half responding.
  EXPECT_GT(total_participants, 4);
  EXPECT_LT(total_participants, 28);
  EXPECT_GT(result.final_auc, 0.5);
}

TEST_F(RobustnessTest, ZeroFailureProbIsBitIdenticalToBaseline) {
  FlOptions options = FastOptions(3);
  const FlRunResult baseline = RunFederated(*system_, options, 3);
  options.client_failure_prob = 0.0;
  options.dp_noise_std = 0.0;
  const FlRunResult same = RunFederated(*system_, options, 3);
  ASSERT_EQ(baseline.history.size(), same.history.size());
  for (size_t t = 0; t < baseline.history.size(); ++t) {
    EXPECT_DOUBLE_EQ(baseline.history[t].auc, same.history[t].auc);
  }
}

TEST_F(RobustnessTest, FedDaSurvivesFailuresWithValidAccounting) {
  FlOptions options = FastOptions(8);
  options.algorithm = FlAlgorithm::kFedDaExplore;
  options.client_failure_prob = 0.3;
  const FlRunResult result = RunFederated(*system_, options, 4);
  for (const RoundRecord& record : result.history) {
    EXPECT_GE(record.participants, 0);
    EXPECT_GE(record.active_after_round, 1);
    if (record.participants == 0) {
      EXPECT_EQ(record.uplink_groups, 0);
    }
  }
}

TEST_F(RobustnessTest, DpNoisePerturbsTrainingButModestNoiseStillLearns) {
  FlOptions clean = FastOptions(6);
  const FlRunResult baseline = RunFederated(*system_, clean, 5);

  FlOptions noisy = FastOptions(6);
  noisy.dp_noise_std = 1e-3;
  const FlRunResult small_noise = RunFederated(*system_, noisy, 5);
  EXPECT_NE(baseline.final_auc, small_noise.final_auc);
  EXPECT_GT(small_noise.final_auc, 0.5);

  noisy.dp_noise_std = 10.0;  // destroys the signal
  const FlRunResult big_noise = RunFederated(*system_, noisy, 5);
  EXPECT_LT(big_noise.final_auc, small_noise.final_auc);
}

TEST(GatAblationTest, DisablingEdgeTypeAttentionDropsTheExtraGroups) {
  SystemConfig config;
  config.data = data::DblpSpec(0.002);
  config.partition.num_clients = 2;
  config.seed = 5;
  // Paper-default layout minus edge-type attention.
  config.model.use_edge_type_attention = false;
  const FederatedSystem system = FederatedSystem::Build(config);
  tensor::ParameterStore store = system.MakeInitialStore(1);
  // 65 total minus 3 edge_emb minus 9 W_r minus 9 a_edge = 44.
  EXPECT_EQ(store.num_groups(), 44);
  // Disentangled set shrinks to the DistMult relations.
  EXPECT_EQ(store.DisentangledGroups().size(), 5u);
  EXPECT_EQ(store.FindByName("layer0/edge_emb"), -1);
  EXPECT_EQ(store.FindByName("layer0/head0/W_r"), -1);
  EXPECT_NE(store.FindByName("layer0/head0/a_src"), -1);
}

TEST(GatAblationTest, GatModeTrainsEndToEnd) {
  SystemConfig config;
  config.data = data::AmazonSpec(0.012);
  config.partition.num_clients = 3;
  config.model.num_layers = 2;
  config.model.num_heads = 2;
  config.model.hidden_dim = 8;
  config.model.use_edge_type_attention = false;
  config.seed = 6;
  const FederatedSystem system = FederatedSystem::Build(config);
  FlOptions options;
  options.rounds = 3;
  options.eval.max_edges = 64;
  options.eval.mrr_negatives = 3;
  const FlRunResult result = RunFederated(system, options, 1);
  EXPECT_GT(result.final_auc, 0.0);
  EXPECT_EQ(result.history.size(), 3u);
}

TEST_F(RobustnessTest, PerTypeAucExposesSpecializationGap) {
  // Train one client locally on its specialized types only, then check the
  // per-type breakdown: specialized types should score clearly better than
  // unseen ones (the Non-IID mechanism the paper builds on).
  tensor::ParameterStore store = system_->MakeInitialStore(7);
  auto clients = system_->MakeClients(store);
  hgn::TrainOptions train;
  train.local_epochs = 1;
  train.learning_rate = 5e-3f;
  core::Rng rng(8);
  for (int round = 0; round < 25; ++round) {
    clients[0]->TrainLocalOnly(train, &rng);
  }
  const hgn::MpStructure mp =
      system_->model().BuildStructure(system_->global());
  hgn::EvalOptions eval;
  eval.mrr_negatives = 3;
  core::Rng eval_rng(9);
  const hgn::EvalResult result = hgn::EvaluateLinkPrediction(
      system_->model(), system_->global(), mp, system_->test_edges(),
      clients[0]->mutable_params(), eval, &eval_rng);

  ASSERT_EQ(result.per_type_auc.size(), 2u);
  const auto& specialties = system_->shards()[0].specialties;
  ASSERT_EQ(specialties.size(), 1u);
  const int spec = specialties[0];
  const int other = 1 - spec;
  EXPECT_GT(result.per_type_auc[static_cast<size_t>(spec)],
            result.per_type_auc[static_cast<size_t>(other)]);
}

}  // namespace
}  // namespace fedda::fl
