#include "fl/experiment.h"

#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace fedda::fl {
namespace {

SystemConfig SmallConfig() {
  SystemConfig config;
  config.data = data::AmazonSpec(0.012);
  config.test_fraction = 0.2;
  config.partition.num_clients = 3;
  config.partition.num_specialties = 1;
  config.model.num_layers = 2;
  config.model.num_heads = 2;
  config.model.hidden_dim = 8;
  config.model.edge_emb_dim = 4;
  config.seed = 41;
  return config;
}

TEST(FederatedSystemTest, BuildMaterializesConsistentSystem) {
  const FederatedSystem system = FederatedSystem::Build(SmallConfig());
  EXPECT_GT(system.global().num_edges(), 100);
  EXPECT_EQ(system.num_clients(), 3);
  EXPECT_EQ(system.train_edges().size() + system.test_edges().size(),
            static_cast<size_t>(system.global().num_edges()));
  for (const data::ClientShard& shard : system.shards()) {
    EXPECT_FALSE(shard.local_edges.empty());
    EXPECT_FALSE(shard.task_edges.empty());
  }
}

TEST(FederatedSystemTest, BuildIsDeterministic) {
  const FederatedSystem a = FederatedSystem::Build(SmallConfig());
  const FederatedSystem b = FederatedSystem::Build(SmallConfig());
  EXPECT_EQ(a.global().num_edges(), b.global().num_edges());
  EXPECT_EQ(a.train_edges(), b.train_edges());
  for (int i = 0; i < a.num_clients(); ++i) {
    EXPECT_EQ(a.shards()[static_cast<size_t>(i)].local_edges,
              b.shards()[static_cast<size_t>(i)].local_edges);
  }
}

TEST(FederatedSystemTest, InitialStoreSeedControlsValues) {
  const FederatedSystem system = FederatedSystem::Build(SmallConfig());
  tensor::ParameterStore s1 = system.MakeInitialStore(1);
  tensor::ParameterStore s1b = system.MakeInitialStore(1);
  tensor::ParameterStore s2 = system.MakeInitialStore(2);
  EXPECT_EQ(s1.FlattenValues(), s1b.FlattenValues());
  EXPECT_NE(s1.FlattenValues(), s2.FlattenValues());
  EXPECT_TRUE(s1.SameStructure(s2));
}

TEST(FederatedSystemTest, InitialStoresCanBeMadeConcurrently) {
  // Threads share one system: each store must equal the one a sequential
  // call makes from the same seed (and, under TSan, no call may race).
  const FederatedSystem system = FederatedSystem::Build(SmallConfig());
  constexpr int kThreads = 4;
  constexpr int kCalls = 20;
  std::vector<tensor::ParameterStore> expected;
  for (int t = 0; t < kThreads; ++t) {
    expected.push_back(system.MakeInitialStore(100 + t));
  }
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&system, &expected, &mismatches, t] {
      const tensor::ParameterStore& want = expected[static_cast<size_t>(t)];
      for (int call = 0; call < kCalls; ++call) {
        const tensor::ParameterStore got = system.MakeInitialStore(100 + t);
        if (!got.SameStructure(want) ||
            got.FlattenValues() != want.FlattenValues()) {
          ++mismatches[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches, std::vector<int>(kThreads, 0));
}

TEST(FederatedSystemTest, MakeClientsMapsTaskEdgesIntoLocalSpace) {
  const FederatedSystem system = FederatedSystem::Build(SmallConfig());
  tensor::ParameterStore store = system.MakeInitialStore(1);
  const auto clients = system.MakeClients(store);
  ASSERT_EQ(clients.size(), 3u);
  for (size_t i = 0; i < clients.size(); ++i) {
    const data::ClientShard& shard = system.shards()[i];
    EXPECT_EQ(clients[i]->local_graph().num_edges(),
              static_cast<int64_t>(shard.local_edges.size()));
    EXPECT_EQ(clients[i]->num_task_edges(),
              static_cast<int64_t>(shard.task_edges.size()));
    // Client stores start from the broadcast reference.
    EXPECT_EQ(clients[i]->params().FlattenValues(), store.FlattenValues());
  }
}

TEST(FederatedSystemTest, ClientUpdateChangesOnlyItsOwnStore) {
  const FederatedSystem system = FederatedSystem::Build(SmallConfig());
  tensor::ParameterStore store = system.MakeInitialStore(1);
  auto clients = system.MakeClients(store);
  hgn::TrainOptions options;
  options.local_epochs = 1;
  core::Rng rng(3);
  const double loss = clients[0]->Update(store, options, &rng);
  EXPECT_GT(loss, 0.0);
  EXPECT_NE(clients[0]->params().FlattenValues(), store.FlattenValues());
  EXPECT_EQ(clients[1]->params().FlattenValues(), store.FlattenValues());
}

TEST(BaselineTest, GlobalBaselineLearns) {
  const FederatedSystem system = FederatedSystem::Build(SmallConfig());
  hgn::TrainOptions train;
  train.local_epochs = 1;
  train.learning_rate = 5e-3f;
  hgn::EvalOptions eval;
  eval.mrr_negatives = 3;
  eval.max_edges = 64;
  const BaselineResult result = RunGlobal(system, /*rounds=*/8, train, eval, 1);
  EXPECT_GT(result.auc, 0.55);
  EXPECT_GT(result.mrr, 0.3);
}

TEST(BaselineTest, GlobalBaselineHistoryWhenRequested) {
  const FederatedSystem system = FederatedSystem::Build(SmallConfig());
  hgn::TrainOptions train;
  hgn::EvalOptions eval;
  eval.max_edges = 32;
  eval.mrr_negatives = 3;
  const BaselineResult result =
      RunGlobal(system, 3, train, eval, 1, /*eval_every_round=*/true);
  EXPECT_EQ(result.history.size(), 3u);
}

TEST(BaselineTest, LocalBaselineProducesAveragedScores) {
  const FederatedSystem system = FederatedSystem::Build(SmallConfig());
  hgn::TrainOptions train;
  train.local_epochs = 1;
  hgn::EvalOptions eval;
  eval.mrr_negatives = 3;
  eval.max_edges = 64;
  const BaselineResult result = RunLocal(system, /*rounds=*/3, train, eval, 1);
  EXPECT_GT(result.auc, 0.0);
  EXPECT_LE(result.auc, 1.0);
  EXPECT_GT(result.mrr, 0.0);
}

TEST(SummarizeTest, AggregatesAcrossRuns) {
  FlRunResult r1, r2;
  for (int t = 0; t < 2; ++t) {
    RoundRecord a;
    a.round = t;
    a.auc = 0.6 + 0.1 * t;
    r1.history.push_back(a);
    RoundRecord b;
    b.round = t;
    b.auc = 0.4 + 0.1 * t;
    r2.history.push_back(b);
  }
  r1.final_auc = 0.7;
  r1.final_mrr = 0.9;
  r1.total_uplink_groups = 100;
  r2.final_auc = 0.5;
  r2.final_mrr = 0.7;
  r2.total_uplink_groups = 200;

  const RepeatedSummary summary = Summarize({r1, r2});
  EXPECT_DOUBLE_EQ(summary.final_auc.mean, 0.6);
  // Sample std over {0.7, 0.5}: sqrt(2 * 0.1^2 / 1).
  EXPECT_DOUBLE_EQ(summary.final_auc.std, std::sqrt(0.02));
  EXPECT_DOUBLE_EQ(summary.final_mrr.mean, 0.8);
  EXPECT_DOUBLE_EQ(summary.mean_total_uplink_groups, 150.0);
  ASSERT_EQ(summary.mean_auc_per_round.size(), 2u);
  EXPECT_DOUBLE_EQ(summary.mean_auc_per_round[0], 0.5);
  EXPECT_DOUBLE_EQ(summary.min_auc_per_round[1], 0.5);
  EXPECT_DOUBLE_EQ(summary.max_auc_per_round[1], 0.7);
}

TEST(SummarizeTest, EmptyInputIsSafe) {
  const RepeatedSummary summary = Summarize({});
  EXPECT_EQ(summary.final_auc.mean, 0.0);
  EXPECT_TRUE(summary.mean_auc_per_round.empty());
}

TEST(RunRepeatedTest, ProducesOneResultPerSeed) {
  const FederatedSystem system = FederatedSystem::Build(SmallConfig());
  FlOptions options;
  options.rounds = 2;
  options.eval.max_edges = 32;
  options.eval.mrr_negatives = 3;
  const auto runs = RunFederatedRepeated(system, options, 2, 100);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_NE(runs[0].final_auc, runs[1].final_auc);
}

}  // namespace
}  // namespace fedda::fl
