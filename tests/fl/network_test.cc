#include "fl/network.h"

#include <gtest/gtest.h>

#include "fl/experiment.h"

namespace fedda::fl {
namespace {

FlRunResult MakeRun() {
  FlRunResult result;
  // Round 0: 4 participants, 4000 scalars total uplink, slowest sent 1000
  // (uniform masks: max == mean). At 4 B per scalar the straggler moved
  // 4000 B up and the full 2000-scalar model, 8000 B, down.
  RoundRecord r0;
  r0.round = 0;
  r0.participants = 4;
  r0.uplink_scalars = 4000;
  r0.max_uplink_scalars = 1000;
  r0.max_uplink_bytes = 4000;
  r0.max_downlink_bytes = 8000;
  r0.auc = 0.6;
  result.history.push_back(r0);
  // Round 1: everyone failed.
  RoundRecord r1;
  r1.round = 1;
  r1.participants = 0;
  r1.uplink_scalars = 0;
  r1.auc = 0.6;
  result.history.push_back(r1);
  // Round 2: 2 participants, 1000 scalars total; FedDA masking is skewed —
  // the straggler carried 800 of them (3200 B up, 8000 B down).
  RoundRecord r2;
  r2.round = 2;
  r2.participants = 2;
  r2.uplink_scalars = 1000;
  r2.max_uplink_scalars = 800;
  r2.max_uplink_bytes = 3200;
  r2.max_downlink_bytes = 8000;
  r2.auc = 0.75;
  result.history.push_back(r2);
  return result;
}

NetworkModel SimpleModel() {
  NetworkModel model;
  model.uplink_bytes_per_sec = 4000.0;
  model.downlink_bytes_per_sec = 8000.0;
  model.round_latency_sec = 1.0;
  model.compute_sec_per_epoch = 2.0;
  return model;
}

TEST(NetworkTest, PerRoundTimingMatchesHandComputation) {
  const FlRunResult run = MakeRun();
  const auto timing = SimulateTiming(run, SimpleModel(), /*local_epochs=*/1);
  ASSERT_EQ(timing.size(), 3u);
  // Round 0: 1 (latency) + 8000/8000 (down) + 2 (compute) + 4000/4000
  // (straggler uplink).
  EXPECT_DOUBLE_EQ(timing[0].round_sec, 1.0 + 1.0 + 2.0 + 1.0);
  // Round 1: all failed -> latency only.
  EXPECT_DOUBLE_EQ(timing[1].round_sec, 1.0);
  // Round 2: 1 + 1 + 2 + 3200/4000 — the straggler's 800 scalars, not the
  // 500-scalar mean.
  EXPECT_DOUBLE_EQ(timing[2].round_sec, 4.8);
  EXPECT_DOUBLE_EQ(timing[2].cumulative_sec, 5.0 + 1.0 + 4.8);
}

TEST(NetworkTest, StragglerDominatesSkewedRounds) {
  // Same total uplink, different skew: the straggler-heavy run is slower.
  FlRunResult uniform = MakeRun();
  uniform.history[2].max_uplink_scalars = 500;  // perfectly balanced
  uniform.history[2].max_uplink_bytes = 2000;
  FlRunResult skewed = MakeRun();               // straggler sent 800
  const NetworkModel model = SimpleModel();
  const auto t_uniform = SimulateTiming(uniform, model, 1);
  const auto t_skewed = SimulateTiming(skewed, model, 1);
  EXPECT_EQ(uniform.history[2].uplink_scalars,
            skewed.history[2].uplink_scalars);
  EXPECT_LT(t_uniform[2].round_sec, t_skewed[2].round_sec);
  // Balanced masks: straggler accounting equals the old mean accounting.
  EXPECT_DOUBLE_EQ(t_uniform[2].round_sec, 4.5);
}

TEST(NetworkTest, MeasuredRecordsChargePerDirectionWireBytes) {
  // The straggler's measured wire bytes are charged directly; the scalar
  // counts do not enter the estimate.
  FlRunResult run = MakeRun();
  run.history[0].max_uplink_bytes = 2000;    // 0.5 s at 4000 B/s
  run.history[0].uplink_bytes = 6000;
  run.history[0].max_downlink_bytes = 4000;  // 0.5 s at 8000 B/s
  run.history[0].downlink_bytes = 12000;
  const auto timing = SimulateTiming(run, SimpleModel(), 1);
  // 1 (latency) + 0.5 (down) + 2 (compute) + 0.5 (straggler up).
  EXPECT_DOUBLE_EQ(timing[0].round_sec, 4.0);
}

TEST(NetworkTest, FewerUplinkScalarsMeansFasterRounds) {
  FlRunResult fedavg = MakeRun();
  FlRunResult fedda = MakeRun();
  fedda.history[0].uplink_scalars = 2000;  // half the uplink
  fedda.history[0].max_uplink_scalars = 500;
  fedda.history[0].max_uplink_bytes = 2000;
  const NetworkModel model = SimpleModel();
  const auto t_avg = SimulateTiming(fedavg, model, 1);
  const auto t_da = SimulateTiming(fedda, model, 1);
  EXPECT_LT(t_da[0].round_sec, t_avg[0].round_sec);
}

TEST(NetworkTest, TimeToAccuracyFindsFirstCrossing) {
  const FlRunResult run = MakeRun();
  const auto timing = SimulateTiming(run, SimpleModel(), 1);
  EXPECT_DOUBLE_EQ(TimeToAccuracy(run, timing, 0.6),
                   timing[0].cumulative_sec);
  EXPECT_DOUBLE_EQ(TimeToAccuracy(run, timing, 0.7),
                   timing[2].cumulative_sec);
  EXPECT_DOUBLE_EQ(TimeToAccuracy(run, timing, 0.9), -1.0);
}

TEST(NetworkTest, MoreEpochsCostMoreCompute) {
  const FlRunResult run = MakeRun();
  const NetworkModel model = SimpleModel();
  const auto one = SimulateTiming(run, model, 1);
  const auto five = SimulateTiming(run, model, 5);
  EXPECT_DOUBLE_EQ(five[0].round_sec - one[0].round_sec, 4 * 2.0);
}

TEST(NetworkTest, AllFailedRoundIgnoresStrayByteFields) {
  // Even if a record somehow carried stale byte fields, participants == 0
  // wins: no participants means nothing was transferred or computed.
  FlRunResult run = MakeRun();
  run.history[1].uplink_bytes = 9999;
  run.history[1].max_uplink_bytes = 9999;
  run.history[1].max_downlink_bytes = 9999;
  const auto timing = SimulateTiming(run, SimpleModel(), 1);
  EXPECT_DOUBLE_EQ(timing[1].round_sec, 1.0);
}

TEST(NetworkTest, EveryClientFailedRunChargesLatencyOnly) {
  // End to end: a run where every client fails every round produces
  // participants == 0 records whose simulated cost is pure latency.
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
  const FederatedSystem system = FederatedSystem::Build(config);

  FlOptions options;
  options.algorithm = FlAlgorithm::kFedAvg;
  options.rounds = 3;
  options.client_failure_prob = 1.0;
  options.eval.max_edges = 64;
  const FlRunResult result = RunFederated(system, options, 5);
  ASSERT_EQ(result.history.size(), 3u);
  for (const RoundRecord& record : result.history) {
    EXPECT_EQ(record.participants, 0);
    EXPECT_EQ(record.uplink_bytes, 0);
    EXPECT_EQ(record.downlink_bytes, 0);
  }
  const NetworkModel model = SimpleModel();
  const auto timing = SimulateTiming(result, model, 1);
  for (const RoundTiming& t : timing) {
    EXPECT_DOUBLE_EQ(t.round_sec, model.round_latency_sec);
  }
}

TEST(NetworkDeathTest, InvalidInputsAbort) {
  const FlRunResult run = MakeRun();
  NetworkModel model = SimpleModel();
  model.uplink_bytes_per_sec = 0.0;
  EXPECT_DEATH(SimulateTiming(run, model, 1), "");
  const auto timing = SimulateTiming(run, SimpleModel(), 1);
  FlRunResult short_run = run;
  short_run.history.pop_back();
  EXPECT_DEATH(TimeToAccuracy(short_run, timing, 0.5), "");
}

TEST(NetworkDeathTest, SemiAsyncResultsAreRejectedNotDoubleCounted) {
  // A semi-async history already carries measured virtual network time
  // (RoundRecord::virtual_time_sec, charged from the same NetworkModel
  // constants while the run executed); feeding it to the post-hoc
  // estimator would charge every transfer twice. The combination is an
  // explicit error, not a silently wrong number.
  FlRunResult run = MakeRun();
  run.aggregation_mode = AggregationMode::kSemiAsync;
  run.history[0].virtual_time_sec = 3.5;
  EXPECT_DEATH(SimulateTiming(run, SimpleModel(), 1),
               "double-counts network time");
}

TEST(NetworkTest, SynchronousResultsStillSimulateAfterTheGuard) {
  FlRunResult run = MakeRun();
  ASSERT_EQ(run.aggregation_mode, AggregationMode::kSynchronous);
  const auto timing = SimulateTiming(run, SimpleModel(), 1);
  EXPECT_EQ(timing.size(), run.history.size());
}

}  // namespace
}  // namespace fedda::fl
