// Semi-async (buffered event-driven) runner tests: a golden-run-style pin
// of a seeded 4-client run with one forced straggler, worker-thread
// invariance of the event sequence, buffer-size semantics, and departure
// accounting.
//
// To regenerate the pinned values after an intentional numerics change,
// run ./build/tests/fl_async_test with FEDDA_REGEN_GOLDENS=1 set and
// --gtest_filter='SemiAsyncGoldenTest.*', then paste the printed block over
// the arrays below.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/string_util.h"
#include "fl/experiment.h"

namespace fedda::fl {
namespace {

/// %.17g round-trips IEEE-754 doubles exactly: string equality is bit
/// equality.
std::string GoldenDouble(double value) {
  return core::StrFormat("%.17g", value);
}

SystemConfig SmallSystemConfig() {
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
  return config;
}

FlOptions SemiAsyncOptionsFor(FlAlgorithm algorithm, int rounds) {
  FlOptions options;
  options.algorithm = algorithm;
  options.rounds = rounds;
  options.local.local_epochs = 1;
  options.local.learning_rate = 5e-3f;
  options.eval.max_edges = 128;
  options.eval.mrr_negatives = 5;
  options.eval_every_round = true;
  options.aggregation_mode = AggregationMode::kSemiAsync;
  options.semi_async.buffer_size = 2;
  options.semi_async.staleness_exponent = 0.5;
  // Client 3 is 4x slower end to end: its updates straggle into later
  // rounds and land with a staleness discount.
  options.semi_async.client_speed = {1.0, 1.0, 1.0, 4.0};
  return options;
}

constexpr uint64_t kRunSeed = 123;

/// Compact, order-sensitive rendering of the processed event sequence:
/// "a2:0" = arrival of client 2's round-0 update, "d1:3" = departure.
std::string EventString(const FlRunResult& result) {
  std::string out;
  for (const Event& event : result.events) {
    if (!out.empty()) out += ",";
    switch (event.kind) {
      case EventKind::kArrival: out += "a"; break;
      case EventKind::kDeparture: out += "d"; break;
      case EventKind::kReactivation: out += "r"; break;
    }
    out += std::to_string(event.client) + ":" + std::to_string(event.round);
  }
  return out;
}

TEST(SemiAsyncGoldenTest, FedAvgStragglerBufferedRun) {
  const FederatedSystem system = FederatedSystem::Build(SmallSystemConfig());
  const FlOptions options = SemiAsyncOptionsFor(FlAlgorithm::kFedAvg, 6);
  const FlRunResult result = RunFederated(system, options, kRunSeed);

  const char* kFinalAuc = "0.51910400390625";
  const char* kFinalMrr = "0.4130208333333335";
  const std::vector<int> kParticipants = {2, 2, 2, 2, 2, 2};
  const std::vector<int> kStarted = {4, 2, 2, 2, 2, 2};
  const std::vector<const char*> kMeanStaleness = {"0",   "0.5", "0.5",
                                                   "2",   "1",   "0.5"};
  // The straggler (client 3, 4x slower) starts in round 0 and its update
  // is only consumed in round 3's buffer (staleness 3, hence round 3's
  // mean of 2) while the fast clients cycle every round.
  const char* kEvents =
      "a0:0,a1:0,a2:0,a0:1,a1:1,a0:2,a2:2,a3:0,a0:3,a1:3,a2:4,a0:5";

  if (std::getenv("FEDDA_REGEN_GOLDENS") != nullptr) {
    std::printf("const char* kFinalAuc = \"%s\";\n",
                GoldenDouble(result.final_auc).c_str());
    std::printf("const char* kFinalMrr = \"%s\";\n",
                GoldenDouble(result.final_mrr).c_str());
    std::printf("kParticipants = {");
    for (const RoundRecord& r : result.history) {
      std::printf("%d, ", r.participants);
    }
    std::printf("};\nkStarted = {");
    for (const RoundRecord& r : result.history) {
      std::printf("%d, ", r.started);
    }
    std::printf("};\nkMeanStaleness = {");
    for (const RoundRecord& r : result.history) {
      std::printf("\"%s\", ", GoldenDouble(r.mean_staleness).c_str());
    }
    std::printf("};\nconst char* kEvents = \"%s\";\n",
                EventString(result).c_str());
    GTEST_SKIP() << "regenerating goldens, assertions skipped";
  }

  EXPECT_EQ(GoldenDouble(result.final_auc), kFinalAuc);
  EXPECT_EQ(GoldenDouble(result.final_mrr), kFinalMrr);
  ASSERT_EQ(result.history.size(), kParticipants.size());
  for (size_t t = 0; t < result.history.size(); ++t) {
    EXPECT_EQ(result.history[t].participants, kParticipants[t])
        << "round " << t;
    EXPECT_EQ(result.history[t].started, kStarted[t]) << "round " << t;
    EXPECT_EQ(GoldenDouble(result.history[t].mean_staleness),
              kMeanStaleness[t])
        << "round " << t;
  }
  EXPECT_EQ(EventString(result), kEvents);
}

TEST(SemiAsyncRunnerTest, WorkerThreadsDoNotChangeEventsOrHistory) {
  const FederatedSystem system = FederatedSystem::Build(SmallSystemConfig());
  std::vector<FlRunResult> results;
  for (int workers : {0, 1, 4}) {
    FlOptions options = SemiAsyncOptionsFor(FlAlgorithm::kFedDaRestart, 5);
    options.worker_threads = workers;
    results.push_back(RunFederated(system, options, kRunSeed));
  }
  const FlRunResult& base = results[0];
  for (size_t v = 1; v < results.size(); ++v) {
    const FlRunResult& other = results[v];
    // Event sequences are bit-identical: all queue operations happen on
    // the coordinator, the pool only parallelizes training between them.
    ASSERT_EQ(other.events.size(), base.events.size());
    for (size_t i = 0; i < base.events.size(); ++i) {
      EXPECT_EQ(GoldenDouble(other.events[i].time),
                GoldenDouble(base.events[i].time));
      EXPECT_EQ(other.events[i].kind, base.events[i].kind);
      EXPECT_EQ(other.events[i].client, base.events[i].client);
      EXPECT_EQ(other.events[i].round, base.events[i].round);
      EXPECT_EQ(other.events[i].seq, base.events[i].seq);
    }
    ASSERT_EQ(other.history.size(), base.history.size());
    for (size_t t = 0; t < base.history.size(); ++t) {
      EXPECT_EQ(GoldenDouble(other.history[t].auc),
                GoldenDouble(base.history[t].auc));
      EXPECT_EQ(GoldenDouble(other.history[t].mean_local_loss),
                GoldenDouble(base.history[t].mean_local_loss));
      EXPECT_EQ(other.history[t].participants, base.history[t].participants);
      EXPECT_EQ(GoldenDouble(other.history[t].virtual_time_sec),
                GoldenDouble(base.history[t].virtual_time_sec));
    }
    EXPECT_EQ(GoldenDouble(other.final_auc), GoldenDouble(base.final_auc));
  }
}

TEST(SemiAsyncRunnerTest, BufferSizeCapsPerRoundAggregationAndCreatesStaleness) {
  const FederatedSystem system = FederatedSystem::Build(SmallSystemConfig());
  FlOptions options = SemiAsyncOptionsFor(FlAlgorithm::kFedAvg, 6);
  options.semi_async.buffer_size = 2;
  options.semi_async.client_speed = {};  // uniform speed: queue backlog
  const FlRunResult result = RunFederated(system, options, kRunSeed);

  bool any_stale = false;
  double prev_time = 0.0;
  for (const RoundRecord& record : result.history) {
    EXPECT_LE(record.participants, 2);
    EXPECT_GE(record.participants, 1);
    any_stale = any_stale || record.mean_staleness > 0.0;
    // Virtual time never runs backwards.
    EXPECT_GE(record.virtual_time_sec, prev_time);
    prev_time = record.virtual_time_sec;
  }
  // 4 clients start in round 0 but only 2 slots per round: the backlog
  // forces at least one update to be aggregated a round late.
  EXPECT_TRUE(any_stale);
}

TEST(SemiAsyncRunnerTest, DrainAllBufferAggregatesEveryArrival) {
  const FederatedSystem system = FederatedSystem::Build(SmallSystemConfig());
  FlOptions options = SemiAsyncOptionsFor(FlAlgorithm::kFedAvg, 4);
  options.semi_async.buffer_size = 0;  // drain everything in flight
  options.semi_async.client_speed = {};
  const FlRunResult result = RunFederated(system, options, kRunSeed);
  for (const RoundRecord& record : result.history) {
    // Uniform speeds, no failures, full drain: every round starts all 4
    // and consumes all 4.
    EXPECT_EQ(record.started, 4);
    EXPECT_EQ(record.participants, 4);
    EXPECT_DOUBLE_EQ(record.mean_staleness, 0.0);
    EXPECT_FALSE(std::isnan(record.mean_local_loss));
  }
}

TEST(SemiAsyncRunnerTest, DeparturesAreRecordedAndMatchEvents) {
  const FederatedSystem system = FederatedSystem::Build(SmallSystemConfig());
  FlOptions options = SemiAsyncOptionsFor(FlAlgorithm::kFedAvg, 8);
  options.client_failure_prob = 0.4;
  const FlRunResult result = RunFederated(system, options, kRunSeed);

  int recorded_departures = 0;
  for (const RoundRecord& record : result.history) {
    recorded_departures += record.departures;
  }
  int departure_events = 0;
  int arrival_events = 0;
  for (const Event& event : result.events) {
    if (event.kind == EventKind::kDeparture) ++departure_events;
    if (event.kind == EventKind::kArrival) ++arrival_events;
  }
  EXPECT_EQ(recorded_departures, departure_events);
  EXPECT_GT(departure_events, 0) << "seed produced no departures";
  // Every aggregated update corresponds to exactly one arrival event.
  int aggregated = 0;
  for (const RoundRecord& record : result.history) {
    aggregated += record.participants;
  }
  EXPECT_EQ(aggregated, arrival_events);
}

TEST(SemiAsyncRunnerTest, SemiAsyncRunsAreSeedDeterministic) {
  const FederatedSystem system = FederatedSystem::Build(SmallSystemConfig());
  const FlOptions options =
      SemiAsyncOptionsFor(FlAlgorithm::kFedDaExplore, 5);
  const FlRunResult a = RunFederated(system, options, 7);
  const FlRunResult b = RunFederated(system, options, 7);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(GoldenDouble(a.events[i].time), GoldenDouble(b.events[i].time));
    EXPECT_EQ(a.events[i].client, b.events[i].client);
  }
  EXPECT_EQ(GoldenDouble(a.final_auc), GoldenDouble(b.final_auc));
}

}  // namespace
}  // namespace fedda::fl
