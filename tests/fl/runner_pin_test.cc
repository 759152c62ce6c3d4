// Runner pin grid: one fingerprint per seeded configuration of the round
// loop, covering what the golden runs leave out — client failures, FedAvg's
// C and D below 1, both FedDA granularities, Explore, weighted aggregation
// with DP noise, the worker pool, and forced reactivations. Each fingerprint
// (tests/fl/run_fingerprint.h) covers every field a run records, so any
// change to what a round computes, charges or records trips the pin of the
// configuration that exercises it.
//
// The table is a property of the seeded computation: it was generated once
// and must never be regenerated to make a refactoring pass. To print it:
//   FEDDA_REGEN_GOLDENS=1 ./build/tests/fl_test --gtest_filter='RunnerPinTest.*'
// A mismatch prints that configuration's full rendering.

#include <cmath>
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

using core::StrFormat;

SystemConfig PinSystemConfig() {
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

constexpr uint64_t kRunSeed = 123;

/// One point of the grid.
struct PinConfig {
  AggregationMode mode = AggregationMode::kSynchronous;
  FlAlgorithm algorithm = FlAlgorithm::kFedAvg;
  double failure = 0.0;
  ActivationGranularity granularity = ActivationGranularity::kTensor;
  /// Sync FedAvg only: C = D.
  double fraction = 1.0;
  int workers = 0;
  /// Weighted aggregation plus dp_noise_std = 1e-3.
  bool weighted_dp = false;
  /// Scalar granularity with alpha = 1 and beta_r = 0: every aggregated
  /// client deactivates and Restart never refills the set, so the server
  /// has to force reactivations.
  bool forced = false;

  std::string Name() const {
    std::string name =
        mode == AggregationMode::kSynchronous ? "sync" : "async";
    name += std::string("/") + FlAlgorithmName(algorithm);
    if (forced) {
      name += "/forced";
    } else if (algorithm == FlAlgorithm::kFedAvg) {
      name += StrFormat("/cd=%g", fraction);
    } else {
      name += granularity == ActivationGranularity::kScalar ? "/scalar"
                                                            : "/tensor";
    }
    name += StrFormat("/fail=%g/w%d", failure, workers);
    name += weighted_dp ? "/weighted-dp" : "/plain";
    return name;
  }

  FlOptions Options() const {
    FlOptions options;
    options.algorithm = algorithm;
    options.rounds = 5;
    options.local.local_epochs = 1;
    options.local.learning_rate = 5e-3f;
    options.eval.max_edges = 64;
    options.eval.mrr_negatives = 5;
    options.eval_every_round = true;
    options.client_fraction = fraction;
    options.param_fraction = fraction;
    options.activation.granularity = granularity;
    options.client_failure_prob = failure;
    options.worker_threads = workers;
    options.weighted_aggregation = weighted_dp;
    options.dp_noise_std = weighted_dp ? 1e-3 : 0.0;
    if (forced) {
      options.activation.granularity = ActivationGranularity::kScalar;
      options.activation.alpha = 1.0;
      options.beta_r = 0.0;
    }
    if (mode == AggregationMode::kSemiAsync) {
      options.rounds = 6;
      options.aggregation_mode = AggregationMode::kSemiAsync;
      options.semi_async.buffer_size = 2;
      options.semi_async.staleness_exponent = 0.5;
      // Client 3 straggles into later rounds.
      options.semi_async.client_speed = {1.0, 1.0, 1.0, 4.0};
    }
    return options;
  }
};

std::vector<PinConfig> Grid(AggregationMode mode) {
  std::vector<PinConfig> grid;
  const bool sync = mode == AggregationMode::kSynchronous;
  for (FlAlgorithm algorithm :
       {FlAlgorithm::kFedAvg, FlAlgorithm::kFedDaRestart,
        FlAlgorithm::kFedDaExplore}) {
    const bool fedavg = algorithm == FlAlgorithm::kFedAvg;
    for (double failure : {0.0, 0.35}) {
      for (ActivationGranularity granularity :
           {ActivationGranularity::kTensor, ActivationGranularity::kScalar}) {
        if (fedavg && granularity == ActivationGranularity::kScalar) continue;
        for (double fraction : {1.0, 0.5}) {
          if ((!fedavg || !sync) && fraction != 1.0) continue;
          for (int workers : {0, 3}) {
            for (bool weighted_dp : {false, true}) {
              PinConfig config;
              config.mode = mode;
              config.algorithm = algorithm;
              config.failure = failure;
              config.granularity = granularity;
              config.fraction = fraction;
              config.workers = workers;
              config.weighted_dp = weighted_dp;
              grid.push_back(config);
            }
          }
        }
      }
    }
  }
  for (double failure : {0.0, 0.35}) {
    for (int workers : {0, 3}) {
      PinConfig config;
      config.mode = mode;
      config.algorithm = FlAlgorithm::kFedDaRestart;
      config.failure = failure;
      config.workers = workers;
      config.forced = true;
      grid.push_back(config);
    }
  }
  return grid;
}

/// Fingerprints generated at the commit before the round loop was unified.
const std::map<std::string, uint64_t>& PinTable() {
  static const std::map<std::string, uint64_t> table = {
      {"sync/FedAvg/cd=1/fail=0/w0/plain", 0x9a5d3a2a8d367a17ull},
      {"sync/FedAvg/cd=1/fail=0/w0/weighted-dp", 0x9cd5e57aac017fcbull},
      {"sync/FedAvg/cd=1/fail=0/w3/plain", 0x9a5d3a2a8d367a17ull},
      {"sync/FedAvg/cd=1/fail=0/w3/weighted-dp", 0x9cd5e57aac017fcbull},
      {"sync/FedAvg/cd=0.5/fail=0/w0/plain", 0x47d22c48598c9386ull},
      {"sync/FedAvg/cd=0.5/fail=0/w0/weighted-dp", 0x300f41173d0ac5e8ull},
      {"sync/FedAvg/cd=0.5/fail=0/w3/plain", 0x47d22c48598c9386ull},
      {"sync/FedAvg/cd=0.5/fail=0/w3/weighted-dp", 0x300f41173d0ac5e8ull},
      {"sync/FedAvg/cd=1/fail=0.35/w0/plain", 0xadbf9cf12866a9e7ull},
      {"sync/FedAvg/cd=1/fail=0.35/w0/weighted-dp", 0x658cb4d04b4df334ull},
      {"sync/FedAvg/cd=1/fail=0.35/w3/plain", 0xadbf9cf12866a9e7ull},
      {"sync/FedAvg/cd=1/fail=0.35/w3/weighted-dp", 0x658cb4d04b4df334ull},
      {"sync/FedAvg/cd=0.5/fail=0.35/w0/plain", 0x4ab2d52760dcd282ull},
      {"sync/FedAvg/cd=0.5/fail=0.35/w0/weighted-dp", 0x93e16b221e172932ull},
      {"sync/FedAvg/cd=0.5/fail=0.35/w3/plain", 0x4ab2d52760dcd282ull},
      {"sync/FedAvg/cd=0.5/fail=0.35/w3/weighted-dp", 0x93e16b221e172932ull},
      {"sync/FedDA-Restart/tensor/fail=0/w0/plain", 0x4cde14cc097f647eull},
      {"sync/FedDA-Restart/tensor/fail=0/w0/weighted-dp", 0x01f3bb01adc74a46ull},
      {"sync/FedDA-Restart/tensor/fail=0/w3/plain", 0x4cde14cc097f647eull},
      {"sync/FedDA-Restart/tensor/fail=0/w3/weighted-dp", 0x01f3bb01adc74a46ull},
      {"sync/FedDA-Restart/scalar/fail=0/w0/plain", 0x9bbf1455470252f5ull},
      {"sync/FedDA-Restart/scalar/fail=0/w0/weighted-dp", 0xce0eca9510dbd7e9ull},
      {"sync/FedDA-Restart/scalar/fail=0/w3/plain", 0x9bbf1455470252f5ull},
      {"sync/FedDA-Restart/scalar/fail=0/w3/weighted-dp", 0xce0eca9510dbd7e9ull},
      {"sync/FedDA-Restart/tensor/fail=0.35/w0/plain", 0x6c038acccb87f4ebull},
      {"sync/FedDA-Restart/tensor/fail=0.35/w0/weighted-dp", 0xd825b17a8950437bull},
      {"sync/FedDA-Restart/tensor/fail=0.35/w3/plain", 0x6c038acccb87f4ebull},
      {"sync/FedDA-Restart/tensor/fail=0.35/w3/weighted-dp", 0xd825b17a8950437bull},
      {"sync/FedDA-Restart/scalar/fail=0.35/w0/plain", 0x9670c7c13b236b18ull},
      {"sync/FedDA-Restart/scalar/fail=0.35/w0/weighted-dp", 0x611073dbef1df674ull},
      {"sync/FedDA-Restart/scalar/fail=0.35/w3/plain", 0x9670c7c13b236b18ull},
      {"sync/FedDA-Restart/scalar/fail=0.35/w3/weighted-dp", 0x611073dbef1df674ull},
      {"sync/FedDA-Explore/tensor/fail=0/w0/plain", 0x0b6a4ae43da1ba8aull},
      {"sync/FedDA-Explore/tensor/fail=0/w0/weighted-dp", 0x5db67101797d6663ull},
      {"sync/FedDA-Explore/tensor/fail=0/w3/plain", 0x0b6a4ae43da1ba8aull},
      {"sync/FedDA-Explore/tensor/fail=0/w3/weighted-dp", 0x5db67101797d6663ull},
      {"sync/FedDA-Explore/scalar/fail=0/w0/plain", 0x9d783d14f0270de8ull},
      {"sync/FedDA-Explore/scalar/fail=0/w0/weighted-dp", 0xd241c7ff7d8f59bdull},
      {"sync/FedDA-Explore/scalar/fail=0/w3/plain", 0x9d783d14f0270de8ull},
      {"sync/FedDA-Explore/scalar/fail=0/w3/weighted-dp", 0xd241c7ff7d8f59bdull},
      {"sync/FedDA-Explore/tensor/fail=0.35/w0/plain", 0x9919efd015d4642cull},
      {"sync/FedDA-Explore/tensor/fail=0.35/w0/weighted-dp", 0x2af88fbb08821026ull},
      {"sync/FedDA-Explore/tensor/fail=0.35/w3/plain", 0x9919efd015d4642cull},
      {"sync/FedDA-Explore/tensor/fail=0.35/w3/weighted-dp", 0x2af88fbb08821026ull},
      {"sync/FedDA-Explore/scalar/fail=0.35/w0/plain", 0xd8891b0b961e45cbull},
      {"sync/FedDA-Explore/scalar/fail=0.35/w0/weighted-dp", 0x9c227fade5d26661ull},
      {"sync/FedDA-Explore/scalar/fail=0.35/w3/plain", 0xd8891b0b961e45cbull},
      {"sync/FedDA-Explore/scalar/fail=0.35/w3/weighted-dp", 0x9c227fade5d26661ull},
      {"sync/FedDA-Restart/forced/fail=0/w0/plain", 0x027784380fd870baull},
      {"sync/FedDA-Restart/forced/fail=0/w3/plain", 0x027784380fd870baull},
      {"sync/FedDA-Restart/forced/fail=0.35/w0/plain", 0xff8011a84bc05e93ull},
      {"sync/FedDA-Restart/forced/fail=0.35/w3/plain", 0xff8011a84bc05e93ull},
      {"async/FedAvg/cd=1/fail=0/w0/plain", 0x74258e2368bf8247ull},
      {"async/FedAvg/cd=1/fail=0/w0/weighted-dp", 0xfb5afe4f09e166d5ull},
      {"async/FedAvg/cd=1/fail=0/w3/plain", 0x74258e2368bf8247ull},
      {"async/FedAvg/cd=1/fail=0/w3/weighted-dp", 0xfb5afe4f09e166d5ull},
      {"async/FedAvg/cd=1/fail=0.35/w0/plain", 0x5c1c025794763060ull},
      {"async/FedAvg/cd=1/fail=0.35/w0/weighted-dp", 0x056c4c9838a93911ull},
      {"async/FedAvg/cd=1/fail=0.35/w3/plain", 0x5c1c025794763060ull},
      {"async/FedAvg/cd=1/fail=0.35/w3/weighted-dp", 0x056c4c9838a93911ull},
      {"async/FedDA-Restart/tensor/fail=0/w0/plain", 0xe983bca03bd2ffbdull},
      {"async/FedDA-Restart/tensor/fail=0/w0/weighted-dp", 0x980b5593c186cca3ull},
      {"async/FedDA-Restart/tensor/fail=0/w3/plain", 0xe983bca03bd2ffbdull},
      {"async/FedDA-Restart/tensor/fail=0/w3/weighted-dp", 0x980b5593c186cca3ull},
      {"async/FedDA-Restart/scalar/fail=0/w0/plain", 0xdf68d2a998836545ull},
      {"async/FedDA-Restart/scalar/fail=0/w0/weighted-dp", 0xa18d08a0f0a22ec9ull},
      {"async/FedDA-Restart/scalar/fail=0/w3/plain", 0xdf68d2a998836545ull},
      {"async/FedDA-Restart/scalar/fail=0/w3/weighted-dp", 0xa18d08a0f0a22ec9ull},
      {"async/FedDA-Restart/tensor/fail=0.35/w0/plain", 0xfaea6d2e9302b028ull},
      {"async/FedDA-Restart/tensor/fail=0.35/w0/weighted-dp", 0xc3dfd385429a77d8ull},
      {"async/FedDA-Restart/tensor/fail=0.35/w3/plain", 0xfaea6d2e9302b028ull},
      {"async/FedDA-Restart/tensor/fail=0.35/w3/weighted-dp", 0xc3dfd385429a77d8ull},
      {"async/FedDA-Restart/scalar/fail=0.35/w0/plain", 0xdd3dbb0dc50d5b9aull},
      {"async/FedDA-Restart/scalar/fail=0.35/w0/weighted-dp", 0x9a2245b356cf3ef6ull},
      {"async/FedDA-Restart/scalar/fail=0.35/w3/plain", 0xdd3dbb0dc50d5b9aull},
      {"async/FedDA-Restart/scalar/fail=0.35/w3/weighted-dp", 0x9a2245b356cf3ef6ull},
      {"async/FedDA-Explore/tensor/fail=0/w0/plain", 0x7e936dd679e13d19ull},
      {"async/FedDA-Explore/tensor/fail=0/w0/weighted-dp", 0xa16bc97a57974409ull},
      {"async/FedDA-Explore/tensor/fail=0/w3/plain", 0x7e936dd679e13d19ull},
      {"async/FedDA-Explore/tensor/fail=0/w3/weighted-dp", 0xa16bc97a57974409ull},
      {"async/FedDA-Explore/scalar/fail=0/w0/plain", 0xb9511c8e6cc57b1eull},
      {"async/FedDA-Explore/scalar/fail=0/w0/weighted-dp", 0x123a6cf40e066768ull},
      {"async/FedDA-Explore/scalar/fail=0/w3/plain", 0xb9511c8e6cc57b1eull},
      {"async/FedDA-Explore/scalar/fail=0/w3/weighted-dp", 0x123a6cf40e066768ull},
      {"async/FedDA-Explore/tensor/fail=0.35/w0/plain", 0xfaea6d2e9302b028ull},
      {"async/FedDA-Explore/tensor/fail=0.35/w0/weighted-dp", 0x1da18f8db8530556ull},
      {"async/FedDA-Explore/tensor/fail=0.35/w3/plain", 0xfaea6d2e9302b028ull},
      {"async/FedDA-Explore/tensor/fail=0.35/w3/weighted-dp", 0x1da18f8db8530556ull},
      {"async/FedDA-Explore/scalar/fail=0.35/w0/plain", 0x28df93e73a54054bull},
      {"async/FedDA-Explore/scalar/fail=0.35/w0/weighted-dp", 0xb1673214c93bffc5ull},
      {"async/FedDA-Explore/scalar/fail=0.35/w3/plain", 0x28df93e73a54054bull},
      {"async/FedDA-Explore/scalar/fail=0.35/w3/weighted-dp", 0xb1673214c93bffc5ull},
      {"async/FedDA-Restart/forced/fail=0/w0/plain", 0x898000934aa3dc86ull},
      {"async/FedDA-Restart/forced/fail=0/w3/plain", 0x898000934aa3dc86ull},
      {"async/FedDA-Restart/forced/fail=0.35/w0/plain", 0xdff63d3a15e022a7ull},
      {"async/FedDA-Restart/forced/fail=0.35/w3/plain", 0xdff63d3a15e022a7ull},
  };
  return table;
}

/// What the grid exercised, so a config change that silently stops
/// reaching a rule fails loudly instead of pinning less.
struct Coverage {
  int forced_rounds = 0;
  int departure_rounds = 0;
  int empty_rounds = 0;
  int reactivation_events = 0;
};

void CheckGrid(AggregationMode mode, Coverage* coverage) {
  static const FederatedSystem system =
      FederatedSystem::Build(PinSystemConfig());
  const bool regen = std::getenv("FEDDA_REGEN_GOLDENS") != nullptr;
  for (const PinConfig& config : Grid(mode)) {
    const std::string name = config.Name();
    const FlRunResult result =
        RunFederated(system, config.Options(), kRunSeed);
    for (const RoundRecord& r : result.history) {
      coverage->forced_rounds += r.forced_reactivation ? 1 : 0;
      coverage->departure_rounds += r.departures > 0 ? 1 : 0;
      coverage->empty_rounds += std::isnan(r.mean_local_loss) ? 1 : 0;
    }
    for (const Event& e : result.events) {
      coverage->reactivation_events +=
          e.kind == EventKind::kReactivation ? 1 : 0;
    }
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

TEST(RunnerPinTest, SynchronousGrid) {
  Coverage coverage;
  CheckGrid(AggregationMode::kSynchronous, &coverage);
  EXPECT_GT(coverage.forced_rounds, 0);
  EXPECT_GT(coverage.empty_rounds, 0);
  // Sync runs record only forced reactivations as events.
  EXPECT_EQ(coverage.reactivation_events, coverage.forced_rounds);
}

TEST(RunnerPinTest, SemiAsyncGrid) {
  Coverage coverage;
  CheckGrid(AggregationMode::kSemiAsync, &coverage);
  EXPECT_GT(coverage.forced_rounds, 0);
  EXPECT_GT(coverage.departure_rounds, 0);
  EXPECT_EQ(coverage.reactivation_events, coverage.forced_rounds);
}

}  // namespace
}  // namespace fedda::fl
