// Golden end-to-end regression tests: a seeded 4-client / 5-round federated
// run must reproduce the exact pinned metrics, byte counts, and participant
// schedule, bit for bit. Doubles are compared through a printf %.17g
// round-trip, which is lossless for IEEE-754 doubles, so any change to the
// numerics — kernel order, RNG consumption, aggregation arithmetic, wire
// framing — trips these tests immediately.
//
// To regenerate the goldens after an intentional numerics change:
//   FEDDA_REGEN_GOLDENS=1 ./build/tests/fl_test --gtest_filter='GoldenRunTest.*'
// and paste the printed blocks over the arrays below (see
// tools/README.md).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/string_util.h"
#include "fl/experiment.h"
#include "tensor/kernels/kernels.h"

namespace fedda::fl {
namespace {

/// %.17g renders the shortest string that round-trips any double exactly,
/// so string equality here is bit equality on the underlying values.
std::string GoldenDouble(double value) {
  return core::StrFormat("%.17g", value);
}

SystemConfig GoldenSystemConfig() {
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

FlOptions GoldenOptions(FlAlgorithm algorithm) {
  FlOptions options;
  options.algorithm = algorithm;
  options.rounds = 5;
  options.local.local_epochs = 1;
  options.local.learning_rate = 5e-3f;
  options.eval.max_edges = 128;
  options.eval.mrr_negatives = 5;
  options.eval_every_round = true;
  return options;
}

constexpr uint64_t kRunSeed = 123;

/// Everything a golden pins about one run.
struct Golden {
  const char* final_auc;
  const char* final_mrr;
  int64_t total_uplink_scalars;
  int64_t total_uplink_bytes;
  int64_t total_downlink_scalars;
  int64_t total_downlink_bytes;
  std::vector<const char*> round_auc;
  std::vector<int> participants;
};

void CheckOrRegen(const char* test_name, const FlRunResult& result,
                  const Golden& golden) {
  if (std::getenv("FEDDA_REGEN_GOLDENS") != nullptr) {
    // Paste-ready block for the arrays below.
    std::printf("// --- %s ---\n", test_name);
    std::printf("/*final_auc=*/\"%s\",\n",
                GoldenDouble(result.final_auc).c_str());
    std::printf("/*final_mrr=*/\"%s\",\n",
                GoldenDouble(result.final_mrr).c_str());
    std::printf("/*total_uplink_scalars=*/%lld,\n",
                static_cast<long long>(result.total_uplink_scalars));
    std::printf("/*total_uplink_bytes=*/%lld,\n",
                static_cast<long long>(result.total_uplink_bytes));
    std::printf("/*total_downlink_scalars=*/%lld,\n",
                static_cast<long long>(result.total_downlink_scalars));
    std::printf("/*total_downlink_bytes=*/%lld,\n",
                static_cast<long long>(result.total_downlink_bytes));
    std::printf("/*round_auc=*/{");
    for (const RoundRecord& r : result.history) {
      std::printf("\"%s\", ", GoldenDouble(r.auc).c_str());
    }
    std::printf("},\n/*participants=*/{");
    for (const RoundRecord& r : result.history) {
      std::printf("%d, ", r.participants);
    }
    std::printf("}\n");
    GTEST_SKIP() << "regenerating goldens, assertions skipped";
  }
  EXPECT_EQ(GoldenDouble(result.final_auc), golden.final_auc);
  EXPECT_EQ(GoldenDouble(result.final_mrr), golden.final_mrr);
  EXPECT_EQ(result.total_uplink_scalars, golden.total_uplink_scalars);
  EXPECT_EQ(result.total_uplink_bytes, golden.total_uplink_bytes);
  EXPECT_EQ(result.total_downlink_scalars, golden.total_downlink_scalars);
  EXPECT_EQ(result.total_downlink_bytes, golden.total_downlink_bytes);
  ASSERT_EQ(result.history.size(), golden.round_auc.size());
  ASSERT_EQ(result.history.size(), golden.participants.size());
  for (size_t i = 0; i < result.history.size(); ++i) {
    EXPECT_EQ(GoldenDouble(result.history[i].auc), golden.round_auc[i])
        << "round " << i;
    EXPECT_EQ(result.history[i].participants, golden.participants[i])
        << "round " << i;
  }
}

TEST(GoldenRunTest, FedAvgFourClientsFiveRounds) {
  const FederatedSystem system = FederatedSystem::Build(GoldenSystemConfig());
  const FlRunResult result =
      RunFederated(system, GoldenOptions(FlAlgorithm::kFedAvg), kRunSeed);
  const Golden golden{
      /*final_auc=*/"0.52008056640625",
      /*final_mrr=*/"0.41328125000000016",
      /*total_uplink_scalars=*/30880,
      /*total_uplink_bytes=*/131620,
      /*total_downlink_scalars=*/30880,
      /*total_downlink_bytes=*/131620,
      /*round_auc=*/{"0.47296142578125", "0.52203369140625",
                     "0.52227783203125", "0.5040283203125",
                     "0.52008056640625"},
      /*participants=*/{4, 4, 4, 4, 4},
  };
  CheckOrRegen("FedAvgFourClientsFiveRounds", result, golden);
}

TEST(GoldenRunTest, FedDaRestartFourClientsFiveRounds) {
  const FederatedSystem system = FederatedSystem::Build(GoldenSystemConfig());
  const FlRunResult result = RunFederated(
      system, GoldenOptions(FlAlgorithm::kFedDaRestart), kRunSeed);
  const Golden golden{
      /*final_auc=*/"0.51123046875",
      /*final_mrr=*/"0.41119791666666694",
      /*total_uplink_scalars=*/27640,
      /*total_uplink_bytes=*/117642,
      /*total_downlink_scalars=*/27640,
      /*total_downlink_bytes=*/117642,
      /*round_auc=*/{"0.47296142578125", "0.52227783203125",
                     "0.5264892578125", "0.50677490234375",
                     "0.51123046875"},
      /*participants=*/{4, 4, 3, 4, 3},
  };
  CheckOrRegen("FedDaRestartFourClientsFiveRounds", result, golden);
}

// The golden numbers are properties of the seeded computation, not of the
// machine: a second run in the same process must reproduce them exactly.
// This guards the goldens themselves against hidden global state.
TEST(GoldenRunTest, RerunIsBitIdentical) {
  const FederatedSystem system = FederatedSystem::Build(GoldenSystemConfig());
  const FlOptions options = GoldenOptions(FlAlgorithm::kFedDaRestart);
  const FlRunResult a = RunFederated(system, options, kRunSeed);
  const FlRunResult b = RunFederated(system, options, kRunSeed);
  EXPECT_EQ(GoldenDouble(a.final_auc), GoldenDouble(b.final_auc));
  EXPECT_EQ(GoldenDouble(a.final_mrr), GoldenDouble(b.final_mrr));
  EXPECT_EQ(a.total_uplink_bytes, b.total_uplink_bytes);
  EXPECT_EQ(a.total_downlink_bytes, b.total_downlink_bytes);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(GoldenDouble(a.history[i].auc), GoldenDouble(b.history[i].auc));
    EXPECT_EQ(a.history[i].participants, b.history[i].participants);
  }
}

// The kernel dispatch layer promises that SIMD never changes bits
// (DESIGN.md §13). Hold it to that end to end: the forced-scalar run and
// the best-available run must produce the same %.17g history, byte
// counts, and participant schedule. The pinned tests above already run
// under whatever mode the environment selects; this one forces both
// extremes in-process so a drifting vector kernel cannot slip through on a
// machine where auto happens to resolve to scalar.
TEST(GoldenRunTest, KernelDispatchIsBitNeutral) {
  const FederatedSystem system = FederatedSystem::Build(GoldenSystemConfig());
  const FlOptions options = GoldenOptions(FlAlgorithm::kFedDaRestart);

  namespace k = tensor::kernels;
  const k::DispatchMode saved_mode = k::dispatch_mode();

  k::SetDispatchMode(k::DispatchMode::kScalar);
  const FlRunResult scalar_run = RunFederated(system, options, kRunSeed);

  k::SetDispatchMode(k::DispatchMode::kAuto);
  const FlRunResult simd_run = RunFederated(system, options, kRunSeed);

  k::SetDispatchMode(saved_mode);

  EXPECT_EQ(GoldenDouble(scalar_run.final_auc),
            GoldenDouble(simd_run.final_auc));
  EXPECT_EQ(GoldenDouble(scalar_run.final_mrr),
            GoldenDouble(simd_run.final_mrr));
  EXPECT_EQ(scalar_run.total_uplink_scalars, simd_run.total_uplink_scalars);
  EXPECT_EQ(scalar_run.total_uplink_bytes, simd_run.total_uplink_bytes);
  EXPECT_EQ(scalar_run.total_downlink_scalars,
            simd_run.total_downlink_scalars);
  EXPECT_EQ(scalar_run.total_downlink_bytes, simd_run.total_downlink_bytes);
  ASSERT_EQ(scalar_run.history.size(), simd_run.history.size());
  for (size_t i = 0; i < scalar_run.history.size(); ++i) {
    EXPECT_EQ(GoldenDouble(scalar_run.history[i].auc),
              GoldenDouble(simd_run.history[i].auc))
        << "round " << i;
    EXPECT_EQ(scalar_run.history[i].participants,
              simd_run.history[i].participants)
        << "round " << i;
  }

  // And the scalar extreme still reproduces the pinned golden, so this
  // test cannot drift away from the arrays above.
  const Golden golden{
      /*final_auc=*/"0.51123046875",
      /*final_mrr=*/"0.41119791666666694",
      /*total_uplink_scalars=*/27640,
      /*total_uplink_bytes=*/117642,
      /*total_downlink_scalars=*/27640,
      /*total_downlink_bytes=*/117642,
      /*round_auc=*/{"0.47296142578125", "0.52227783203125",
                     "0.5264892578125", "0.50677490234375",
                     "0.51123046875"},
      /*participants=*/{4, 4, 3, 4, 3},
  };
  CheckOrRegen("KernelDispatchIsBitNeutral", scalar_run, golden);
}

}  // namespace
}  // namespace fedda::fl
