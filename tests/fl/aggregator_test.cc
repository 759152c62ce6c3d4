#include "fl/aggregator.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "fl/activation.h"
#include "tensor/parameter_store.h"
#include "tensor/tensor.h"

namespace fedda::fl {
namespace {

using tensor::ParameterStore;
using tensor::Tensor;

/// Shared layout: one always-shared group and two disentangled groups.
/// kTensor granularity -> 2 units (one per disentangled group); kScalar ->
/// 8 units (4 scalars each).
ParameterStore MakeStore(uint64_t seed) {
  ParameterStore store;
  core::Rng rng(seed);
  auto fill = [&](int64_t rows, int64_t cols) {
    Tensor t(rows, cols);
    for (int64_t i = 0; i < t.size(); ++i) {
      t.data()[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
    return t;
  };
  store.Register("shared", fill(2, 2));
  store.Register("rel_a", fill(1, 4), /*disentangled=*/true, /*edge_type=*/0);
  store.Register("rel_b", fill(2, 2), /*disentangled=*/true, /*edge_type=*/1);
  return store;
}

/// A client update: reference plus a deterministic per-client perturbation.
ParameterStore MakeUpdate(const ParameterStore& reference, uint64_t seed) {
  ParameterStore update = reference;
  core::Rng rng(seed);
  for (int gid = 0; gid < update.num_groups(); ++gid) {
    Tensor& value = update.value(gid);
    for (int64_t i = 0; i < value.size(); ++i) {
      value.data()[i] += static_cast<float>(rng.Uniform(-0.5, 0.5));
    }
  }
  return update;
}

/// The old server's one-pass FedAvg arithmetic, verbatim: Zero, Axpy per
/// participant in order, Scale. The streaming result must be bit-identical.
Tensor OnePassFedAvg(const std::vector<ParameterStore>& updates,
                     const std::vector<double>& weights, int gid) {
  Tensor target(updates[0].value(gid).rows(), updates[0].value(gid).cols());
  target.Zero();
  double total = 0.0;
  for (size_t p = 0; p < updates.size(); ++p) {
    target.Axpy(static_cast<float>(weights[p]), updates[p].value(gid));
    total += weights[p];
  }
  target.Scale(1.0f / static_cast<float>(total));
  return target;
}

void ExpectBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.size(), b.size());
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]) << "scalar " << i;
  }
}

TEST(StreamingAggregatorTest, FedAvgDenseMatchesOnePassBitExactly) {
  const ParameterStore reference = MakeStore(1);
  std::vector<ParameterStore> updates;
  const std::vector<double> weights = {1.0, 2.5, 3.0};
  for (uint64_t c = 0; c < 3; ++c) updates.push_back(MakeUpdate(reference, 10 + c));

  ParameterStore global = reference;
  const std::vector<int> selected = {0, 2};  // group 1 unselected this round
  StreamingAggregator aggregator(&global, nullptr, selected,
                                 StreamingAggregator::Config{});
  for (size_t p = 0; p < updates.size(); ++p) {
    const std::vector<double> magnitudes = aggregator.Accumulate(
        static_cast<int>(p), weights[p], updates[p]);
    EXPECT_TRUE(magnitudes.empty()) << "FedAvg computes no mask magnitudes";
  }
  EXPECT_EQ(aggregator.num_consumed(), 3);
  std::vector<uint8_t> groups_updated;
  aggregator.Finalize(&global, &groups_updated);

  EXPECT_EQ(groups_updated, (std::vector<uint8_t>{1, 0, 1}));
  ExpectBitIdentical(global.value(0), OnePassFedAvg(updates, weights, 0));
  ExpectBitIdentical(global.value(2), OnePassFedAvg(updates, weights, 2));
  // The unselected group keeps the reference values untouched.
  ExpectBitIdentical(global.value(1), reference.value(1));
}

TEST(StreamingAggregatorTest, FedDaTensorGranularityHonorsMasks) {
  const ParameterStore reference = MakeStore(2);
  ActivationOptions activation;  // kTensor
  ActivationState state(3, reference, activation);
  ASSERT_EQ(state.num_units(), 2);

  // Round 1 mask update: unit 0 keeps only client 2 (clients 0/1 below the
  // mean magnitude); unit 1 keeps everyone (all at the mean, not below).
  state.UpdateMasks({0, 1, 2}, {{0.1, 0.5}, {0.2, 0.5}, {0.9, 0.5}});
  ASSERT_FALSE(state.UnitActive(0, 0));
  ASSERT_FALSE(state.UnitActive(1, 0));
  ASSERT_TRUE(state.UnitActive(2, 0));
  for (int c = 0; c < 3; ++c) ASSERT_TRUE(state.UnitActive(c, 1));

  std::vector<ParameterStore> updates;
  for (uint64_t c = 0; c < 3; ++c) updates.push_back(MakeUpdate(reference, 20 + c));

  ParameterStore global = reference;
  StreamingAggregator::Config config;
  config.fedda = true;
  StreamingAggregator aggregator(&global, &state, {}, config);
  std::vector<std::vector<double>> magnitudes;
  for (size_t p = 0; p < updates.size(); ++p) {
    magnitudes.push_back(
        aggregator.Accumulate(static_cast<int>(p), 1.0, updates[p]));
  }
  std::vector<uint8_t> groups_updated;
  aggregator.Finalize(&global, &groups_updated);
  EXPECT_EQ(groups_updated, (std::vector<uint8_t>{1, 1, 1}));

  // Group 0 (shared, outside [N_d]): everyone contributes.
  ExpectBitIdentical(global.value(0),
                     OnePassFedAvg(updates, {1.0, 1.0, 1.0}, 0));
  // Group 1 (unit 0): only client 2's update survives the mask.
  ExpectBitIdentical(global.value(1),
                     OnePassFedAvg({updates[2]}, {1.0}, 1));
  // Group 2 (unit 1): everyone.
  ExpectBitIdentical(global.value(2),
                     OnePassFedAvg(updates, {1.0, 1.0, 1.0}, 2));

  // Incremental magnitudes: mean |delta| against the reference for active
  // units, 0.0 for masked-off units (no data transmitted).
  for (int c = 0; c < 3; ++c) {
    const Tensor delta_b =
        updates[static_cast<size_t>(c)].value(2).Sub(reference.value(2));
    EXPECT_DOUBLE_EQ(magnitudes[static_cast<size_t>(c)][1],
                     delta_b.AbsMean());
  }
  EXPECT_EQ(magnitudes[0][0], 0.0);
  EXPECT_EQ(magnitudes[1][0], 0.0);
  const Tensor delta_a2 = updates[2].value(1).Sub(reference.value(1));
  EXPECT_DOUBLE_EQ(magnitudes[2][0], delta_a2.AbsMean());
}

TEST(StreamingAggregatorTest, ScalarGranularityAggregatesPerScalar) {
  const ParameterStore reference = MakeStore(3);
  ActivationOptions activation;
  activation.granularity = ActivationGranularity::kScalar;
  ActivationState state(2, reference, activation);
  ASSERT_EQ(state.num_units(), 8);  // 4 scalars in each disentangled group

  // Mask off client 0 for the first scalar of group 1 (unit 0): client 1's
  // magnitude is above the mean, client 0's below.
  std::vector<std::vector<double>> mask_mags(
      2, std::vector<double>(8, 0.5));
  mask_mags[0][0] = 0.1;
  mask_mags[1][0] = 0.9;
  state.UpdateMasks({0, 1}, mask_mags);
  ASSERT_FALSE(state.UnitActive(0, 0));
  ASSERT_TRUE(state.UnitActive(1, 0));

  std::vector<ParameterStore> updates;
  for (uint64_t c = 0; c < 2; ++c) updates.push_back(MakeUpdate(reference, 30 + c));
  const std::vector<double> weights = {2.0, 3.0};

  ParameterStore global = reference;
  StreamingAggregator::Config config;
  config.fedda = true;
  StreamingAggregator aggregator(&global, &state, {}, config);
  std::vector<std::vector<double>> magnitudes;
  for (size_t p = 0; p < updates.size(); ++p) {
    magnitudes.push_back(
        aggregator.Accumulate(static_cast<int>(p), weights[p], updates[p]));
  }
  std::vector<uint8_t> groups_updated;
  aggregator.Finalize(&global, &groups_updated);
  EXPECT_EQ(groups_updated, (std::vector<uint8_t>{1, 1, 1}));

  // Scalar 0 of group 1: only client 1 contributes.
  EXPECT_EQ(global.value(1).data()[0],
            static_cast<float>((3.0 * updates[1].value(1).data()[0]) / 3.0));
  // Remaining scalars of group 1: weighted mean over both clients, in the
  // old per-scalar double accumulation order.
  for (int64_t s = 1; s < 4; ++s) {
    const double sum = 2.0 * updates[0].value(1).data()[s] +
                       3.0 * updates[1].value(1).data()[s];
    EXPECT_EQ(global.value(1).data()[s], static_cast<float>(sum / 5.0));
  }
  // Per-scalar |delta| magnitudes; masked-off scalar reports 0 for the
  // masked client.
  EXPECT_EQ(magnitudes[0][0], 0.0);
  EXPECT_EQ(magnitudes[1][0],
            std::fabs(updates[1].value(1).data()[0] -
                      reference.value(1).data()[0]));
}

TEST(StreamingAggregatorTest, FinalizeAliasedWithGlobalIsSafe) {
  // The intended runner usage: `global` IS the reference store (no
  // broadcast copy). Finalize must not read reference values it already
  // overwrote.
  const ParameterStore pristine = MakeStore(4);
  ParameterStore global = pristine;
  std::vector<int> all_groups = {0, 1, 2};
  const ParameterStore update = MakeUpdate(pristine, 40);

  StreamingAggregator aggregator(&global, nullptr, all_groups,
                                 StreamingAggregator::Config{});
  aggregator.Accumulate(0, 1.0, update);
  std::vector<uint8_t> groups_updated;
  aggregator.Finalize(&global, &groups_updated);
  for (int gid = 0; gid < 3; ++gid) {
    ExpectBitIdentical(global.value(gid),
                       OnePassFedAvg({update}, {1.0}, gid));
  }
}

}  // namespace
}  // namespace fedda::fl
