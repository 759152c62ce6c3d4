#include "fl/activation.h"

#include <gtest/gtest.h>

#include "fl/wire.h"

namespace fedda::fl {
namespace {

using tensor::ParameterStore;
using tensor::Tensor;

/// Reference layout: 2 shared groups (6 + 2 scalars) and 2 disentangled
/// groups (4 + 3 scalars). N = 15 scalars / 4 groups, N_d = 7 scalars / 2
/// groups.
ParameterStore MakeReference() {
  ParameterStore store;
  store.Register("W", Tensor::Zeros(2, 3));
  store.Register("a", Tensor::Zeros(2, 1));
  store.Register("edge_emb", Tensor::Zeros(2, 2), /*disentangled=*/true);
  store.Register("rel", Tensor::Zeros(1, 3), /*disentangled=*/true,
                 /*edge_type=*/0);
  return store;
}

ActivationOptions TensorGran(double alpha = 0.5) {
  ActivationOptions options;
  options.granularity = ActivationGranularity::kTensor;
  options.alpha = alpha;
  return options;
}

ActivationOptions ScalarGran(double alpha = 0.5) {
  ActivationOptions options;
  options.granularity = ActivationGranularity::kScalar;
  options.alpha = alpha;
  return options;
}

/// What `client`'s update carries under its current mask.
WirePayload Uplink(const ActivationState& state, int client,
                   const ParameterStore& params) {
  return BuildUplinkPayload(state, client, /*round=*/0, params);
}

TEST(ActivationStateTest, InitialStateAllActiveAllOnes) {
  ParameterStore ref = MakeReference();
  ActivationState state(3, ref, TensorGran());
  EXPECT_EQ(state.num_clients(), 3);
  EXPECT_EQ(state.num_active_clients(), 3);
  EXPECT_EQ(state.ActiveClients(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(state.num_units(), 2);  // two disentangled groups
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(state.ActiveUnits(c), 2);
    EXPECT_EQ(Uplink(state, c, ref).num_entries(), 4);
    EXPECT_EQ(Uplink(state, c, ref).PayloadScalars(), 15);
  }
}

TEST(ActivationStateTest, ScalarGranularityUnitCount) {
  ParameterStore ref = MakeReference();
  ActivationState state(2, ref, ScalarGran());
  EXPECT_EQ(state.num_units(), 7);  // 4 + 3 disentangled scalars
  EXPECT_EQ(Uplink(state, 0, ref).PayloadScalars(), 15);
}

TEST(ActivationStateTest, UnitLayoutMapsToGroups) {
  ParameterStore ref = MakeReference();
  ActivationState state(1, ref, ScalarGran());
  EXPECT_EQ(state.GroupFirstUnit(0), -1);
  EXPECT_EQ(state.GroupFirstUnit(2), 0);
  EXPECT_EQ(state.GroupFirstUnit(3), 4);
  EXPECT_EQ(state.GroupUnitCount(2), 4);
  EXPECT_EQ(state.GroupUnitCount(0), 0);
  EXPECT_EQ(state.GroupUnitCount(3), 3);
}

TEST(ActivationStateTest, CoverageFollowsGranularityAndMask) {
  ParameterStore ref = MakeReference();
  ActivationState tensor_state(1, ref, TensorGran());
  std::vector<uint8_t> mask = {0, 1};  // edge_emb off, rel on
  EXPECT_EQ(tensor_state.Coverage(mask, 0), GroupCoverage::kWhole);
  EXPECT_EQ(tensor_state.Coverage(mask, 2), GroupCoverage::kNone);
  int64_t first_unit = -2;
  EXPECT_EQ(tensor_state.Coverage(mask, 3, &first_unit),
            GroupCoverage::kWhole);
  EXPECT_EQ(first_unit, 1);

  ActivationState scalar_state(1, ref, ScalarGran());
  mask = {0, 0, 0, 0, 0, 1, 0};  // edge_emb all off, one scalar of rel
  EXPECT_EQ(scalar_state.Coverage(mask, 1, &first_unit),
            GroupCoverage::kWhole);
  EXPECT_EQ(first_unit, -1);
  EXPECT_EQ(scalar_state.Coverage(mask, 2), GroupCoverage::kNone);
  EXPECT_EQ(scalar_state.Coverage(mask, 3, &first_unit),
            GroupCoverage::kScalars);
  EXPECT_EQ(first_unit, 4);
  // A full row covers a disentangled group per scalar all the same: the
  // granularity, not the mask, picks the form.
  mask.assign(7, 1);
  EXPECT_EQ(scalar_state.Coverage(mask, 2), GroupCoverage::kScalars);
}

TEST(ActivationStateTest, UpdateMasksDeactivatesBelowMeanClients) {
  ParameterStore ref = MakeReference();
  ActivationState state(3, ref, TensorGran());
  // Unit 0: magnitudes 1, 2, 9 -> mean 4: clients 0 and 1 deactivated.
  // Unit 1: magnitudes 5, 5, 5 -> mean 5: nobody strictly below.
  state.UpdateMasks({0, 1, 2}, {{1.0, 5.0}, {2.0, 5.0}, {9.0, 5.0}});
  EXPECT_FALSE(state.UnitActive(0, 0));
  EXPECT_FALSE(state.UnitActive(1, 0));
  EXPECT_TRUE(state.UnitActive(2, 0));
  EXPECT_TRUE(state.UnitActive(0, 1));
  EXPECT_TRUE(state.UnitActive(1, 1));
  EXPECT_TRUE(state.UnitActive(2, 1));
}

TEST(ActivationStateTest, UpdateMasksIgnoresInactiveUnits) {
  ParameterStore ref = MakeReference();
  ActivationState state(3, ref, TensorGran());
  state.UpdateMasks({0, 1, 2}, {{1.0, 1.0}, {2.0, 1.0}, {9.0, 1.0}});
  ASSERT_FALSE(state.UnitActive(0, 0));
  // Client 0's unit 0 is inactive: its magnitude must not enter the mean.
  // Remaining contributors 1 (mag 2) and 2 (mag 9): mean 5.5, client 1 drops.
  state.UpdateMasks({0, 1, 2}, {{100.0, 1.0}, {2.0, 1.0}, {9.0, 1.0}});
  EXPECT_FALSE(state.UnitActive(1, 0));
  EXPECT_TRUE(state.UnitActive(2, 0));
}

TEST(ActivationStateTest, TransmissionAccountingAfterMasking) {
  ParameterStore ref = MakeReference();
  ActivationState state(2, ref, TensorGran());
  state.UpdateMasks({0, 1}, {{1.0, 1.0}, {9.0, 9.0}});
  // Client 0 lost both disentangled groups.
  EXPECT_EQ(state.ActiveUnits(0), 0);
  EXPECT_EQ(Uplink(state, 0, ref).num_entries(), 2);     // W, a
  EXPECT_EQ(Uplink(state, 0, ref).PayloadScalars(), 8);  // 6 + 2
  EXPECT_EQ(Uplink(state, 1, ref).num_entries(), 4);
  EXPECT_EQ(Uplink(state, 1, ref).PayloadScalars(), 15);
}

TEST(ActivationStateTest, ScalarGranularityPartialGroupStillRequested) {
  ParameterStore ref = MakeReference();
  ActivationState state(2, ref, ScalarGran());
  // Deactivate 3 of 4 scalars of edge_emb for client 0.
  std::vector<std::vector<double>> mags = {
      {0.0, 0.0, 0.0, 9.0, 9.0, 9.0, 9.0},
      {9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0}};
  state.UpdateMasks({0, 1}, mags);
  EXPECT_EQ(state.ActiveUnits(0), 4);
  EXPECT_TRUE(state.GroupRequested(0, 2));  // one scalar alive
  EXPECT_EQ(Uplink(state, 0, ref).num_entries(), 4);
  EXPECT_EQ(Uplink(state, 0, ref).PayloadScalars(), 8 + 4);
}

TEST(ActivationStateTest, AlphaRuleDeactivatesLowOccupancyClients) {
  ParameterStore ref = MakeReference();
  ActivationState state(3, ref, TensorGran(/*alpha=*/0.6));
  // Client 0 ends with 1/2 active units (0.5 < 0.6 threshold); client 2
  // keeps 2/2.
  state.UpdateMasks({0, 1, 2}, {{1.0, 9.0}, {1.0, 9.0}, {9.0, 9.0}});
  const std::vector<int> dropped = state.DeactivateLowOccupancy({0, 1, 2});
  EXPECT_EQ(dropped, (std::vector<int>{0, 1}));
  EXPECT_FALSE(state.client_active(0));
  EXPECT_TRUE(state.client_active(2));
  EXPECT_EQ(state.num_active_clients(), 1);
}

TEST(ActivationStateTest, AlphaZeroNeverDeactivates) {
  ParameterStore ref = MakeReference();
  ActivationState state(2, ref, TensorGran(/*alpha=*/0.0));
  state.UpdateMasks({0, 1}, {{1.0, 1.0}, {9.0, 9.0}});
  EXPECT_TRUE(state.DeactivateLowOccupancy({0, 1}).empty());
}

TEST(ActivationStateTest, ActivateAllRestoresEverything) {
  ParameterStore ref = MakeReference();
  ActivationState state(3, ref, TensorGran());
  state.UpdateMasks({0, 1, 2}, {{1.0, 1.0}, {2.0, 2.0}, {9.0, 9.0}});
  state.DeactivateClient(0);
  state.ActivateAll();
  EXPECT_EQ(state.num_active_clients(), 3);
  for (int c = 0; c < 3; ++c) EXPECT_EQ(state.ActiveUnits(c), 2);
}

TEST(ActivationStateTest, ReactivateClientResetsOnlyThatMask) {
  ParameterStore ref = MakeReference();
  ActivationState state(2, ref, TensorGran());
  state.UpdateMasks({0, 1}, {{1.0, 1.0}, {9.0, 9.0}});
  state.DeactivateClient(0);
  state.ReactivateClient(0);
  EXPECT_TRUE(state.client_active(0));
  EXPECT_EQ(state.ActiveUnits(0), 2);
}

TEST(ActivationStateTest, NonDisentangledGroupsAlwaysRequested) {
  ParameterStore ref = MakeReference();
  ActivationState state(1, ref, TensorGran());
  std::vector<std::vector<double>> mags = {{0.0, 0.0}};
  // Single client: mean equals own magnitude, never strictly below, so
  // nothing deactivates with one participant.
  state.UpdateMasks({0}, mags);
  EXPECT_EQ(state.ActiveUnits(0), 2);
  EXPECT_TRUE(state.GroupRequested(0, 0));
  EXPECT_TRUE(state.GroupRequested(0, 1));
}

TEST(ActivationStateDeathTest, BadInputsAbort) {
  ParameterStore ref = MakeReference();
  ActivationState state(2, ref, TensorGran());
  EXPECT_DEATH(state.client_active(2), "");
  EXPECT_DEATH(state.UnitActive(0, 5), "");
  EXPECT_DEATH(state.UpdateMasks({0}, {{1.0}}), "");  // wrong unit count
}

}  // namespace
}  // namespace fedda::fl
