#include <cstddef>
#include <cstdint>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "core/binary_io.h"
#include "fl/activation.h"

namespace fedda::fl {
namespace {

using tensor::ParameterStore;
using tensor::Tensor;

ParameterStore MakeReference() {
  ParameterStore store;
  store.Register("W", Tensor::Zeros(2, 2));
  store.Register("edge_emb", Tensor::Zeros(2, 2), /*disentangled=*/true);
  store.Register("rel", Tensor::Zeros(1, 3), /*disentangled=*/true);
  return store;
}

class ActivationIoTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = ::testing::TempDir() + "/fedda_activation.state";
};

TEST_F(ActivationIoTest, SaveLoadRoundTripTensorGranularity) {
  ParameterStore ref = MakeReference();
  ActivationOptions options;
  ActivationState state(3, ref, options);
  state.UpdateMasks({0, 1, 2}, {{1.0, 9.0}, {2.0, 9.0}, {9.0, 9.0}});
  state.DeactivateClient(1);
  ASSERT_TRUE(state.Save(path_).ok());

  ActivationState restored(3, ref, options);
  ASSERT_TRUE(restored.Load(path_).ok());
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(restored.client_active(c), state.client_active(c));
    for (int64_t u = 0; u < state.num_units(); ++u) {
      EXPECT_EQ(restored.UnitActive(c, u), state.UnitActive(c, u));
    }
  }
  EXPECT_EQ(restored.num_active_clients(), 2);
}

TEST_F(ActivationIoTest, SaveLoadRoundTripScalarGranularity) {
  ParameterStore ref = MakeReference();
  ActivationOptions options;
  options.granularity = ActivationGranularity::kScalar;
  ActivationState state(2, ref, options);
  std::vector<std::vector<double>> mags = {
      {0, 0, 0, 9, 9, 9, 9}, {9, 9, 9, 9, 9, 9, 9}};
  state.UpdateMasks({0, 1}, mags);
  ASSERT_TRUE(state.Save(path_).ok());

  ActivationState restored(2, ref, options);
  ASSERT_TRUE(restored.Load(path_).ok());
  EXPECT_EQ(restored.ActiveUnits(0), state.ActiveUnits(0));
  for (int c = 0; c < 2; ++c) {
    EXPECT_EQ(restored.ClientMask(c), state.ClientMask(c));
  }
}

TEST_F(ActivationIoTest, LoadRejectsLayoutMismatch) {
  ParameterStore ref = MakeReference();
  ActivationOptions options;
  ActivationState state(3, ref, options);
  ASSERT_TRUE(state.Save(path_).ok());

  // Wrong client count.
  ActivationState wrong_clients(4, ref, options);
  EXPECT_FALSE(wrong_clients.Load(path_).ok());

  // Wrong granularity.
  ActivationOptions scalar_options;
  scalar_options.granularity = ActivationGranularity::kScalar;
  ActivationState wrong_gran(3, ref, scalar_options);
  EXPECT_FALSE(wrong_gran.Load(path_).ok());
}

TEST_F(ActivationIoTest, RejectsLegacyV1Format) {
  // Hand-written v1 file: magic 0xF3DDAAC7, no version field, no options,
  // and one u32 per activity/mask bit. Save writes only the v2 format, so
  // the old magic is not an activation-state file.
  core::ByteWriter writer;
  writer.WriteU32(0xF3DDAAC7);
  writer.WriteU32(3);  // clients
  writer.WriteU32(0);  // tensor granularity
  writer.WriteI64(2);  // units
  for (int c = 0; c < 3; ++c) {
    for (int bit = 0; bit < 3; ++bit) writer.WriteU32(c == 1 ? 0 : 1);
  }
  ASSERT_TRUE(core::WriteFile(path_, writer.bytes()).ok());
  ParameterStore ref = MakeReference();
  ActivationState state(3, ref, ActivationOptions{});
  EXPECT_EQ(state.Load(path_).code(), core::StatusCode::kInvalidArgument);
  EXPECT_EQ(state.num_active_clients(), 3);
}

TEST_F(ActivationIoTest, LoadRejectsOptionMismatches) {
  ParameterStore ref = MakeReference();
  const ActivationOptions options;  // alpha 0.5, mean rule, percentile 0.25
  const ActivationState state(3, ref, options);
  ASSERT_TRUE(state.Save(path_).ok());

  ActivationOptions other_alpha = options;
  other_alpha.alpha = 0.9;
  EXPECT_FALSE(ActivationState(3, ref, other_alpha).Load(path_).ok());

  ActivationOptions other_rule = options;
  other_rule.threshold_rule = ThresholdRule::kMedian;
  EXPECT_FALSE(ActivationState(3, ref, other_rule).Load(path_).ok());

  ActivationOptions other_percentile = options;
  other_percentile.threshold_percentile = 0.75;
  EXPECT_FALSE(ActivationState(3, ref, other_percentile).Load(path_).ok());

  // The exact same options still load.
  EXPECT_TRUE(ActivationState(3, ref, options).Load(path_).ok());
}

TEST_F(ActivationIoTest, BitPackedCheckpointIsCompact) {
  ParameterStore ref = MakeReference();
  ActivationOptions options;
  options.granularity = ActivationGranularity::kScalar;
  const ActivationState state(3, ref, options);  // 7 maskable scalars
  ASSERT_TRUE(state.Save(path_).ok());
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  // Header 44 (magic, version, clients, granularity, units, alpha, rule,
  // percentile) + 1 packed active byte + 3 x 1 packed mask bytes. The old
  // u32-per-bit encoding of the same state was 20 + 3 * (4 + 7 * 4) = 116.
  EXPECT_EQ(static_cast<int64_t>(in.tellg()), 48);
}

TEST_F(ActivationIoTest, LoadRejectsGarbage) {
  {
    std::ofstream out(path_);
    out << "not an activation state";
  }
  ParameterStore ref = MakeReference();
  ActivationState state(3, ref, ActivationOptions{});
  EXPECT_FALSE(state.Load(path_).ok());
  // Failed load leaves the state untouched.
  EXPECT_EQ(state.num_active_clients(), 3);
}

TEST_F(ActivationIoTest, RejectsTrailingByte) {
  ParameterStore ref = MakeReference();
  ActivationState state(3, ref, ActivationOptions{});
  state.DeactivateClient(2);
  ASSERT_TRUE(state.Save(path_).ok());
  std::ofstream(path_, std::ios::binary | std::ios::app).put('\0');
  ActivationState fresh(3, ref, ActivationOptions{});
  EXPECT_EQ(fresh.Load(path_).code(), core::StatusCode::kInvalidArgument);
  EXPECT_EQ(fresh.num_active_clients(), 3);
}

TEST_F(ActivationIoTest, TruncatedFileFailsCleanly) {
  ParameterStore ref = MakeReference();
  ActivationState state(3, ref, ActivationOptions{});
  state.DeactivateClient(2);
  ASSERT_TRUE(state.Save(path_).ok());
  std::vector<uint8_t> full;
  ASSERT_TRUE(core::ReadFile(path_, &full).ok());
  for (size_t len :
       {full.size() - 1, full.size() - 4, size_t{44}, size_t{4}}) {
    const std::vector<uint8_t> prefix(
        full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
    ASSERT_TRUE(core::WriteFile(path_, prefix).ok());
    ActivationState fresh(3, ref, ActivationOptions{});
    EXPECT_FALSE(fresh.Load(path_).ok()) << "length " << len;
    EXPECT_EQ(fresh.num_active_clients(), 3);
  }
}

}  // namespace
}  // namespace fedda::fl
