#include "tensor/checkpoint.h"

#include <cstdio>
#include <cstdint>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "core/binary_io.h"
#include "core/rng.h"

namespace fedda::tensor {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  ParameterStore MakeStore(uint64_t seed) {
    core::Rng rng(seed);
    ParameterStore store;
    store.Register("enc/W", Tensor::RandomNormal(4, 8, &rng));
    store.Register("enc/edge_emb", Tensor::RandomNormal(3, 2, &rng),
                   /*disentangled=*/true);
    store.Register("dec/rel/co-view", Tensor::RandomNormal(1, 8, &rng),
                   /*disentangled=*/true, /*edge_type=*/0);
    return store;
  }

  std::string path_ = ::testing::TempDir() + "/fedda_checkpoint_test.ckpt";
};

TEST_F(CheckpointTest, SaveLoadRoundTrip) {
  const ParameterStore original = MakeStore(1);
  ASSERT_TRUE(SaveCheckpoint(original, path_).ok());

  ParameterStore loaded;
  ASSERT_TRUE(LoadCheckpoint(path_, &loaded).ok());
  ASSERT_TRUE(loaded.SameStructure(original));
  for (int id = 0; id < original.num_groups(); ++id) {
    EXPECT_TRUE(loaded.value(id).Equals(original.value(id)));
    EXPECT_EQ(loaded.info(id).disentangled, original.info(id).disentangled);
    EXPECT_EQ(loaded.info(id).edge_type, original.info(id).edge_type);
  }
}

TEST_F(CheckpointTest, LoadRequiresEmptyStore) {
  const ParameterStore original = MakeStore(1);
  ASSERT_TRUE(SaveCheckpoint(original, path_).ok());
  ParameterStore not_empty = MakeStore(2);
  EXPECT_EQ(LoadCheckpoint(path_, &not_empty).code(),
            core::StatusCode::kFailedPrecondition);
}

TEST_F(CheckpointTest, RestoreValuesIntoMatchingStore) {
  const ParameterStore original = MakeStore(1);
  ASSERT_TRUE(SaveCheckpoint(original, path_).ok());
  ParameterStore target = MakeStore(99);  // same structure, other values
  ASSERT_FALSE(target.value(0).Equals(original.value(0)));
  ASSERT_TRUE(RestoreCheckpointValues(path_, &target).ok());
  for (int id = 0; id < original.num_groups(); ++id) {
    EXPECT_TRUE(target.value(id).Equals(original.value(id)));
  }
}

TEST_F(CheckpointTest, RestoreRejectsStructureMismatch) {
  const ParameterStore original = MakeStore(1);
  ASSERT_TRUE(SaveCheckpoint(original, path_).ok());
  ParameterStore different;
  different.Register("other", Tensor::Zeros(2, 2));
  EXPECT_EQ(RestoreCheckpointValues(path_, &different).code(),
            core::StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, RejectsNonCheckpointFile) {
  {
    std::ofstream out(path_);
    out << "this is not a checkpoint";
  }
  ParameterStore store;
  const core::Status status = LoadCheckpoint(path_, &store);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(store.num_groups(), 0);
}

TEST_F(CheckpointTest, RejectsTruncatedFile) {
  const ParameterStore original = MakeStore(1);
  ASSERT_TRUE(SaveCheckpoint(original, path_).ok());
  // Truncate the file to half its size.
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(core::ReadFile(path_, &bytes).ok());
  bytes.resize(bytes.size() / 2);
  ASSERT_TRUE(core::WriteFile(path_, bytes).ok());

  ParameterStore store;
  EXPECT_FALSE(LoadCheckpoint(path_, &store).ok());
}

// A header declaring rows = cols = 2^31: the product overflows int64
// multiplication into UB territory (and would demand exabytes even when it
// doesn't), so the reader must reject the shape against the bytes actually
// in the file before computing or allocating anything.
TEST_F(CheckpointTest, RejectsShapeProductOverflow) {
  core::ByteWriter writer;
  writer.WriteU32(0xF3DDA001);  // magic
  writer.WriteU32(1);           // version
  writer.WriteU32(1);           // one group
  writer.WriteString("w0");
  writer.WriteI64(int64_t{1} << 31);  // rows
  writer.WriteI64(int64_t{1} << 31);  // cols
  writer.WriteU32(0);                 // disentangled
  writer.WriteI64(-1);                // edge_type
  const std::vector<uint8_t> bytes = writer.Release();
  ASSERT_TRUE(core::WriteFile(path_, bytes).ok());
  ParameterStore store;
  const core::Status status = LoadCheckpoint(path_, &store);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("tensor block exceeds checkpoint file"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(store.num_groups(), 0);
}

TEST_F(CheckpointTest, RejectsTrailingByte) {
  ASSERT_TRUE(SaveCheckpoint(MakeStore(1), path_).ok());
  std::ofstream(path_, std::ios::binary | std::ios::app).put('\0');
  ParameterStore store;
  EXPECT_EQ(LoadCheckpoint(path_, &store).code(),
            core::StatusCode::kInvalidArgument);
  EXPECT_EQ(store.num_groups(), 0);
  ParameterStore target = MakeStore(2);
  EXPECT_EQ(RestoreCheckpointValues(path_, &target).code(),
            core::StatusCode::kInvalidArgument);
}

// Two zero-size groups both named "a": ParameterStore::Register CHECKs
// that names are unique, so the loader must reject the file before it
// registers anything.
TEST_F(CheckpointTest, RejectsDuplicateGroupName) {
  core::ByteWriter writer;
  writer.WriteU32(0xF3DDA001);  // magic
  writer.WriteU32(1);           // version
  writer.WriteU32(2);           // two groups
  for (int i = 0; i < 2; ++i) {
    writer.WriteString("a");
    writer.WriteI64(0);   // rows
    writer.WriteI64(0);   // cols
    writer.WriteU32(0);   // disentangled
    writer.WriteI64(-1);  // edge_type
  }
  const std::vector<uint8_t> bytes = writer.Release();
  ASSERT_EQ(bytes.size(), 78u);
  ASSERT_TRUE(core::WriteFile(path_, bytes).ok());
  ParameterStore store;
  const core::Status status = LoadCheckpoint(path_, &store);
  EXPECT_EQ(status.code(), core::StatusCode::kInvalidArgument)
      << status.ToString();
  EXPECT_EQ(store.num_groups(), 0);
}

TEST_F(CheckpointTest, MissingFileFailsCleanly) {
  ParameterStore store;
  EXPECT_EQ(LoadCheckpoint("/nonexistent_xyz/a.ckpt", &store).code(),
            core::StatusCode::kIoError);
}

}  // namespace
}  // namespace fedda::tensor
