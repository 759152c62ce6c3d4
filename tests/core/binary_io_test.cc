#include "core/binary_io.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace fedda::core {
namespace {

class FileIoTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = ::testing::TempDir() + "/fedda_binary_io_test.bin";
};

TEST_F(FileIoTest, WriteThenReadRoundTripsEveryType) {
  ByteWriter writer;
  writer.WriteU32(0xDEADBEEF);
  writer.WriteU64(0x1122334455667788ULL);
  writer.WriteI64(-42);
  writer.WriteFloat(3.5f);
  writer.WriteDouble(0.1234567890123456);
  writer.WriteString("hello fedda");
  writer.WriteFloats({1.0f, -2.0f, 0.5f});
  writer.WriteBytes({0x00, 0xFF, 0x7A});
  ASSERT_TRUE(WriteFile(path_, writer.bytes()).ok());

  std::vector<uint8_t> bytes = {1, 2, 3};  // replaced, not appended to
  ASSERT_TRUE(ReadFile(path_, &bytes).ok());
  EXPECT_EQ(bytes, writer.bytes());
  ByteReader reader(bytes);
  EXPECT_EQ(reader.ReadU32(), 0xDEADBEEF);
  EXPECT_EQ(reader.ReadU64(), 0x1122334455667788ULL);
  EXPECT_EQ(reader.ReadI64(), -42);
  EXPECT_EQ(reader.ReadFloat(), 3.5f);
  EXPECT_EQ(reader.ReadDouble(), 0.1234567890123456);
  EXPECT_EQ(reader.ReadString(), "hello fedda");
  EXPECT_EQ(reader.ReadFloats(3), (std::vector<float>{1.0f, -2.0f, 0.5f}));
  EXPECT_EQ(reader.ReadBytes(3), (std::vector<uint8_t>{0x00, 0xFF, 0x7A}));
  EXPECT_TRUE(reader.AtEnd());
}

TEST_F(FileIoTest, EmptyFileRoundTrips) {
  ASSERT_TRUE(WriteFile(path_, {}).ok());
  std::vector<uint8_t> bytes = {9};
  ASSERT_TRUE(ReadFile(path_, &bytes).ok());
  EXPECT_TRUE(bytes.empty());
}

TEST_F(FileIoTest, ReadMissingPathIsIoError) {
  std::vector<uint8_t> bytes;
  EXPECT_EQ(ReadFile("/nonexistent_dir_xyz/file.bin", &bytes).code(),
            StatusCode::kIoError);
}

// A directory opens for reading and fails on the first read (EISDIR),
// where libstdc++'s file streams throw. ReadFile must return a Status.
TEST_F(FileIoTest, ReadDirectoryIsIoError) {
  std::vector<uint8_t> bytes;
  EXPECT_EQ(ReadFile(::testing::TempDir(), &bytes).code(),
            StatusCode::kIoError);
}

TEST_F(FileIoTest, WriteUnwritablePathIsIoError) {
  EXPECT_EQ(WriteFile("/nonexistent_dir_xyz/file.bin", {1}).code(),
            StatusCode::kIoError);
  EXPECT_EQ(WriteFile(::testing::TempDir(), {1}).code(),
            StatusCode::kIoError);
}

TEST(ByteIoTest, RoundTripAllTypes) {
  ByteWriter writer;
  writer.WriteU8(0xAB);
  writer.WriteU32(0xDEADBEEF);
  writer.WriteU64(0x1122334455667788ULL);
  writer.WriteI64(-42);
  writer.WriteFloat(3.5f);
  writer.WriteDouble(-0.25);
  writer.WriteString("hello fedda");
  writer.WriteFloats({1.0f, -2.0f, 0.5f});
  writer.WriteBytes({9, 8, 7});
  EXPECT_EQ(writer.size(), static_cast<int64_t>(writer.bytes().size()));

  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.ReadU8(), 0xAB);
  EXPECT_EQ(reader.ReadU32(), 0xDEADBEEF);
  EXPECT_EQ(reader.ReadU64(), 0x1122334455667788ULL);
  EXPECT_EQ(reader.ReadI64(), -42);
  EXPECT_EQ(reader.ReadFloat(), 3.5f);
  EXPECT_EQ(reader.ReadDouble(), -0.25);
  EXPECT_EQ(reader.ReadString(), "hello fedda");
  EXPECT_EQ(reader.ReadFloats(3), (std::vector<float>{1.0f, -2.0f, 0.5f}));
  EXPECT_EQ(reader.ReadBytes(3), (std::vector<uint8_t>{9, 8, 7}));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_TRUE(reader.status().ok());
}

TEST(ByteIoTest, LittleEndianLayout) {
  ByteWriter writer;
  writer.WriteU32(0x01020304);
  EXPECT_EQ(writer.bytes(),
            (std::vector<uint8_t>{0x04, 0x03, 0x02, 0x01}));
}

TEST(ByteIoTest, OverrunSetsStickyError) {
  ByteWriter writer;
  writer.WriteU32(7);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.ReadU32(), 7u);
  reader.ReadU64();  // asks for more bytes than exist
  EXPECT_FALSE(reader.status().ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
  // Later reads stay failed and return defaults, never touching memory.
  EXPECT_EQ(reader.ReadU32(), 0u);
  EXPECT_EQ(reader.ReadFloats(4), std::vector<float>{});
  EXPECT_FALSE(reader.AtEnd());
}

TEST(ByteIoTest, EmptyString) {
  ByteWriter writer;
  writer.WriteString("");
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.ReadString(), "");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteIoTest, ImplausibleStringLengthRejected) {
  ByteWriter writer;
  writer.WriteU32(0x7FFFFFFF);  // bogus length prefix
  ByteReader reader(writer.bytes());
  reader.ReadString();
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
}

// Counts decoded from input bytes must be validated against the bytes
// left *before* the vector/string is sized, so a forged count is rejected
// rather than allocated.
TEST(ByteIoTest, OversizeCountsRejectedBeforeAllocating) {
  ByteWriter writer;
  writer.WriteU32(64);  // a count; only 4 bytes follow
  writer.WriteU32(0);
  {
    ByteReader reader(writer.bytes());
    reader.ReadU32();
    EXPECT_TRUE(reader.ReadFloats(64).empty());
    EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
    EXPECT_NE(reader.status().message().find("float block exceeds"),
              std::string::npos);
  }
  {
    ByteReader reader(writer.bytes());
    reader.ReadU32();
    EXPECT_TRUE(reader.ReadBytes(64).empty());
    EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
    EXPECT_NE(reader.status().message().find("byte block exceeds"),
              std::string::npos);
  }
  {
    // String length 64 is far below the plausibility cap but still larger
    // than the 4 bytes that follow the prefix.
    ByteReader reader(writer.bytes());
    EXPECT_TRUE(reader.ReadString().empty());
    EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
  }
}

TEST(ByteIoTest, RemainingTracksReadPosition) {
  ByteWriter writer;
  writer.WriteU32(1);
  writer.WriteU64(2);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.remaining(), 12u);
  reader.ReadU32();
  EXPECT_EQ(reader.remaining(), 8u);
  reader.ReadU64();
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteIoTest, GiantCountsRejectedWithoutAllocating) {
  // A corrupt length prefix must not drive a huge allocation (or overflow
  // count * sizeof(float)); the reader fails cleanly instead.
  ByteWriter writer;
  writer.WriteU32(1);
  ByteReader reader(writer.bytes());
  reader.ReadFloats(static_cast<size_t>(-1) / 2);
  EXPECT_FALSE(reader.status().ok());
  ByteReader bytes_reader(writer.bytes());
  bytes_reader.ReadBytes(static_cast<size_t>(-1));
  EXPECT_FALSE(bytes_reader.status().ok());
}

TEST(ByteIoTest, ReleaseHandsOverBuffer) {
  ByteWriter writer;
  writer.WriteU8(1);
  writer.WriteU8(2);
  const std::vector<uint8_t> buffer = writer.Release();
  EXPECT_EQ(buffer, (std::vector<uint8_t>{1, 2}));
}

}  // namespace
}  // namespace fedda::core
