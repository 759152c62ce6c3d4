#include "core/binary_io.h"

#include <cstdio>
#include <cstring>

namespace fedda::core {

namespace {
constexpr size_t kMaxStringLength = 1 << 20;
}  // namespace

Status ReadFile(const std::string& path, std::vector<uint8_t>* bytes) {
  // C stdio, not iostreams: libstdc++'s filebuf throws when a read fails
  // (a directory opens, then EISDIR), while ferror reports it.
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("cannot open for reading: " + path);
  }
  bytes->clear();
  uint8_t chunk[1 << 16];
  size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    bytes->insert(bytes->end(), chunk, chunk + got);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) return Status::IoError("cannot read: " + path);
  return Status::OK();
}

Status WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot open for writing: " + path);
  }
  const bool written =
      bytes.empty() ||
      std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  if (std::fclose(file) != 0 || !written) {
    return Status::IoError("write failed: " + path);
  }
  return Status::OK();
}

void ByteWriter::WriteRaw(const void* data, size_t size) {
  const uint8_t* begin = static_cast<const uint8_t*>(data);
  buffer_.insert(buffer_.end(), begin, begin + size);
}

void ByteWriter::WriteU8(uint8_t value) { WriteRaw(&value, sizeof(value)); }
void ByteWriter::WriteU32(uint32_t value) { WriteRaw(&value, sizeof(value)); }
void ByteWriter::WriteU64(uint64_t value) { WriteRaw(&value, sizeof(value)); }
void ByteWriter::WriteI64(int64_t value) { WriteRaw(&value, sizeof(value)); }
void ByteWriter::WriteFloat(float value) { WriteRaw(&value, sizeof(value)); }
void ByteWriter::WriteDouble(double value) { WriteRaw(&value, sizeof(value)); }

void ByteWriter::WriteString(const std::string& value) {
  WriteU32(static_cast<uint32_t>(value.size()));
  WriteRaw(value.data(), value.size());
}

void ByteWriter::WriteFloats(const std::vector<float>& values) {
  WriteRaw(values.data(), values.size() * sizeof(float));
}

void ByteWriter::WriteBytes(const std::vector<uint8_t>& bytes) {
  WriteRaw(bytes.data(), bytes.size());
}

void ByteReader::ReadRaw(void* data, size_t size) {
  if (!status_.ok()) return;
  if (size > size_ - pos_) {
    status_ = Status::IoError("unexpected end of payload");
    return;
  }
  // A zero-length read may carry data() of an empty container, which is
  // null — and passing null to memcpy is UB even for size 0.
  if (size > 0) std::memcpy(data, data_ + pos_, size);
  pos_ += size;
}

uint8_t ByteReader::ReadU8() {
  uint8_t value = 0;
  ReadRaw(&value, sizeof(value));
  return value;
}

uint32_t ByteReader::ReadU32() {
  uint32_t value = 0;
  ReadRaw(&value, sizeof(value));
  return value;
}

uint64_t ByteReader::ReadU64() {
  uint64_t value = 0;
  ReadRaw(&value, sizeof(value));
  return value;
}

int64_t ByteReader::ReadI64() {
  int64_t value = 0;
  ReadRaw(&value, sizeof(value));
  return value;
}

float ByteReader::ReadFloat() {
  float value = 0.0f;
  ReadRaw(&value, sizeof(value));
  return value;
}

double ByteReader::ReadDouble() {
  double value = 0.0;
  ReadRaw(&value, sizeof(value));
  return value;
}

std::string ByteReader::ReadString() {
  const uint32_t length = ReadU32();
  if (!status_.ok()) return {};
  if (length > kMaxStringLength || length > remaining()) {
    status_ = Status::IoError("string length implausible (corrupt payload?)");
    return {};
  }
  std::string value(length, '\0');
  ReadRaw(value.data(), length);
  return value;
}

std::vector<float> ByteReader::ReadFloats(size_t count) {
  if (!status_.ok()) return {};
  if (count > remaining() / sizeof(float)) {
    status_ = Status::IoError("float block exceeds payload");
    return {};
  }
  std::vector<float> values(count, 0.0f);
  ReadRaw(values.data(), count * sizeof(float));
  return values;
}

std::vector<uint8_t> ByteReader::ReadBytes(size_t count) {
  if (!status_.ok()) return {};
  if (count > remaining()) {
    status_ = Status::IoError("byte block exceeds payload");
    return {};
  }
  std::vector<uint8_t> bytes(count, 0);
  ReadRaw(bytes.data(), count);
  return bytes;
}

void ByteReader::Skip(size_t count) {
  if (!status_.ok()) return;
  if (count > size_ - pos_) {
    status_ = Status::IoError("block exceeds payload");
    return;
  }
  pos_ += count;
}

}  // namespace fedda::core
