#include "core/binary_io.h"

#include <cstring>

namespace fedda::core {

namespace {
constexpr size_t kMaxStringLength = 1 << 20;
}  // namespace

Status BinaryWriter::Open(const std::string& path) {
  out_.open(path, std::ios::out | std::ios::trunc | std::ios::binary);
  if (!out_.is_open()) {
    status_ = Status::IoError("cannot open for writing: " + path);
  }
  return status_;
}

void BinaryWriter::WriteRaw(const void* data, size_t size) {
  if (!status_.ok()) return;
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(size));
  if (!out_.good()) status_ = Status::IoError("write failed");
}

void BinaryWriter::WriteU32(uint32_t value) { WriteRaw(&value, sizeof(value)); }
void BinaryWriter::WriteU64(uint64_t value) { WriteRaw(&value, sizeof(value)); }
void BinaryWriter::WriteI64(int64_t value) { WriteRaw(&value, sizeof(value)); }
void BinaryWriter::WriteFloat(float value) { WriteRaw(&value, sizeof(value)); }
void BinaryWriter::WriteDouble(double value) {
  WriteRaw(&value, sizeof(value));
}

void BinaryWriter::WriteString(const std::string& value) {
  WriteU32(static_cast<uint32_t>(value.size()));
  WriteRaw(value.data(), value.size());
}

void BinaryWriter::WriteFloats(const std::vector<float>& values) {
  WriteRaw(values.data(), values.size() * sizeof(float));
}

void BinaryWriter::WriteBytes(const std::vector<uint8_t>& bytes) {
  WriteRaw(bytes.data(), bytes.size());
}

Status BinaryWriter::Close() {
  if (out_.is_open()) {
    out_.flush();
    if (!out_.good() && status_.ok()) {
      status_ = Status::IoError("flush failed");
    }
    out_.close();
  }
  return status_;
}

Status BinaryReader::Open(const std::string& path) {
  in_.open(path, std::ios::in | std::ios::binary);
  if (!in_.is_open()) {
    status_ = Status::IoError("cannot open for reading: " + path);
    return status_;
  }
  // The size is the budget every block read is validated against: a
  // decoded count that implies more bytes than the file holds is rejected
  // before any allocation.
  in_.seekg(0, std::ios::end);
  const std::streamoff size = in_.tellg();
  in_.seekg(0, std::ios::beg);
  if (size < 0 || !in_.good()) {
    status_ = Status::IoError("cannot determine file size: " + path);
    return status_;
  }
  file_size_ = static_cast<size_t>(size);
  return status_;
}

size_t BinaryReader::remaining() {
  if (!status_.ok()) return 0;
  const std::streamoff pos = in_.tellg();
  if (pos < 0 || static_cast<size_t>(pos) > file_size_) return 0;
  return file_size_ - static_cast<size_t>(pos);
}

void BinaryReader::ReadRaw(void* data, size_t size) {
  if (!status_.ok()) return;
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (in_.gcount() != static_cast<std::streamsize>(size)) {
    status_ = Status::IoError("unexpected end of file");
  }
}

uint32_t BinaryReader::ReadU32() {
  uint32_t value = 0;
  ReadRaw(&value, sizeof(value));
  return value;
}

uint64_t BinaryReader::ReadU64() {
  uint64_t value = 0;
  ReadRaw(&value, sizeof(value));
  return value;
}

int64_t BinaryReader::ReadI64() {
  int64_t value = 0;
  ReadRaw(&value, sizeof(value));
  return value;
}

float BinaryReader::ReadFloat() {
  float value = 0.0f;
  ReadRaw(&value, sizeof(value));
  return value;
}

double BinaryReader::ReadDouble() {
  double value = 0.0;
  ReadRaw(&value, sizeof(value));
  return value;
}

std::string BinaryReader::ReadString() {
  const uint32_t length = ReadU32();
  if (!status_.ok()) return {};
  if (length > kMaxStringLength || length > remaining()) {
    status_ = Status::IoError("string length implausible (corrupt file?)");
    return {};
  }
  std::string value(length, '\0');
  ReadRaw(value.data(), length);
  return value;
}

std::vector<float> BinaryReader::ReadFloats(size_t count) {
  if (!status_.ok()) return {};
  if (count > remaining() / sizeof(float)) {
    status_ = Status::IoError("float block exceeds file");
    return {};
  }
  std::vector<float> values(count, 0.0f);
  ReadRaw(values.data(), count * sizeof(float));
  return values;
}

std::vector<uint8_t> BinaryReader::ReadBytes(size_t count) {
  if (!status_.ok()) return {};
  if (count > remaining()) {
    status_ = Status::IoError("byte block exceeds file");
    return {};
  }
  std::vector<uint8_t> bytes(count, 0);
  ReadRaw(bytes.data(), count);
  return bytes;
}

bool BinaryReader::AtEof() {
  if (!status_.ok()) return false;
  return in_.peek() == std::char_traits<char>::eof();
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
