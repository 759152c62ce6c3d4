#ifndef FEDDA_CORE_BINARY_IO_H_
#define FEDDA_CORE_BINARY_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"

namespace fedda::core {

/// Reads the whole file at `path` into `bytes` (replacing its contents).
/// Every failure, a missing path or a directory included, is an IoError.
[[nodiscard]] Status ReadFile(const std::string& path,
                              std::vector<uint8_t>* bytes);

/// Writes `bytes` to `path`, truncating. Every failure is an IoError.
[[nodiscard]] Status WriteFile(const std::string& path,
                               const std::vector<uint8_t>& bytes);

/// In-memory little-endian byte-buffer writer: the one encoding of the
/// wire messages (fl/wire.h, net/transport.h) and of the checkpoint,
/// activation-state and graph files, which are encoded here and written
/// once with WriteFile. Writes never fail.
class ByteWriter {
 public:
  ByteWriter() = default;

  void WriteU8(uint8_t value);
  void WriteU32(uint32_t value);
  void WriteU64(uint64_t value);
  void WriteI64(int64_t value);
  void WriteFloat(float value);
  void WriteDouble(double value);
  /// Length-prefixed UTF-8 string.
  void WriteString(const std::string& value);
  /// Raw float block (no length prefix; callers write the count first).
  void WriteFloats(const std::vector<float>& values);
  /// Raw byte block (no length prefix; callers write the count first).
  void WriteBytes(const std::vector<uint8_t>& bytes);

  int64_t size() const { return static_cast<int64_t>(buffer_.size()); }
  const std::vector<uint8_t>& bytes() const { return buffer_; }
  /// Moves the accumulated buffer out (the writer is empty afterwards).
  std::vector<uint8_t> Release() { return std::move(buffer_); }

 private:
  void WriteRaw(const void* data, size_t size);

  std::vector<uint8_t> buffer_;
};

/// Bounds-checked reader over a byte buffer, matching ByteWriter. The first
/// out-of-bounds read latches an IoError status and every later read
/// returns defaults — truncated or corrupt payloads surface as a clean
/// Status, never as out-of-bounds access. Block reads validate their count
/// against `remaining()` before allocating, so a hostile length field is
/// rejected, never allocated; decoders additionally bound counts they
/// multiply (rows*cols, dim*count) against `remaining()` so the product
/// cannot overflow. The buffer is borrowed and must outlive the reader;
/// file decoders read the whole file with ReadFile first.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t ReadU8();
  uint32_t ReadU32();
  uint64_t ReadU64();
  int64_t ReadI64();
  float ReadFloat();
  double ReadDouble();
  std::string ReadString();
  /// Reads exactly `count` floats.
  std::vector<float> ReadFloats(size_t count);
  /// Reads exactly `count` raw bytes.
  std::vector<uint8_t> ReadBytes(size_t count);
  /// Steps over exactly `count` bytes without copying them, for decoders
  /// that validate a block in place (read it at `position()` first).
  void Skip(size_t count);

  [[nodiscard]] const Status& status() const { return status_; }
  /// Offset of the next byte to read.
  [[nodiscard]] size_t position() const { return pos_; }
  /// Bytes left to read (0 after a failure).
  [[nodiscard]] size_t remaining() const {
    return status_.ok() ? size_ - pos_ : 0;
  }
  /// True when the whole buffer was consumed with no errors.
  [[nodiscard]] bool AtEnd() const { return status_.ok() && pos_ == size_; }

 private:
  void ReadRaw(void* data, size_t size);

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;
  Status status_;
};

}  // namespace fedda::core

#endif  // FEDDA_CORE_BINARY_IO_H_
