#ifndef FEDDA_CORE_BINARY_IO_H_
#define FEDDA_CORE_BINARY_IO_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "core/status.h"

namespace fedda::core {

/// Little-endian binary writer for checkpoint files. All write methods are
/// no-ops after the first failure; check `status()` (or the Close() result)
/// once at the end rather than after every call.
class BinaryWriter {
 public:
  BinaryWriter() = default;
  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;
  // A failure here is unreportable; callers that care call Close() directly.
  ~BinaryWriter() { (void)Close(); }

  /// Opens `path` for writing (truncates).
  Status Open(const std::string& path);

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

  [[nodiscard]] const Status& status() const { return status_; }

  /// Flushes and closes; returns the accumulated status.
  Status Close();

 private:
  void WriteRaw(const void* data, size_t size);

  std::ofstream out_;
  Status status_;
};

/// Little-endian binary reader matching BinaryWriter. Read methods return
/// defaults after the first failure; check `status()` at the end.
///
/// Like ByteReader, block reads validate their count against the bytes
/// actually left in the file *before* allocating — a corrupt or hostile
/// length field surfaces as a clean IoError, never an unbounded
/// allocation. Decoders should additionally bound counts they multiply
/// (rows*cols, dim*count) against `remaining()` before calling ReadFloats
/// so the product cannot overflow.
class BinaryReader {
 public:
  BinaryReader() = default;
  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;

  Status Open(const std::string& path);

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

  [[nodiscard]] const Status& status() const { return status_; }
  /// Bytes left before end-of-file (0 after a failure).
  [[nodiscard]] size_t remaining();
  /// True when the stream is positioned at end-of-file with no errors.
  [[nodiscard]] bool AtEof();

 private:
  void ReadRaw(void* data, size_t size);

  std::ifstream in_;
  size_t file_size_ = 0;
  Status status_;
};

/// In-memory little-endian byte-buffer writer with the same encoding as
/// BinaryWriter; this is the substrate of the round-payload wire format
/// (fl/wire.h), where payloads are serialized to byte vectors rather than
/// files. Writes never fail.
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
/// Status, never as out-of-bounds access. The buffer is borrowed and must
/// outlive the reader.
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
