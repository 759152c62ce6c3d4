// must-flag az-tb-alloc: a block read on a reader type that does NOT
// self-validate counts (only core::ByteReader does); the size
// argument comes straight from the wire.
// fedda-analyze-entry: DecodeRaw decoder
#include "support.h"

namespace fx_alloc_raw_reader {

class RawReader {
 public:
  explicit RawReader(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}
  uint32_t ReadU32();
  std::vector<uint8_t> ReadBytes(size_t count);

 private:
  const std::vector<uint8_t>& bytes_;
};

fedda::core::Status DecodeRaw(const std::vector<uint8_t>& bytes) {
  RawReader raw(bytes);
  const std::vector<uint8_t> body = raw.ReadBytes(raw.ReadU32());
  if (body.empty()) {
    return fedda::core::Status::IoError("empty body");
  }
  return fedda::core::Status::OK();
}

}  // namespace fx_alloc_raw_reader
