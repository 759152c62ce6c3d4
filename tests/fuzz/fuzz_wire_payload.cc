#include <cstdint>
#include <cstdlib>
#include <vector>

#include "fl/wire.h"
#include "tensor/parameter_store.h"
#include "tests/fuzz/fuzz_harness.h"

namespace {

/// A small fixed store so a successfully decoded payload can also be
/// applied: ApplyTo's group/size validation is part of the trust boundary
/// (a decoded-but-mismatched payload must return a Status, not trip an
/// internal CHECK).
fedda::tensor::ParameterStore* ApplyStore() {
  static fedda::tensor::ParameterStore* store = [] {
    auto* s = new fedda::tensor::ParameterStore();
    s->Register("w0", fedda::tensor::Tensor::Zeros(2, 3));
    s->Register("w1", fedda::tensor::Tensor::Zeros(4, 1),
                /*disentangled=*/true, /*edge_type=*/0);
    s->Register("w2", fedda::tensor::Tensor::Zeros(1, 5),
                /*disentangled=*/true, /*edge_type=*/1);
    return s;
  }();
  return store;
}

}  // namespace

/// fl::wire uplink/downlink payloads: Deserialize is reached from both
/// transport codecs (nested) and directly when payload bytes are stored or
/// relayed. A successful parse must be canonical — Serialize() gives back
/// exactly the input and EncodedBytes() its length — and the payload is
/// then applied to a store with a different layout, exercising the ApplyTo
/// validation path too.
FEDDA_FUZZ_TARGET(WirePayload) {
  const std::vector<uint8_t> bytes(data, data + size);
  fedda::fl::WirePayload payload;
  if (payload.Deserialize(bytes).ok()) {
    if (payload.Serialize() != bytes ||
        payload.EncodedBytes() != static_cast<int64_t>(bytes.size())) {
      std::abort();
    }
    (void)payload.ApplyTo(ApplyStore());
  }
}
