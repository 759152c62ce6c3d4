#ifndef FEDDA_TESTS_FL_WIRE_PIN_PAYLOADS_H_
#define FEDDA_TESTS_FL_WIRE_PIN_PAYLOADS_H_

// Payloads whose serialized bytes are pinned: on their own by
// WireFormatPinTest (tests/fl/wire_test.cc), and nested in round-start and
// round-reply bodies by TransportPinTest (tests/net/transport_test.cc). One
// of each shape the codec writes: dense entries, masked entries whose masks
// end in partial bytes, omitted groups, and header-only payloads.

#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.h"
#include "fl/activation.h"
#include "fl/wire.h"
#include "tensor/parameter_store.h"

namespace fedda::fl::testing {

/// Five groups of 15, 14, 3, 4 and 25 scalars (none a multiple of 8);
/// groups 1, 2 and 4 are disentangled.
inline tensor::ParameterStore PinStore() {
  core::Rng rng(2024);
  tensor::ParameterStore store;
  store.Register("dense0", tensor::Tensor::RandomNormal(3, 5, &rng));
  store.Register("ent_a", tensor::Tensor::RandomNormal(2, 7, &rng),
                 /*disentangled=*/true, /*edge_type=*/0);
  store.Register("ent_b", tensor::Tensor::RandomNormal(1, 3, &rng),
                 /*disentangled=*/true, /*edge_type=*/1);
  store.Register("dense1", tensor::Tensor::RandomNormal(1, 4, &rng));
  store.Register("ent_c", tensor::Tensor::RandomNormal(5, 5, &rng),
                 /*disentangled=*/true, /*edge_type=*/2);
  return store;
}

struct PinPayload {
  std::string name;
  WirePayload payload;
};

inline std::vector<PinPayload> PinPayloads() {
  const tensor::ParameterStore store = PinStore();
  std::vector<PinPayload> out;
  out.push_back({"fedavg-dense-uplink",
                 BuildDenseUplinkPayload({0, 2, 3}, /*client=*/1,
                                         /*round=*/4, store)});
  {
    // Tensor granularity: one unit per disentangled group; ent_b is off.
    const ActivationOptions options;
    ActivationState state(3, store, options);
    state.SetClientMask(2, {1, 0, 1});
    out.push_back({"fedda-tensor-uplink",
                   BuildUplinkPayload(state, /*client=*/2, /*round=*/6,
                                      store)});
  }
  {
    // Scalar granularity: ent_a (14 bits) and ent_c (25 bits) end in
    // partial mask bytes whose last bit is set; ent_b is fully masked.
    ActivationOptions options;
    options.granularity = ActivationGranularity::kScalar;
    ActivationState state(3, store, options);
    std::vector<uint8_t> mask(static_cast<size_t>(state.num_units()), 0);
    for (const int group : {1, 4}) {
      const int64_t first = state.GroupFirstUnit(group);
      const int64_t count = state.GroupUnitCount(group);
      for (int64_t u = 0; u < count; ++u) {
        mask[static_cast<size_t>(first + u)] =
            (u % 3 != 1 || u == count - 1) ? 1 : 0;
      }
    }
    state.SetClientMask(0, mask);
    out.push_back({"fedda-scalar-uplink",
                   BuildUplinkPayload(state, /*client=*/0, /*round=*/7,
                                      store)});
  }
  out.push_back({"full-downlink",
                 BuildDownlinkPayload({0, 1, 2, 3, 4}, /*client=*/2,
                                      /*round=*/9, store)});
  out.push_back({"empty-downlink",
                 BuildDownlinkPayload({}, /*client=*/1, /*round=*/9, store)});
  out.push_back({"default", WirePayload()});
  return out;
}

}  // namespace fedda::fl::testing

#endif  // FEDDA_TESTS_FL_WIRE_PIN_PAYLOADS_H_
