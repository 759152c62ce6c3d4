#include "fl/wire.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/binary_io.h"
#include "core/rng.h"
#include "fl/activation.h"
#include "net/transport.h"
#include "tensor/parameter_store.h"
#include "tests/fl/wire_pin_payloads.h"

namespace fedda::fl {
namespace {

using tensor::ParameterStore;
using tensor::Tensor;

/// Mixed layout with sizes that are deliberately not multiples of 8, so the
/// bit-packed masks exercise partial final bytes and padding bits.
ParameterStore MakeStore(uint64_t seed) {
  core::Rng rng(seed);
  ParameterStore store;
  store.Register("dense0", Tensor::RandomNormal(3, 5, &rng));
  store.Register("ent_a", Tensor::RandomNormal(2, 7, &rng),
                 /*disentangled=*/true, /*edge_type=*/0);
  store.Register("ent_b", Tensor::RandomNormal(1, 3, &rng),
                 /*disentangled=*/true, /*edge_type=*/1);
  store.Register("dense1", Tensor::RandomNormal(1, 4, &rng));
  store.Register("ent_c", Tensor::RandomNormal(5, 5, &rng),
                 /*disentangled=*/true, /*edge_type=*/2);
  return store;
}

std::vector<int> AllGroups(const ParameterStore& store) {
  std::vector<int> groups(store.num_groups());
  for (int g = 0; g < store.num_groups(); ++g) groups[g] = g;
  return groups;
}

bool BitIdentical(const ParameterStore& a, const ParameterStore& b) {
  if (a.num_groups() != b.num_groups()) return false;
  for (int g = 0; g < a.num_groups(); ++g) {
    if (a.value(g).size() != b.value(g).size()) return false;
    if (std::memcmp(a.value(g).data(), b.value(g).data(),
                    sizeof(float) * a.value(g).size()) != 0) {
      return false;
    }
  }
  return true;
}

/// Ground truth for "is this scalar shipped by client c's uplink": mirrors
/// the mask semantics BuildUplinkPayload must honor.
bool ScalarShipped(const ActivationState& state, int client, int group,
                   int64_t offset) {
  const int64_t first = state.GroupFirstUnit(group);
  if (first < 0) return true;  // non-disentangled: always whole
  if (state.options().granularity == ActivationGranularity::kTensor) {
    return state.UnitActive(client, first);
  }
  return state.UnitActive(client, first + offset);
}

TEST(PackBitsTest, RoundTripsAllCountsAndZeroPads) {
  core::Rng rng(11);
  for (size_t count : {0, 1, 7, 8, 9, 15, 16, 17, 64, 65}) {
    std::vector<uint8_t> bits(count);
    for (auto& b : bits) b = rng.Uniform() < 0.5 ? 1 : 0;
    const std::vector<uint8_t> packed = PackBits(bits);
    EXPECT_EQ(packed.size(), (count + 7) / 8);
    EXPECT_EQ(UnpackBits(packed, count), bits) << "count=" << count;
    if (count % 8 != 0 && !packed.empty()) {
      // Padding bits above `count` in the final byte must be zero.
      EXPECT_EQ(packed.back() >> (count % 8), 0) << "count=" << count;
    }
  }
}

TEST(WirePayloadTest, DenseUplinkRoundTripsBitIdentical) {
  const ParameterStore sender = MakeStore(1);
  const WirePayload payload =
      BuildDenseUplinkPayload(AllGroups(sender), /*client=*/2, /*round=*/5,
                              sender);
  EXPECT_EQ(payload.kind(), WireKind::kUplink);
  EXPECT_EQ(payload.client(), 2);
  EXPECT_EQ(payload.round(), 5);
  EXPECT_EQ(payload.PayloadScalars(), sender.num_scalars());
  EXPECT_EQ(payload.CoveredScalars(), sender.num_scalars());

  const std::vector<uint8_t> bytes = payload.Serialize();
  EXPECT_EQ(static_cast<int64_t>(bytes.size()), payload.EncodedBytes());

  WirePayload decoded;
  ASSERT_TRUE(decoded.Deserialize(bytes).ok());
  ParameterStore receiver = MakeStore(2);
  ASSERT_TRUE(decoded.ApplyTo(&receiver).ok());

  // Full-coverage dense payload == CopyValuesFrom, bit for bit.
  ParameterStore reference = MakeStore(2);
  reference.CopyValuesFrom(sender);
  EXPECT_TRUE(BitIdentical(receiver, reference));
}

TEST(WirePayloadTest, FullMaskUplinkMatchesDenseBroadcast) {
  const ParameterStore sender = MakeStore(3);
  for (const ActivationGranularity granularity :
       {ActivationGranularity::kTensor, ActivationGranularity::kScalar}) {
    ActivationOptions options;
    options.granularity = granularity;
    const ActivationState state(4, sender, options);  // fresh: all-ones masks

    const WirePayload payload = BuildUplinkPayload(state, 0, 0, sender);
    EXPECT_EQ(payload.PayloadScalars(), sender.num_scalars());

    WirePayload decoded;
    ASSERT_TRUE(decoded.Deserialize(payload.Serialize()).ok());
    ParameterStore receiver = MakeStore(4);
    ASSERT_TRUE(decoded.ApplyTo(&receiver).ok());
    ParameterStore reference = MakeStore(4);
    reference.CopyValuesFrom(sender);
    EXPECT_TRUE(BitIdentical(receiver, reference));
  }
}

TEST(WirePayloadTest, RandomMaskedUplinkRoundTripsAcrossGranularities) {
  const int kClients = 3;
  for (const ActivationGranularity granularity :
       {ActivationGranularity::kTensor, ActivationGranularity::kScalar}) {
    for (uint64_t trial = 0; trial < 8; ++trial) {
      const ParameterStore sender = MakeStore(100 + trial);
      ActivationOptions options;
      options.granularity = granularity;
      ActivationState state(kClients, sender, options);

      // Randomize masks with two mean-rule updates over random magnitudes.
      core::Rng rng(7'000 + trial);
      std::vector<int> participants(kClients);
      for (int c = 0; c < kClients; ++c) participants[c] = c;
      for (int step = 0; step < 2; ++step) {
        std::vector<std::vector<double>> mags(
            kClients, std::vector<double>(state.num_units()));
        for (auto& row : mags) {
          for (auto& m : row) m = rng.Uniform();
        }
        state.UpdateMasks(participants, mags);
      }

      for (int client = 0; client < kClients; ++client) {
        const WirePayload payload =
            BuildUplinkPayload(state, client, /*round=*/3, sender);
        // The payload carries exactly the groups and scalars the reference
        // ships, counted independently of the builder.
        int shipped_groups = 0;
        int64_t shipped_scalars = 0;
        for (int g = 0; g < sender.num_groups(); ++g) {
          int64_t in_group = 0;
          for (int64_t s = 0; s < sender.value(g).size(); ++s) {
            if (ScalarShipped(state, client, g, s)) ++in_group;
          }
          if (in_group > 0) ++shipped_groups;
          shipped_scalars += in_group;
        }
        EXPECT_EQ(payload.num_entries(), shipped_groups);
        EXPECT_EQ(payload.PayloadScalars(), shipped_scalars);

        const std::vector<uint8_t> bytes = payload.Serialize();
        ASSERT_EQ(static_cast<int64_t>(bytes.size()), payload.EncodedBytes());
        WirePayload decoded;
        ASSERT_TRUE(decoded.Deserialize(bytes).ok());
        EXPECT_EQ(decoded.EncodedBytes(), payload.EncodedBytes());
        EXPECT_EQ(decoded.PayloadScalars(), payload.PayloadScalars());

        // Receiver starts from different values; after ApplyTo, exactly the
        // shipped scalars equal the sender's and the rest are untouched.
        ParameterStore receiver = MakeStore(200 + trial);
        const ParameterStore before = receiver;
        ASSERT_TRUE(decoded.ApplyTo(&receiver).ok());
        for (int g = 0; g < sender.num_groups(); ++g) {
          const float* got = receiver.value(g).data();
          const float* sent = sender.value(g).data();
          const float* old = before.value(g).data();
          for (int64_t s = 0; s < sender.value(g).size(); ++s) {
            if (ScalarShipped(state, client, g, s)) {
              EXPECT_EQ(got[s], sent[s]) << "group " << g << " scalar " << s;
            } else {
              EXPECT_EQ(got[s], old[s]) << "group " << g << " scalar " << s;
            }
          }
        }
      }
    }
  }
}

TEST(WirePayloadTest, DownlinkShipsExactlyRequestedGroups) {
  const ParameterStore global = MakeStore(5);
  const std::vector<int> requested = {1, 3, 4};
  const WirePayload payload =
      BuildDownlinkPayload(requested, /*client=*/1, /*round=*/7, global);
  EXPECT_EQ(payload.kind(), WireKind::kDownlink);
  int64_t covered = 0;
  for (int g : requested) covered += global.value(g).size();
  EXPECT_EQ(payload.CoveredScalars(), covered);
  EXPECT_EQ(payload.PayloadScalars(), covered);

  WirePayload decoded;
  ASSERT_TRUE(decoded.Deserialize(payload.Serialize()).ok());
  ParameterStore receiver = MakeStore(6);
  const ParameterStore before = receiver;
  ASSERT_TRUE(decoded.ApplyTo(&receiver).ok());
  for (int g = 0; g < global.num_groups(); ++g) {
    const bool shipped =
        std::find(requested.begin(), requested.end(), g) != requested.end();
    const Tensor& expect = shipped ? global.value(g) : before.value(g);
    EXPECT_EQ(std::memcmp(receiver.value(g).data(), expect.data(),
                          sizeof(float) * expect.size()),
              0)
        << "group " << g;
  }
}

TEST(WirePayloadTest, EmptyDownlinkIsHeaderOnlyAndHarmless) {
  const ParameterStore global = MakeStore(8);
  const WirePayload payload = BuildDownlinkPayload({}, 0, 0, global);
  EXPECT_EQ(payload.PayloadScalars(), 0);
  EXPECT_EQ(payload.CoveredScalars(), 0);

  WirePayload decoded;
  ASSERT_TRUE(decoded.Deserialize(payload.Serialize()).ok());
  ParameterStore receiver = MakeStore(9);
  const ParameterStore before = receiver;
  ASSERT_TRUE(decoded.ApplyTo(&receiver).ok());
  EXPECT_TRUE(BitIdentical(receiver, before));
}

// Canonical round trip: decoding a payload's bytes and serializing again
// gives back the same bytes, for every payload shape the codec writes.
TEST(WirePayloadTest, DeserializeThenSerializeIsIdentity) {
  for (const testing::PinPayload& pin : testing::PinPayloads()) {
    const std::vector<uint8_t>& bytes = pin.payload.Serialize();
    EXPECT_EQ(static_cast<int64_t>(bytes.size()), pin.payload.EncodedBytes())
        << pin.name;
    WirePayload decoded;
    ASSERT_TRUE(decoded.Deserialize(bytes).ok()) << pin.name;
    EXPECT_EQ(decoded.Serialize(), bytes) << pin.name;
    EXPECT_EQ(decoded.EncodedBytes(), pin.payload.EncodedBytes()) << pin.name;
    EXPECT_EQ(decoded.kind(), pin.payload.kind()) << pin.name;
    EXPECT_EQ(decoded.client(), pin.payload.client()) << pin.name;
    EXPECT_EQ(decoded.round(), pin.payload.round()) << pin.name;
    EXPECT_EQ(decoded.total_groups(), pin.payload.total_groups()) << pin.name;
    EXPECT_EQ(decoded.num_entries(), pin.payload.num_entries()) << pin.name;
    EXPECT_EQ(decoded.PayloadScalars(), pin.payload.PayloadScalars())
        << pin.name;
    EXPECT_EQ(decoded.CoveredScalars(), pin.payload.CoveredScalars())
        << pin.name;
  }
}

// Deserialize's input may be the payload's own buffer: the payload is
// re-read from itself and stays whole.
TEST(WirePayloadTest, DeserializeFromOwnBufferKeepsPayload) {
  for (testing::PinPayload& pin : testing::PinPayloads()) {
    const std::vector<uint8_t> expected = pin.payload.Serialize();
    const int entries = pin.payload.num_entries();
    ASSERT_TRUE(pin.payload.Deserialize(pin.payload.Serialize()).ok())
        << pin.name;
    EXPECT_EQ(pin.payload.Serialize(), expected) << pin.name;
    EXPECT_EQ(pin.payload.num_entries(), entries) << pin.name;
  }
  const ParameterStore store = testing::PinStore();
  WirePayload payload = BuildDownlinkPayload(AllGroups(store), 0, 0, store);
  ASSERT_TRUE(payload.Deserialize(payload.Serialize()).ok());
  ParameterStore receiver = MakeStore(31);
  ASSERT_TRUE(payload.ApplyTo(&receiver).ok());
  EXPECT_TRUE(BitIdentical(receiver, store));
}

// A default-constructed payload is a header-only uplink that decodes.
TEST(WirePayloadTest, DefaultPayloadIsHeaderOnlyUplink) {
  const WirePayload payload;
  EXPECT_EQ(payload.EncodedBytes(), 28);
  EXPECT_EQ(payload.kind(), WireKind::kUplink);
  EXPECT_EQ(payload.num_entries(), 0);
  WirePayload decoded;
  ASSERT_TRUE(decoded.Deserialize(payload.Serialize()).ok());
  EXPECT_EQ(decoded.total_groups(), 0);
}

// Serialize() on a temporary moves the buffer out instead of copying it.
TEST(WirePayloadTest, SerializeOnTemporaryMovesBuffer) {
  const ParameterStore store = MakeStore(32);
  const WirePayload kept =
      BuildDenseUplinkPayload(AllGroups(store), 1, 2, store);
  const std::vector<uint8_t> moved =
      BuildDenseUplinkPayload(AllGroups(store), 1, 2, store).Serialize();
  EXPECT_EQ(moved, kept.Serialize());
  WirePayload source = BuildDenseUplinkPayload(AllGroups(store), 1, 2, store);
  const uint8_t* buffer = source.Serialize().data();
  const std::vector<uint8_t> taken = std::move(source).Serialize();
  EXPECT_EQ(taken.data(), buffer);
}

TEST(WirePayloadTest, EveryTruncationFailsCleanly) {
  const ParameterStore sender = MakeStore(10);
  ActivationOptions options;
  options.granularity = ActivationGranularity::kScalar;
  const ActivationState state(2, sender, options);
  const std::vector<uint8_t> bytes =
      BuildUplinkPayload(state, 0, 0, sender).Serialize();
  for (size_t len = 0; len < bytes.size(); ++len) {
    WirePayload decoded;
    const std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(decoded.Deserialize(prefix).ok()) << "prefix length " << len;
  }
}

TEST(WirePayloadTest, CorruptHeadersAreRejected) {
  const ParameterStore sender = MakeStore(11);
  const std::vector<uint8_t> good =
      BuildDenseUplinkPayload(AllGroups(sender), 0, 0, sender).Serialize();

  WirePayload decoded;
  {
    std::vector<uint8_t> bad = good;
    bad[0] ^= 0xFF;  // magic
    EXPECT_FALSE(decoded.Deserialize(bad).ok());
  }
  {
    std::vector<uint8_t> bad = good;
    bad[4] = 99;  // version
    EXPECT_FALSE(decoded.Deserialize(bad).ok());
  }
  {
    std::vector<uint8_t> bad = good;
    bad[8] = 7;  // kind: neither uplink nor downlink
    EXPECT_FALSE(decoded.Deserialize(bad).ok());
  }
  {
    std::vector<uint8_t> bad = good;
    bad[24] = 0xFF;  // entry count > total_groups
    EXPECT_FALSE(decoded.Deserialize(bad).ok());
  }
  {
    std::vector<uint8_t> bad = good;
    bad.push_back(0);  // trailing byte
    EXPECT_FALSE(decoded.Deserialize(bad).ok());
  }
  // A failed Deserialize leaves the previously decoded payload unchanged.
  ASSERT_TRUE(decoded.Deserialize(good).ok());
  const int64_t encoded = decoded.EncodedBytes();
  std::vector<uint8_t> bad = good;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(decoded.Deserialize(bad).ok());
  EXPECT_EQ(decoded.EncodedBytes(), encoded);
  EXPECT_EQ(decoded.num_entries(), 5);
}

// An entry claiming size = INT64_MAX: MaskBytes' `size + 7` was
// signed-overflow UB before any block read could reject the entry. The
// declared size must be checked against the bytes remaining first.
TEST(WirePayloadTest, EntrySizeOverflowIsRejectedBeforeArithmetic) {
  core::ByteWriter writer;
  writer.WriteU32(0xF3DDA13E);  // magic
  writer.WriteU32(1);           // version
  writer.WriteU32(1);           // kind: uplink
  writer.WriteU32(0);           // client
  writer.WriteU32(0);           // round
  writer.WriteU32(3);           // total_groups
  writer.WriteU32(1);           // one entry
  writer.WriteU32(0);           // group id
  writer.WriteU8(1);            // masked encoding
  writer.WriteI64(std::numeric_limits<int64_t>::max());  // size
  WirePayload decoded;
  const core::Status status = decoded.Deserialize(writer.Release());
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("group size exceeds payload"),
            std::string::npos)
      << status.ToString();
}

// ASan and TSan reserve terabytes of shadow address space, so no
// RLIMIT_AS cap can tell a large reservation from their own mappings.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FEDDA_SHADOW_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FEDDA_SHADOW_SANITIZER 1
#endif
#endif

#if !defined(FEDDA_SHADOW_SANITIZER)
/// Caps this process's address space `headroom` bytes above what it maps
/// now (the first field of /proc/self/statm, in pages).
bool CapAddressSpace(size_t headroom) {
  size_t pages = 0;
  std::ifstream("/proc/self/statm") >> pages;
  if (pages == 0) return false;
  const rlim_t cap =
      pages * static_cast<size_t>(sysconf(_SC_PAGESIZE)) + headroom;
  const rlimit limit{cap, cap};
  return setrlimit(RLIMIT_AS, &limit) == 0;
}
#endif

// A bare 28-byte header claiming 2^24 entries (the header's cap): reserving
// the entry index before any entry is read asked for 2^24 * 48 B = 768 MiB,
// so one short uplink could abort the server with std::bad_alloc. The child
// caps its address space 256 MiB above what it already maps; an unbounded
// reservation then aborts it, a bounded one fails the decode and exits 0.
TEST(WirePayloadDeathTest, HeaderAloneCannotReserveAnEntryIndex) {
#if defined(FEDDA_SHADOW_SANITIZER)
  GTEST_SKIP() << "shadow memory exceeds any address-space cap";
#else
  core::ByteWriter writer;
  writer.WriteU32(0xF3DDA13E);  // magic
  writer.WriteU32(1);           // version
  writer.WriteU32(1);           // kind: uplink
  writer.WriteU32(0);           // client
  writer.WriteU32(0);           // round
  writer.WriteU32(1u << 24);    // total_groups
  writer.WriteU32(1u << 24);    // entry count
  const std::vector<uint8_t> header = writer.Release();
  ASSERT_EQ(header.size(), 28u);
  EXPECT_EXIT(
      {
        if (!CapAddressSpace(size_t{256} << 20)) std::_Exit(2);
        WirePayload decoded;
        std::_Exit(decoded.Deserialize(header).ok() ? 1 : 0);
      },
      ::testing::ExitedWithCode(0), "");
#endif
}

TEST(WirePayloadTest, NonCanonicalMaskPaddingIsRejected) {
  // Single disentangled 1x3 group at scalar granularity: the payload is
  // header (28) + entry header (13) + one mask byte + values, so the mask
  // byte sits at offset 41 and bits 3..7 are padding.
  core::Rng rng(12);
  ParameterStore store;
  store.Register("ent", Tensor::RandomNormal(1, 3, &rng),
                 /*disentangled=*/true, /*edge_type=*/0);
  ActivationOptions options;
  options.granularity = ActivationGranularity::kScalar;
  const ActivationState state(1, store, options);
  std::vector<uint8_t> bytes = BuildUplinkPayload(state, 0, 0, store)
                                   .Serialize();
  ASSERT_EQ(bytes.size(), 28u + 13u + 1u + 3u * sizeof(float));
  WirePayload decoded;
  ASSERT_TRUE(decoded.Deserialize(bytes).ok());
  bytes[41] |= 0x80;  // set a padding bit
  EXPECT_FALSE(decoded.Deserialize(bytes).ok());
}

TEST(WirePayloadTest, ApplyToRejectsLayoutMismatch) {
  const ParameterStore sender = MakeStore(13);
  const WirePayload payload =
      BuildDenseUplinkPayload(AllGroups(sender), 0, 0, sender);

  core::Rng rng(14);
  ParameterStore fewer_groups;
  fewer_groups.Register("only", Tensor::RandomNormal(3, 5, &rng));
  EXPECT_FALSE(payload.ApplyTo(&fewer_groups).ok());

  // Same group count, wrong group size.
  ParameterStore wrong_size;
  wrong_size.Register("dense0", Tensor::RandomNormal(3, 5, &rng));
  wrong_size.Register("ent_a", Tensor::RandomNormal(2, 7, &rng), true, 0);
  wrong_size.Register("ent_b", Tensor::RandomNormal(1, 2, &rng), true, 1);
  wrong_size.Register("dense1", Tensor::RandomNormal(1, 4, &rng));
  wrong_size.Register("ent_c", Tensor::RandomNormal(5, 5, &rng), true, 2);
  EXPECT_FALSE(payload.ApplyTo(&wrong_size).ok());
}

// The serialized bytes of every payload shape, pinned by length and FNV-1a
// hash. Generated once, before the payload's in-memory representation
// changed, and never regenerated: DESIGN.md §8's layout is what a remote
// peer parses, so a codec change that moves any byte fails here.
TEST(WireFormatPinTest, SerializedBytesArePinned) {
  struct Pin {
    const char* name;
    size_t size;
    uint64_t hash;
  };
  const Pin kPins[] = {
      {"fedavg-dense-uplink", 155, 8922774391767466529ull},
      {"fedda-tensor-uplink", 312, 15389933161566186842ull},
      {"fedda-scalar-uplink", 270, 3863126684528883120ull},
      {"full-downlink", 337, 4357508235089829773ull},
      {"empty-downlink", 28, 14231752277108036002ull},
      {"default", 28, 13670595289136774892ull},
  };
  const std::vector<testing::PinPayload> payloads = testing::PinPayloads();
  ASSERT_EQ(payloads.size(), std::size(kPins));
  for (size_t i = 0; i < payloads.size(); ++i) {
    const std::vector<uint8_t> bytes = payloads[i].payload.Serialize();
    EXPECT_EQ(payloads[i].name, kPins[i].name);
    EXPECT_EQ(bytes.size(), kPins[i].size) << kPins[i].name;
    EXPECT_EQ(net::Fingerprint64(std::string(bytes.begin(), bytes.end())),
              kPins[i].hash)
        << kPins[i].name;
  }
}

TEST(DownlinkVersionTrackerTest, RoundZeroEverythingIsStale) {
  DownlinkVersionTracker tracker(/*num_clients=*/2, /*num_groups=*/3);
  // Cached versions start at -1 ("never sent"), group versions at 0, so
  // the first request from each client is a full broadcast.
  EXPECT_EQ(tracker.ClaimStale(0, {0, 1, 2}), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(tracker.ClaimStale(1, {0, 1, 2}), (std::vector<int>{0, 1, 2}));
}

TEST(DownlinkVersionTrackerTest, ClaimMarksSentSoRepeatIsEmpty) {
  DownlinkVersionTracker tracker(1, 3);
  EXPECT_EQ(tracker.ClaimStale(0, {0, 1, 2}), (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(tracker.ClaimStale(0, {0, 1, 2}).empty());
  EXPECT_EQ(tracker.sent_version(0, 0), 0);
  EXPECT_EQ(tracker.group_version(0), 0);
}

TEST(DownlinkVersionTrackerTest, AdvanceRestalesOnlyUpdatedGroups) {
  DownlinkVersionTracker tracker(1, 4);
  (void)tracker.ClaimStale(0, {0, 1, 2, 3});
  tracker.AdvanceGroups({/*g0=*/1, /*g1=*/0, /*g2=*/1, /*g3=*/0});
  EXPECT_EQ(tracker.group_version(0), 1);
  EXPECT_EQ(tracker.group_version(1), 0);
  // Only the aggregated groups need re-shipping.
  EXPECT_EQ(tracker.ClaimStale(0, {0, 1, 2, 3}), (std::vector<int>{0, 2}));
}

TEST(DownlinkVersionTrackerTest, ClientsAreTrackedIndependently) {
  DownlinkVersionTracker tracker(2, 2);
  (void)tracker.ClaimStale(0, {0, 1});
  tracker.AdvanceGroups({1, 0});
  // Client 0 is stale only on group 0; client 1 never received anything.
  EXPECT_EQ(tracker.ClaimStale(0, {0, 1}), (std::vector<int>{0}));
  EXPECT_EQ(tracker.ClaimStale(1, {0, 1}), (std::vector<int>{0, 1}));
}

TEST(DownlinkVersionTrackerTest, ReactivationResyncShipsEveryMissedUpdate) {
  // A client that skips rounds (deactivated) must receive every group
  // whose version advanced while it was away — but nothing more.
  DownlinkVersionTracker tracker(1, 3);
  (void)tracker.ClaimStale(0, {0, 1, 2});
  tracker.AdvanceGroups({1, 1, 0});  // round 0 aggregates groups 0, 1
  tracker.AdvanceGroups({0, 1, 0});  // round 1 (client away): group 1 again
  EXPECT_EQ(tracker.group_version(1), 2);
  EXPECT_EQ(tracker.ClaimStale(0, {0, 1, 2}), (std::vector<int>{0, 1}));
  // One re-ship is enough regardless of how many versions were missed.
  EXPECT_TRUE(tracker.ClaimStale(0, {0, 1, 2}).empty());
}

TEST(DownlinkVersionTrackerTest, InvalidateClientChargesRejoinAsFullResync) {
  // Regression: a departed client loses its cached copy of the model. The
  // tracker used to keep the departed client's sent_version forever, so a
  // rejoin was charged only for groups that advanced while it was away and
  // the client silently trained on stale groups the server believed were
  // current. InvalidateClient forgets everything sent to the client:
  // depart -> rejoin must be charged as a full resync.
  DownlinkVersionTracker tracker(2, 3);
  (void)tracker.ClaimStale(0, {0, 1, 2});
  (void)tracker.ClaimStale(1, {0, 1, 2});
  tracker.AdvanceGroups({1, 0, 0});  // only group 0 advances

  tracker.InvalidateClient(0);  // client 0 departs mid-flight
  EXPECT_EQ(tracker.sent_version(0, 0), -1);
  EXPECT_EQ(tracker.sent_version(0, 1), -1);
  EXPECT_EQ(tracker.sent_version(0, 2), -1);
  // Rejoin: everything re-ships, including groups that never advanced.
  EXPECT_EQ(tracker.ClaimStale(0, {0, 1, 2}), (std::vector<int>{0, 1, 2}));
  // Other clients are untouched: client 1 only owes the advanced group.
  EXPECT_EQ(tracker.ClaimStale(1, {0, 1, 2}), (std::vector<int>{0}));
}

TEST(DownlinkVersionTrackerTest, UnrequestedGroupsStayStale) {
  // FedDA clients only request their activated groups; the rest must
  // remain stale for a later round, not be silently marked current.
  DownlinkVersionTracker tracker(1, 3);
  EXPECT_EQ(tracker.ClaimStale(0, {1}), (std::vector<int>{1}));
  EXPECT_EQ(tracker.sent_version(0, 0), -1);
  EXPECT_EQ(tracker.ClaimStale(0, {0, 1, 2}), (std::vector<int>{0, 2}));
}

}  // namespace
}  // namespace fedda::fl
