#include "fl/wire.h"

#include <algorithm>
#include <utility>

#include "core/binary_io.h"
#include "core/check.h"

namespace fedda::fl {

namespace {

constexpr uint32_t kWireMagic = 0xF3DDA13E;
constexpr uint32_t kWireVersion = 1;

/// Header: magic, version, kind, client, round, total_groups, entry count.
constexpr int64_t kHeaderBytes = 7 * 4;

/// Per-entry fixed overhead: group id (u32) + encoding tag (u8) + size
/// (i64).
constexpr int64_t kEntryHeaderBytes = 4 + 1 + 8;

constexpr uint8_t kEncodingDense = 0;
constexpr uint8_t kEncodingMasked = 1;

int64_t MaskBytes(int64_t bit_count) { return (bit_count + 7) / 8; }

int64_t CountSetBits(const std::vector<uint8_t>& packed, int64_t count) {
  int64_t set = 0;
  for (int64_t i = 0; i < count; ++i) {
    if (packed[static_cast<size_t>(i / 8)] & (1u << (i % 8))) ++set;
  }
  return set;
}

}  // namespace

std::vector<uint8_t> PackBits(const uint8_t* bits, size_t count) {
  std::vector<uint8_t> packed((count + 7) / 8, 0);
  for (size_t i = 0; i < count; ++i) {
    if (bits[i] != 0) packed[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
  }
  return packed;
}

std::vector<uint8_t> PackBits(const std::vector<uint8_t>& bits) {
  return PackBits(bits.data(), bits.size());
}

std::vector<uint8_t> UnpackBits(const std::vector<uint8_t>& packed,
                                size_t count) {
  FEDDA_CHECK_GE(packed.size() * 8, count);
  std::vector<uint8_t> bits(count, 0);
  for (size_t i = 0; i < count; ++i) {
    bits[i] = (packed[i / 8] >> (i % 8)) & 1u;
  }
  return bits;
}

int64_t WireGroup::EncodedBytes() const {
  return kEntryHeaderBytes + static_cast<int64_t>(mask.size()) +
         static_cast<int64_t>(values.size()) *
             static_cast<int64_t>(sizeof(float));
}

int64_t WirePayload::PayloadScalars() const {
  int64_t scalars = 0;
  for (const WireGroup& entry : groups_) {
    scalars += static_cast<int64_t>(entry.values.size());
  }
  return scalars;
}

int64_t WirePayload::CoveredScalars() const {
  int64_t scalars = 0;
  for (const WireGroup& entry : groups_) scalars += entry.size;
  return scalars;
}

int64_t WirePayload::EncodedBytes() const {
  int64_t bytes = kHeaderBytes;
  for (const WireGroup& entry : groups_) bytes += entry.EncodedBytes();
  return bytes;
}

std::vector<uint8_t> WirePayload::Serialize() const {
  core::ByteWriter writer;
  writer.WriteU32(kWireMagic);
  writer.WriteU32(kWireVersion);
  writer.WriteU32(static_cast<uint32_t>(kind_));
  writer.WriteU32(static_cast<uint32_t>(client_));
  writer.WriteU32(static_cast<uint32_t>(round_));
  writer.WriteU32(static_cast<uint32_t>(total_groups_));
  writer.WriteU32(static_cast<uint32_t>(groups_.size()));
  for (const WireGroup& entry : groups_) {
    writer.WriteU32(static_cast<uint32_t>(entry.group));
    writer.WriteU8(entry.mask.empty() ? kEncodingDense : kEncodingMasked);
    writer.WriteI64(entry.size);
    writer.WriteBytes(entry.mask);
    writer.WriteFloats(entry.values);
  }
  FEDDA_CHECK_EQ(writer.size(), EncodedBytes());
  return writer.Release();
}

core::Status WirePayload::Deserialize(const std::vector<uint8_t>& bytes) {
  core::ByteReader reader(bytes);
  if (reader.ReadU32() != kWireMagic) {
    return core::Status::InvalidArgument("not a wire payload (bad magic)");
  }
  const uint32_t version = reader.ReadU32();
  if (version != kWireVersion) {
    return core::Status::InvalidArgument("unsupported wire version " +
                                         std::to_string(version));
  }
  const uint32_t kind = reader.ReadU32();
  if (kind != static_cast<uint32_t>(WireKind::kUplink) &&
      kind != static_cast<uint32_t>(WireKind::kDownlink)) {
    return core::Status::InvalidArgument("invalid payload kind");
  }
  const uint32_t client = reader.ReadU32();
  const uint32_t round = reader.ReadU32();
  const uint32_t total_groups = reader.ReadU32();
  const uint32_t entry_count = reader.ReadU32();
  if (!reader.status().ok()) return reader.status();
  if (total_groups > (1u << 24) || entry_count > total_groups) {
    return core::Status::InvalidArgument(
        "implausible group counts (corrupt payload?)");
  }

  std::vector<WireGroup> entries;
  entries.reserve(entry_count);
  int previous_group = -1;
  for (uint32_t e = 0; e < entry_count; ++e) {
    WireGroup entry;
    entry.group = static_cast<int>(reader.ReadU32());
    const uint8_t encoding = reader.ReadU8();
    entry.size = reader.ReadI64();
    if (!reader.status().ok()) return reader.status();
    if (entry.group <= previous_group ||
        entry.group >= static_cast<int>(total_groups)) {
      return core::Status::InvalidArgument(
          "group ids must be ascending and in range");
    }
    previous_group = entry.group;
    if (entry.size < 0) {
      return core::Status::InvalidArgument("negative group size");
    }
    // Validate-before-allocate, and before arithmetic: a size near
    // INT64_MAX would overflow MaskBytes' `size + 7` (UB) before the
    // block reads could reject it. Even a bit-packed mask needs size/8
    // bytes still in the payload, so this cap is sound for both encodings.
    if (static_cast<uint64_t>(entry.size) > 8ull * reader.remaining()) {
      return core::Status::InvalidArgument("group size exceeds payload");
    }
    if (encoding == kEncodingMasked) {
      entry.mask = reader.ReadBytes(static_cast<size_t>(MaskBytes(entry.size)));
      if (!reader.status().ok()) return reader.status();
      // Canonical encoding: padding bits beyond `size` must be zero, so a
      // payload has exactly one byte representation.
      for (int64_t bit = entry.size; bit < MaskBytes(entry.size) * 8; ++bit) {
        if (entry.mask[static_cast<size_t>(bit / 8)] & (1u << (bit % 8))) {
          return core::Status::InvalidArgument("nonzero mask padding bits");
        }
      }
      entry.values = reader.ReadFloats(
          static_cast<size_t>(CountSetBits(entry.mask, entry.size)));
    } else if (encoding == kEncodingDense) {
      entry.values = reader.ReadFloats(static_cast<size_t>(entry.size));
    } else {
      return core::Status::InvalidArgument("invalid entry encoding");
    }
    if (!reader.status().ok()) return reader.status();
    entries.push_back(std::move(entry));
  }
  if (!reader.AtEnd()) {
    return core::Status::InvalidArgument("trailing bytes after payload");
  }

  kind_ = static_cast<WireKind>(kind);
  client_ = static_cast<int>(client);
  round_ = static_cast<int>(round);
  total_groups_ = static_cast<int>(total_groups);
  groups_ = std::move(entries);
  return core::Status::OK();
}

core::Status WirePayload::CheckLayout(
    const tensor::ParameterStore& store) const {
  if (store.num_groups() != total_groups_) {
    return core::Status::InvalidArgument(
        "payload built for " + std::to_string(total_groups_) +
        " groups, store has " + std::to_string(store.num_groups()));
  }
  for (const WireGroup& entry : groups_) {
    if (entry.group < 0 || entry.group >= store.num_groups()) {
      return core::Status::InvalidArgument("group id out of range");
    }
    if (store.value(entry.group).size() != entry.size) {
      return core::Status::InvalidArgument(
          "group size mismatch for group " + std::to_string(entry.group));
    }
  }
  return core::Status::OK();
}

core::Status WirePayload::ApplyTo(tensor::ParameterStore* store) const {
  FEDDA_RETURN_IF_ERROR(CheckLayout(*store));
  for (const WireGroup& entry : groups_) {
    tensor::Tensor& target = store->value(entry.group);
    if (entry.mask.empty()) {
      FEDDA_CHECK_EQ(static_cast<int64_t>(entry.values.size()), entry.size);
      std::copy(entry.values.begin(), entry.values.end(), target.data());
      continue;
    }
    size_t next_value = 0;
    for (int64_t s = 0; s < entry.size; ++s) {
      if (entry.mask[static_cast<size_t>(s / 8)] & (1u << (s % 8))) {
        FEDDA_CHECK_LT(next_value, entry.values.size());
        target.data()[s] = entry.values[next_value++];
      }
    }
    FEDDA_CHECK_EQ(next_value, entry.values.size());
  }
  return core::Status::OK();
}

namespace {

/// Dense entry carrying the whole of `params`' group `gid`.
WireGroup DenseEntry(const tensor::ParameterStore& params, int gid) {
  const tensor::Tensor& value = params.value(gid);
  WireGroup entry;
  entry.group = gid;
  entry.size = value.size();
  entry.values.assign(value.data(), value.data() + value.size());
  return entry;
}

}  // namespace

WirePayload BuildUplinkPayload(const ActivationState& state, int client,
                               int round,
                               const tensor::ParameterStore& params) {
  const bool scalar_gran =
      state.options().granularity == ActivationGranularity::kScalar;
  WirePayload payload;
  payload.kind_ = WireKind::kUplink;
  payload.client_ = client;
  payload.round_ = round;
  payload.total_groups_ = params.num_groups();
  for (int gid = 0; gid < params.num_groups(); ++gid) {
    const int64_t first_unit = state.GroupFirstUnit(gid);
    if (first_unit < 0 || !scalar_gran) {
      // Non-disentangled groups are always uploaded whole; at tensor
      // granularity an active disentangled group is too (a masked one is
      // simply absent — its "mask" is the missing entry).
      if (first_unit >= 0 && !state.UnitActive(client, first_unit)) continue;
      payload.groups_.push_back(DenseEntry(params, gid));
      continue;
    }
    // Scalar granularity: bit-packed per-scalar mask + active scalars.
    const int64_t units = state.GroupUnitCount(gid);
    std::vector<uint8_t> bits(static_cast<size_t>(units), 0);
    bool any_active = false;
    for (int64_t u = 0; u < units; ++u) {
      if (state.UnitActive(client, first_unit + u)) {
        bits[static_cast<size_t>(u)] = 1;
        any_active = true;
      }
    }
    if (!any_active) continue;  // fully masked: the group is not transmitted
    WireGroup entry;
    entry.group = gid;
    entry.size = units;
    entry.mask = PackBits(bits);
    const tensor::Tensor& value = params.value(gid);
    FEDDA_CHECK_EQ(value.size(), units);
    for (int64_t u = 0; u < units; ++u) {
      if (bits[static_cast<size_t>(u)]) {
        entry.values.push_back(value.data()[u]);
      }
    }
    payload.groups_.push_back(std::move(entry));
  }
  return payload;
}

WirePayload BuildDenseUplinkPayload(const std::vector<int>& groups,
                                    int client, int round,
                                    const tensor::ParameterStore& params) {
  WirePayload payload;
  payload.kind_ = WireKind::kUplink;
  payload.client_ = client;
  payload.round_ = round;
  payload.total_groups_ = params.num_groups();
  for (int gid : groups) {
    FEDDA_CHECK(gid >= 0 && gid < params.num_groups());
    payload.groups_.push_back(DenseEntry(params, gid));
  }
  return payload;
}

WirePayload BuildDownlinkPayload(const std::vector<int>& groups, int client,
                                 int round,
                                 const tensor::ParameterStore& global) {
  WirePayload payload;
  payload.kind_ = WireKind::kDownlink;
  payload.client_ = client;
  payload.round_ = round;
  payload.total_groups_ = global.num_groups();
  for (int gid : groups) {
    FEDDA_CHECK(gid >= 0 && gid < global.num_groups());
    payload.groups_.push_back(DenseEntry(global, gid));
  }
  return payload;
}

DownlinkVersionTracker::DownlinkVersionTracker(int num_clients, int num_groups)
    : num_clients_(num_clients), num_groups_(num_groups),
      group_version_(static_cast<size_t>(num_groups), 0),
      sent_version_(static_cast<size_t>(num_clients),
                    std::vector<int>(static_cast<size_t>(num_groups), -1)) {
  FEDDA_CHECK_GT(num_clients, 0);
  FEDDA_CHECK_GE(num_groups, 0);
}

std::vector<int> DownlinkVersionTracker::ClaimStale(
    int client, const std::vector<int>& requested) {
  FEDDA_CHECK_GE(client, 0);
  FEDDA_CHECK_LT(client, num_clients_);
  std::vector<int> need;
  core::MutexLock lock(&mu_);
  std::vector<int>& cached = sent_version_[static_cast<size_t>(client)];
  for (int gid : requested) {
    FEDDA_CHECK_GE(gid, 0);
    FEDDA_CHECK_LT(gid, num_groups_);
    if (cached[static_cast<size_t>(gid)] !=
        group_version_[static_cast<size_t>(gid)]) {
      need.push_back(gid);
      cached[static_cast<size_t>(gid)] =
          group_version_[static_cast<size_t>(gid)];
    }
  }
  return need;
}

void DownlinkVersionTracker::AdvanceGroups(
    const std::vector<uint8_t>& updated) {
  FEDDA_CHECK_EQ(static_cast<int>(updated.size()), num_groups_);
  core::MutexLock lock(&mu_);
  for (int gid = 0; gid < num_groups_; ++gid) {
    if (updated[static_cast<size_t>(gid)]) {
      ++group_version_[static_cast<size_t>(gid)];
    }
  }
}

void DownlinkVersionTracker::InvalidateClient(int client) {
  FEDDA_CHECK_GE(client, 0);
  FEDDA_CHECK_LT(client, num_clients_);
  core::MutexLock lock(&mu_);
  std::vector<int>& cached = sent_version_[static_cast<size_t>(client)];
  std::fill(cached.begin(), cached.end(), -1);
}

int DownlinkVersionTracker::group_version(int gid) const {
  FEDDA_CHECK_GE(gid, 0);
  FEDDA_CHECK_LT(gid, num_groups_);
  core::MutexLock lock(&mu_);
  return group_version_[static_cast<size_t>(gid)];
}

int DownlinkVersionTracker::sent_version(int client, int gid) const {
  FEDDA_CHECK_GE(client, 0);
  FEDDA_CHECK_LT(client, num_clients_);
  FEDDA_CHECK_GE(gid, 0);
  FEDDA_CHECK_LT(gid, num_groups_);
  core::MutexLock lock(&mu_);
  return sent_version_[static_cast<size_t>(client)][static_cast<size_t>(gid)];
}

}  // namespace fedda::fl
