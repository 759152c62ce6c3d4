#include "fl/wire.h"

#include <algorithm>
#include <cstring>
#include <string>
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

int64_t CountSetBits(const uint8_t* packed, int64_t count) {
  int64_t set = 0;
  for (int64_t i = 0; i < count; ++i) {
    if (packed[i / 8] & (1u << (i % 8))) ++set;
  }
  return set;
}

int64_t DenseEntryBytes(int64_t size) {
  return kEntryHeaderBytes + size * static_cast<int64_t>(sizeof(float));
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

WirePayload::WirePayload()
    : WirePayload(WireKind::kUplink, 0, 0, 0, 0, kHeaderBytes) {}

WirePayload::WirePayload(WireKind kind, int client, int round,
                         int total_groups, size_t entry_count,
                         int64_t encoded_bytes)
    : kind_(kind), client_(client), round_(round),
      total_groups_(total_groups) {
  entries_.reserve(entry_count);
  bytes_.reserve(static_cast<size_t>(encoded_bytes));
  for (const uint32_t word :
       {kWireMagic, kWireVersion, static_cast<uint32_t>(kind),
        static_cast<uint32_t>(client), static_cast<uint32_t>(round),
        static_cast<uint32_t>(total_groups),
        static_cast<uint32_t>(entry_count)}) {
    AppendRaw(&word, sizeof(word));
  }
}

void WirePayload::AppendRaw(const void* data, size_t size) {
  // An empty group's data() may be null: skip it rather than offset it.
  if (size == 0) return;
  const uint8_t* begin = static_cast<const uint8_t*>(data);
  bytes_.insert(bytes_.end(), begin, begin + size);
}

void WirePayload::AppendEntryHeader(const Entry& entry) {
  const uint32_t id = static_cast<uint32_t>(entry.group);
  const uint8_t encoding = entry.masked ? kEncodingMasked : kEncodingDense;
  AppendRaw(&id, sizeof(id));
  AppendRaw(&encoding, sizeof(encoding));
  AppendRaw(&entry.size, sizeof(entry.size));
}

void WirePayload::AppendDense(int group, const tensor::Tensor& value) {
  Entry entry;
  entry.group = group;
  entry.size = value.size();
  entry.values = value.size();
  AppendEntryHeader(entry);
  entry.values_offset = bytes_.size();
  AppendRaw(value.data(), static_cast<size_t>(value.size()) * sizeof(float));
  entries_.push_back(entry);
}

void WirePayload::AppendMasked(int group, const uint8_t* bits, int64_t active,
                               const tensor::Tensor& value) {
  Entry entry;
  entry.group = group;
  entry.size = value.size();
  entry.masked = true;
  entry.values = active;
  AppendEntryHeader(entry);
  entry.mask_offset = bytes_.size();
  const std::vector<uint8_t> mask =
      PackBits(bits, static_cast<size_t>(entry.size));
  AppendRaw(mask.data(), mask.size());
  entry.values_offset = bytes_.size();
  const float* data = value.data();
  for (int64_t s = 0; s < entry.size; ++s) {
    if (bits[s] != 0) AppendRaw(data + s, sizeof(float));
  }
  FEDDA_CHECK_EQ(static_cast<int64_t>(bytes_.size() - entry.values_offset),
                 active * static_cast<int64_t>(sizeof(float)));
  entries_.push_back(entry);
}

int64_t WirePayload::PayloadScalars() const {
  int64_t scalars = 0;
  for (const Entry& entry : entries_) scalars += entry.values;
  return scalars;
}

int64_t WirePayload::CoveredScalars() const {
  int64_t scalars = 0;
  for (const Entry& entry : entries_) scalars += entry.size;
  return scalars;
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

  // An entry takes at least its header (u32 group, u8 encoding, i64 size),
  // so the bytes left bound how many can follow: a bare header cannot
  // reserve 2^24 entries.
  std::vector<Entry> entries;
  entries.reserve(std::min<size_t>(
      entry_count, reader.remaining() / kEntryHeaderBytes));
  int previous_group = -1;
  for (uint32_t e = 0; e < entry_count; ++e) {
    Entry entry;
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
    // Validate-before-arithmetic: a size near INT64_MAX would overflow
    // MaskBytes' `size + 7` (UB) before the block checks could reject it.
    // Even a bit-packed mask needs size/8 bytes still in the payload, so
    // this cap is sound for both encodings.
    if (static_cast<uint64_t>(entry.size) > 8ull * reader.remaining()) {
      return core::Status::InvalidArgument("group size exceeds payload");
    }
    if (encoding == kEncodingMasked) {
      entry.masked = true;
      entry.mask_offset = reader.position();
      const int64_t mask_bytes = MaskBytes(entry.size);
      reader.Skip(static_cast<size_t>(mask_bytes));
      if (!reader.status().ok()) return reader.status();
      // Canonical encoding: padding bits beyond `size` must be zero, so a
      // payload has exactly one byte representation.
      const uint8_t* mask = bytes.data() + entry.mask_offset;
      for (int64_t bit = entry.size; bit < mask_bytes * 8; ++bit) {
        if (mask[bit / 8] & (1u << (bit % 8))) {
          return core::Status::InvalidArgument("nonzero mask padding bits");
        }
      }
      entry.values = CountSetBits(mask, entry.size);
    } else if (encoding == kEncodingDense) {
      entry.values = entry.size;
    } else {
      return core::Status::InvalidArgument("invalid entry encoding");
    }
    entry.values_offset = reader.position();
    // `values` <= size <= 8 * remaining, so the product cannot overflow.
    reader.Skip(static_cast<size_t>(entry.values) * sizeof(float));
    if (!reader.status().ok()) return reader.status();
    entries.push_back(entry);
  }
  if (!reader.AtEnd()) {
    return core::Status::InvalidArgument("trailing bytes after payload");
  }

  kind_ = static_cast<WireKind>(kind);
  client_ = static_cast<int>(client);
  round_ = static_cast<int>(round);
  total_groups_ = static_cast<int>(total_groups);
  entries_ = std::move(entries);
  bytes_ = bytes;  // a no-op when `bytes` is this payload's own buffer
  return core::Status::OK();
}

core::Status WirePayload::CheckLayout(
    const tensor::ParameterStore& store) const {
  if (store.num_groups() != total_groups_) {
    return core::Status::InvalidArgument(
        "payload built for " + std::to_string(total_groups_) +
        " groups, store has " + std::to_string(store.num_groups()));
  }
  for (const Entry& entry : entries_) {
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
  for (const Entry& entry : entries_) {
    float* target = store->value(entry.group).data();
    const uint8_t* values = bytes_.data() + entry.values_offset;
    if (!entry.masked) {
      FEDDA_CHECK_EQ(entry.values, entry.size);
      if (entry.size > 0) {
        std::memcpy(target, values,
                    static_cast<size_t>(entry.size) * sizeof(float));
      }
      continue;
    }
    const uint8_t* mask = bytes_.data() + entry.mask_offset;
    int64_t next_value = 0;
    for (int64_t s = 0; s < entry.size; ++s) {
      if (mask[s / 8] & (1u << (s % 8))) {
        FEDDA_CHECK_LT(next_value, entry.values);
        std::memcpy(target + s, values + next_value * sizeof(float),
                    sizeof(float));
        ++next_value;
      }
    }
    FEDDA_CHECK_EQ(next_value, entry.values);
  }
  return core::Status::OK();
}

WirePayload BuildUplinkPayload(const ActivationState& state, int client,
                               int round,
                               const tensor::ParameterStore& params) {
  const std::vector<uint8_t>& mask = state.ClientMask(client);
  // First pass: which groups ship, how and with how many values, so the
  // buffer is reserved to its exact size before anything is written.
  struct Shipped {
    int group;
    GroupCoverage coverage;
    int64_t first_unit;
    int64_t values;
  };
  std::vector<Shipped> shipped;
  shipped.reserve(static_cast<size_t>(params.num_groups()));
  int64_t encoded_bytes = kHeaderBytes;
  for (int gid = 0; gid < params.num_groups(); ++gid) {
    int64_t first_unit = -1;
    const GroupCoverage coverage = state.Coverage(mask, gid, &first_unit);
    const int64_t size = params.value(gid).size();
    if (coverage == GroupCoverage::kNone) continue;
    if (coverage == GroupCoverage::kWhole) {
      // A whole group is a dense entry; a masked-off one is simply absent.
      shipped.push_back({gid, coverage, first_unit, size});
      encoded_bytes += DenseEntryBytes(size);
      continue;
    }
    // Per-scalar coverage: bit-packed per-scalar mask + active scalars.
    FEDDA_CHECK_EQ(state.GroupUnitCount(gid), size);
    const int64_t set =
        std::count_if(mask.begin() + first_unit,
                      mask.begin() + first_unit + size,
                      [](uint8_t bit) { return bit != 0; });
    shipped.push_back({gid, coverage, first_unit, set});
    encoded_bytes += kEntryHeaderBytes + MaskBytes(size) +
                     set * static_cast<int64_t>(sizeof(float));
  }

  WirePayload payload(WireKind::kUplink, client, round, params.num_groups(),
                      shipped.size(), encoded_bytes);
  for (const Shipped& entry : shipped) {
    const tensor::Tensor& value = params.value(entry.group);
    if (entry.coverage == GroupCoverage::kWhole) {
      payload.AppendDense(entry.group, value);
    } else {
      payload.AppendMasked(entry.group, mask.data() + entry.first_unit,
                           entry.values, value);
    }
  }
  FEDDA_CHECK_EQ(payload.EncodedBytes(), encoded_bytes);
  return payload;
}

WirePayload BuildDensePayload(WireKind kind, const std::vector<int>& groups,
                              int client, int round,
                              const tensor::ParameterStore& store) {
  int64_t encoded_bytes = kHeaderBytes;
  for (const int gid : groups) {
    FEDDA_CHECK(gid >= 0 && gid < store.num_groups());
    encoded_bytes += DenseEntryBytes(store.value(gid).size());
  }
  WirePayload payload(kind, client, round, store.num_groups(), groups.size(),
                      encoded_bytes);
  for (const int gid : groups) payload.AppendDense(gid, store.value(gid));
  FEDDA_CHECK_EQ(payload.EncodedBytes(), encoded_bytes);
  return payload;
}

WirePayload BuildDenseUplinkPayload(const std::vector<int>& groups,
                                    int client, int round,
                                    const tensor::ParameterStore& params) {
  return BuildDensePayload(WireKind::kUplink, groups, client, round, params);
}

WirePayload BuildDownlinkPayload(const std::vector<int>& groups, int client,
                                 int round,
                                 const tensor::ParameterStore& global) {
  return BuildDensePayload(WireKind::kDownlink, groups, client, round, global);
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
