#include "fl/activation.h"

#include <algorithm>

#include "core/binary_io.h"
#include "core/check.h"
#include "fl/wire.h"

namespace fedda::fl {

double ComputeThreshold(std::vector<double>* magnitudes,
                        const ActivationOptions& options) {
  FEDDA_CHECK(!magnitudes->empty());
  switch (options.threshold_rule) {
    case ThresholdRule::kMean: {
      double total = 0.0;
      for (double m : *magnitudes) total += m;
      return total / static_cast<double>(magnitudes->size());
    }
    case ThresholdRule::kMedian: {
      const size_t n = magnitudes->size();
      const size_t mid = n / 2;
      std::nth_element(magnitudes->begin(),
                       magnitudes->begin() + static_cast<long>(mid),
                       magnitudes->end());
      const double upper = (*magnitudes)[mid];
      if (n % 2 == 1) return upper;
      // Even-sized contributor sets: average the two middle values. Taking
      // the upper-middle element alone biases deactivation upward (more
      // clients land strictly below the threshold than the median implies).
      const double lower = *std::max_element(
          magnitudes->begin(), magnitudes->begin() + static_cast<long>(mid));
      return 0.5 * (lower + upper);
    }
    case ThresholdRule::kPercentile: {
      const double q = options.threshold_percentile;
      FEDDA_CHECK(q >= 0.0 && q <= 1.0);
      const size_t rank = std::min(
          magnitudes->size() - 1,
          static_cast<size_t>(q * static_cast<double>(magnitudes->size())));
      std::nth_element(magnitudes->begin(),
                       magnitudes->begin() + static_cast<long>(rank),
                       magnitudes->end());
      return (*magnitudes)[rank];
    }
  }
  return 0.0;
}

ActivationState::ActivationState(int num_clients,
                                 const tensor::ParameterStore& reference,
                                 const ActivationOptions& options)
    : num_clients_(num_clients), options_(options) {
  FEDDA_CHECK_GT(num_clients, 0);
  FEDDA_CHECK(options.alpha >= 0.0 && options.alpha <= 1.0);

  total_groups_ = reference.num_groups();
  group_sizes_.resize(static_cast<size_t>(total_groups_));
  group_first_unit_.assign(static_cast<size_t>(total_groups_), -1);

  for (int gid = 0; gid < reference.num_groups(); ++gid) {
    const size_t s = static_cast<size_t>(gid);
    group_sizes_[s] = reference.value(gid).size();
    if (!reference.info(gid).disentangled) continue;
    group_first_unit_[s] = num_units_;
    num_units_ += GroupUnitCount(gid);
  }

  client_active_.assign(static_cast<size_t>(num_clients), true);
  masks_.assign(static_cast<size_t>(num_clients),
                std::vector<uint8_t>(static_cast<size_t>(num_units_), 1));
}

int ActivationState::num_active_clients() const {
  return static_cast<int>(std::count(client_active_.begin(),
                                     client_active_.end(), true));
}

bool ActivationState::client_active(int client) const {
  FEDDA_CHECK(client >= 0 && client < num_clients_);
  return client_active_[static_cast<size_t>(client)];
}

std::vector<int> ActivationState::ActiveClients() const {
  std::vector<int> out;
  for (int i = 0; i < num_clients_; ++i) {
    if (client_active_[static_cast<size_t>(i)]) out.push_back(i);
  }
  return out;
}

bool ActivationState::UnitActive(int client, int64_t unit) const {
  FEDDA_CHECK(client >= 0 && client < num_clients_);
  FEDDA_CHECK(unit >= 0 && unit < num_units_);
  return masks_[static_cast<size_t>(client)][static_cast<size_t>(unit)] != 0;
}

GroupCoverage ActivationState::Coverage(const std::vector<uint8_t>& mask,
                                        int group,
                                        int64_t* first_unit) const {
  FEDDA_CHECK(group >= 0 && group < total_groups_);
  FEDDA_CHECK_EQ(mask.size(), static_cast<size_t>(num_units_));
  const size_t g = static_cast<size_t>(group);
  const int64_t first = group_first_unit_[g];
  if (first_unit != nullptr) *first_unit = first;
  if (first < 0) return GroupCoverage::kWhole;  // outside [N_d]
  const auto begin = mask.begin() + first;
  if (options_.granularity == ActivationGranularity::kTensor) {
    return *begin != 0 ? GroupCoverage::kWhole : GroupCoverage::kNone;
  }
  const bool any = std::any_of(begin, begin + group_sizes_[g],
                               [](uint8_t bit) { return bit != 0; });
  return any ? GroupCoverage::kScalars : GroupCoverage::kNone;
}

bool ActivationState::GroupRequested(int client, int group) const {
  return Coverage(ClientMask(client), group) != GroupCoverage::kNone;
}

int64_t ActivationState::ActiveUnits(int client) const {
  FEDDA_CHECK(client >= 0 && client < num_clients_);
  const auto& mask = masks_[static_cast<size_t>(client)];
  return static_cast<int64_t>(
      std::count(mask.begin(), mask.end(), uint8_t{1}));
}

void ActivationState::UpdateMasks(
    const std::vector<int>& participants,
    const std::vector<std::vector<double>>& magnitudes) {
  FEDDA_CHECK_EQ(participants.size(), magnitudes.size());
  for (const auto& m : magnitudes) {
    FEDDA_CHECK_EQ(static_cast<int64_t>(m.size()), num_units_);
  }
  std::vector<double> contributing;
  for (int64_t u = 0; u < num_units_; ++u) {
    // Threshold over contributing clients only.
    contributing.clear();
    for (size_t p = 0; p < participants.size(); ++p) {
      if (!UnitActive(participants[p], u)) continue;
      contributing.push_back(magnitudes[p][static_cast<size_t>(u)]);
    }
    if (contributing.empty()) continue;
    const double threshold = ComputeThreshold(&contributing, options_);
    for (size_t p = 0; p < participants.size(); ++p) {
      const int client = participants[p];
      if (!UnitActive(client, u)) continue;
      if (magnitudes[p][static_cast<size_t>(u)] < threshold) {
        masks_[static_cast<size_t>(client)][static_cast<size_t>(u)] = 0;
      }
    }
  }
}

std::vector<int> ActivationState::DeactivateLowOccupancy(
    const std::vector<int>& participants) {
  std::vector<int> deactivated;
  if (num_units_ == 0) return deactivated;
  const double threshold = options_.alpha * static_cast<double>(num_units_);
  for (int client : participants) {
    if (!client_active(client)) continue;
    if (static_cast<double>(ActiveUnits(client)) < threshold) {
      DeactivateClient(client);
      deactivated.push_back(client);
    }
  }
  return deactivated;
}

void ActivationState::DeactivateClient(int client) {
  FEDDA_CHECK(client >= 0 && client < num_clients_);
  client_active_[static_cast<size_t>(client)] = false;
}

void ActivationState::ActivateAll() {
  std::fill(client_active_.begin(), client_active_.end(), true);
  for (auto& mask : masks_) std::fill(mask.begin(), mask.end(), uint8_t{1});
}

void ActivationState::ReactivateClient(int client) {
  FEDDA_CHECK(client >= 0 && client < num_clients_);
  client_active_[static_cast<size_t>(client)] = true;
  auto& mask = masks_[static_cast<size_t>(client)];
  std::fill(mask.begin(), mask.end(), uint8_t{1});
}

const std::vector<uint8_t>& ActivationState::ClientMask(int client) const {
  FEDDA_CHECK(client >= 0 && client < num_clients_);
  return masks_[static_cast<size_t>(client)];
}

void ActivationState::SetClientMask(int client,
                                    const std::vector<uint8_t>& mask) {
  FEDDA_CHECK(client >= 0 && client < num_clients_);
  FEDDA_CHECK_EQ(mask.size(), static_cast<size_t>(num_units_));
  masks_[static_cast<size_t>(client)] = mask;
}

int64_t ActivationState::GroupFirstUnit(int group) const {
  FEDDA_CHECK(group >= 0 && group < total_groups_);
  return group_first_unit_[static_cast<size_t>(group)];
}

int64_t ActivationState::GroupUnitCount(int group) const {
  FEDDA_CHECK(group >= 0 && group < total_groups_);
  if (group_first_unit_[static_cast<size_t>(group)] < 0) return 0;
  return options_.granularity == ActivationGranularity::kTensor
             ? 1
             : group_sizes_[static_cast<size_t>(group)];
}

namespace {
/// Masks are bit-packed via the wire-format codec, and the deactivation
/// options are persisted so a checkpoint cannot silently resume under
/// different rules.
constexpr uint32_t kActivationMagic = 0xF3DDAAC8;
constexpr uint32_t kActivationVersion = 2;
}  // namespace

core::Status ActivationState::Save(const std::string& path) const {
  core::ByteWriter writer;
  writer.WriteU32(kActivationMagic);
  writer.WriteU32(kActivationVersion);
  writer.WriteU32(static_cast<uint32_t>(num_clients_));
  writer.WriteU32(options_.granularity == ActivationGranularity::kTensor ? 0
                                                                         : 1);
  writer.WriteI64(num_units_);
  writer.WriteDouble(options_.alpha);
  writer.WriteU32(static_cast<uint32_t>(options_.threshold_rule));
  writer.WriteDouble(options_.threshold_percentile);
  std::vector<uint8_t> active_bits(static_cast<size_t>(num_clients_), 0);
  for (int c = 0; c < num_clients_; ++c) {
    active_bits[static_cast<size_t>(c)] =
        client_active_[static_cast<size_t>(c)] ? 1 : 0;
  }
  writer.WriteBytes(PackBits(active_bits));
  for (int c = 0; c < num_clients_; ++c) {
    writer.WriteBytes(PackBits(masks_[static_cast<size_t>(c)]));
  }
  return core::WriteFile(path, writer.bytes());
}

core::Status ActivationState::Load(const std::string& path) {
  std::vector<uint8_t> bytes;
  FEDDA_RETURN_IF_ERROR(core::ReadFile(path, &bytes));
  core::ByteReader reader(bytes);
  if (reader.ReadU32() != kActivationMagic) {
    return core::Status::InvalidArgument("not an activation-state file: " +
                                         path);
  }
  if (reader.ReadU32() != kActivationVersion) {
    return core::Status::InvalidArgument("unsupported activation-state "
                                         "version");
  }
  if (reader.ReadU32() != static_cast<uint32_t>(num_clients_)) {
    return core::Status::InvalidArgument("client count mismatch");
  }
  const uint32_t granularity = reader.ReadU32();
  const bool is_tensor =
      options_.granularity == ActivationGranularity::kTensor;
  if ((granularity == 0) != is_tensor) {
    return core::Status::InvalidArgument("granularity mismatch");
  }
  if (reader.ReadI64() != num_units_) {
    return core::Status::InvalidArgument("unit count mismatch");
  }
  // The checkpoint must have been written under the exact deactivation
  // options this state runs with, like the granularity check above.
  if (reader.ReadDouble() != options_.alpha) {
    return core::Status::InvalidArgument("alpha mismatch");
  }
  if (reader.ReadU32() != static_cast<uint32_t>(options_.threshold_rule)) {
    return core::Status::InvalidArgument("threshold rule mismatch");
  }
  if (reader.ReadDouble() != options_.threshold_percentile) {
    return core::Status::InvalidArgument("threshold percentile mismatch");
  }

  const std::vector<uint8_t> packed_active =
      reader.ReadBytes((static_cast<size_t>(num_clients_) + 7) / 8);
  if (!reader.status().ok()) return reader.status();
  const std::vector<uint8_t> active_bits =
      UnpackBits(packed_active, static_cast<size_t>(num_clients_));
  std::vector<bool> active(static_cast<size_t>(num_clients_));
  std::vector<std::vector<uint8_t>> masks(static_cast<size_t>(num_clients_));
  for (int c = 0; c < num_clients_; ++c) {
    active[static_cast<size_t>(c)] = active_bits[static_cast<size_t>(c)] != 0;
    const std::vector<uint8_t> packed_mask =
        reader.ReadBytes((static_cast<size_t>(num_units_) + 7) / 8);
    if (!reader.status().ok()) return reader.status();
    masks[static_cast<size_t>(c)] =
        UnpackBits(packed_mask, static_cast<size_t>(num_units_));
  }
  if (!reader.status().ok()) return reader.status();
  if (!reader.AtEnd()) {
    return core::Status::InvalidArgument("trailing bytes");
  }
  client_active_ = std::move(active);
  masks_ = std::move(masks);
  return core::Status::OK();
}

}  // namespace fedda::fl
