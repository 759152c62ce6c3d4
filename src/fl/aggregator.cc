#include "fl/aggregator.h"

#include <cmath>
#include <utility>

#include "core/check.h"

namespace fedda::fl {

using tensor::ParameterStore;
using tensor::Tensor;

StreamingAggregator::StreamingAggregator(const ParameterStore* reference,
                                         const ActivationState* state,
                                         std::vector<int> selected_groups,
                                         Config config)
    : reference_(reference), state_(state), config_(config) {
  FEDDA_CHECK(reference_ != nullptr);
  const size_t num_groups = static_cast<size_t>(reference_->num_groups());
  if (config_.fedda) {
    FEDDA_CHECK(state_ != nullptr) << "FedDA aggregation needs masks";
  } else {
    group_selected_.assign(num_groups, 0);
    for (int gid : selected_groups) {
      group_selected_[static_cast<size_t>(gid)] = 1;
    }
  }
  sums_.resize(num_groups);
  total_weight_.assign(num_groups, 0.0);
  scalar_sums_.resize(num_groups);
  scalar_weights_.resize(num_groups);
}

std::vector<double> StreamingAggregator::Accumulate(
    int client, double weight, const ParameterStore& update) {
  FEDDA_CHECK(!finalized_);
  std::vector<double> magnitudes;
  const std::vector<uint8_t>* mask = nullptr;
  if (config_.fedda) {
    magnitudes.assign(static_cast<size_t>(state_->num_units()), 0.0);
    mask = &state_->ClientMask(client);
  }

  for (int gid = 0; gid < reference_->num_groups(); ++gid) {
    const size_t g = static_cast<size_t>(gid);
    int64_t first_unit = -1;
    GroupCoverage coverage = GroupCoverage::kNone;
    if (config_.fedda) {
      coverage = state_->Coverage(*mask, gid, &first_unit);
    } else if (group_selected_[g]) {
      coverage = GroupCoverage::kWhole;  // FedAvg's selected groups
    }
    if (coverage == GroupCoverage::kNone) continue;
    const Tensor& cv = update.value(gid);

    if (coverage == GroupCoverage::kWhole) {
      if (sums_[g].size() == 0) sums_[g] = Tensor(cv.rows(), cv.cols());
      sums_[g].Axpy(static_cast<float>(weight), cv);
      total_weight_[g] += weight;
      if (first_unit >= 0) {
        // Tensor-granularity magnitude: mean |delta| over the group.
        const Tensor delta = cv.Sub(reference_->value(gid));
        magnitudes[static_cast<size_t>(first_unit)] = delta.AbsMean();
      }
      continue;
    }

    // Per-scalar coverage: each active scalar has its own contributors.
    const int64_t size = cv.size();
    const Tensor& old = reference_->value(gid);
    const uint8_t* bits = mask->data() + first_unit;
    std::vector<double>& sums = scalar_sums_[g];
    std::vector<double>& weights = scalar_weights_[g];
    if (sums.empty()) {
      sums.assign(static_cast<size_t>(size), 0.0);
      weights.assign(static_cast<size_t>(size), 0.0);
    }
    for (int64_t s = 0; s < size; ++s) {
      if (bits[s] == 0) continue;
      const float value = cv.data()[s];
      sums[static_cast<size_t>(s)] += weight * value;
      weights[static_cast<size_t>(s)] += weight;
      magnitudes[static_cast<size_t>(first_unit + s)] =
          std::fabs(value - old.data()[s]);
    }
  }
  ++num_consumed_;
  return magnitudes;
}

void StreamingAggregator::Finalize(ParameterStore* global,
                                   std::vector<uint8_t>* groups_updated) {
  FEDDA_CHECK(!finalized_);
  finalized_ = true;
  groups_updated->assign(static_cast<size_t>(global->num_groups()), 0);

  for (int gid = 0; gid < global->num_groups(); ++gid) {
    const size_t g = static_cast<size_t>(gid);

    const std::vector<double>& sums = scalar_sums_[g];
    if (!sums.empty()) {
      // Per-scalar sums: write contributed scalars, keep the rest.
      const std::vector<double>& weights = scalar_weights_[g];
      Tensor& target = global->value(gid);
      const Tensor& old = reference_->value(gid);
      for (int64_t s = 0; s < target.size(); ++s) {
        if (weights[static_cast<size_t>(s)] > 0.0) {
          target.data()[s] = static_cast<float>(
              sums[static_cast<size_t>(s)] / weights[static_cast<size_t>(s)]);
        } else {
          target.data()[s] = old.data()[s];
        }
      }
      (*groups_updated)[g] = 1;
      continue;
    }

    // Whole-group sums: groups with no contributors keep their previous
    // global value.
    if (sums_[g].size() == 0 || total_weight_[g] <= 0.0) continue;
    sums_[g].Scale(1.0f / static_cast<float>(total_weight_[g]));
    global->value(gid) = std::move(sums_[g]);
    (*groups_updated)[g] = 1;
  }
}

}  // namespace fedda::fl
