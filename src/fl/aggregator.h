#ifndef FEDDA_FL_AGGREGATOR_H_
#define FEDDA_FL_AGGREGATOR_H_

#include <vector>

#include "fl/activation.h"
#include "tensor/parameter_store.h"

namespace fedda::fl {

/// Streaming (running-sum) masked aggregation.
///
/// The old server path materialized every participant's full update
/// simultaneously and folded them in one pass, so peak server memory was
/// O(participants x model). StreamingAggregator consumes one update at a
/// time into per-group running weighted sums — the caller can hand each
/// update off by move and free it immediately after Accumulate() returns —
/// so peak server memory is O(model): one set of accumulators plus the one
/// update in flight.
///
/// Bit-compatibility contract: feeding participants in the same order as
/// the old one-pass aggregation performed its inner loops produces
/// bit-identical results (same float Axpy sequence per whole group, same
/// double-addition sequence per scalar), which is what keeps the seeded
/// golden runs pinned across the refactor. The per-participant |delta|
/// magnitudes for the mask update are computed incrementally inside
/// Accumulate() for the same reason.
class StreamingAggregator {
 public:
  struct Config {
    /// FedDA masked aggregation (Eq. 6) with per-unit magnitudes, each
    /// group folded as ActivationState::Coverage decides under the
    /// client's mask row; false = FedAvg dense aggregation over
    /// `selected_groups`.
    bool fedda = false;
  };

  /// `reference` holds the pre-round global values the participants trained
  /// on; it must stay alive and unchanged until Finalize(). `state` supplies
  /// the activation masks (required when config.fedda; ignored otherwise).
  /// `selected_groups` are the round's FedAvg groups (ascending; ignored
  /// when config.fedda — FedDA aggregates every group its masks touch).
  StreamingAggregator(const tensor::ParameterStore* reference,
                      const ActivationState* state,
                      std::vector<int> selected_groups, Config config);

  StreamingAggregator(const StreamingAggregator&) = delete;
  StreamingAggregator& operator=(const StreamingAggregator&) = delete;

  /// Folds one participant's update into the running sums with aggregation
  /// weight `weight` (uniform 1.0, task-size proportional, or
  /// staleness-discounted — the caller decides). `update` must match the
  /// reference layout and may be destroyed as soon as this returns.
  ///
  /// Returns the participant's per-unit |delta| magnitudes against the
  /// reference (FedDA; empty for FedAvg): the pseudo-gradient input of the
  /// post-round mask update, computed here so no caller ever needs all
  /// updates alive at once.
  std::vector<double> Accumulate(int client, double weight,
                                 const tensor::ParameterStore& update);

  /// Participants folded in so far.
  int num_consumed() const { return num_consumed_; }

  /// Writes the aggregate into `global` and flags every group written in
  /// `groups_updated` (indexed by group id). Groups with no contributors
  /// keep their values: `global` must hold the reference values on entry
  /// (passing the same store `reference` points at is the intended use —
  /// the server no longer needs a broadcast copy, because no global value
  /// is overwritten before Finalize()). Call at most once.
  void Finalize(tensor::ParameterStore* global,
                std::vector<uint8_t>* groups_updated);

 private:
  const tensor::ParameterStore* reference_;
  const ActivationState* state_;
  Config config_;
  std::vector<uint8_t> group_selected_;  // FedAvg round subset
  /// Whole-coverage accumulators, empty tensors for groups never
  /// aggregated. Allocated lazily on first contribution so an aggressively
  /// masked round costs only the groups it touches.
  std::vector<tensor::Tensor> sums_;
  std::vector<double> total_weight_;
  /// Per-scalar-coverage accumulators (double, to match the old per-scalar
  /// double accumulation exactly); empty for groups that collected none,
  /// which is how Finalize tells the two kinds apart.
  std::vector<std::vector<double>> scalar_sums_;
  std::vector<std::vector<double>> scalar_weights_;
  int num_consumed_ = 0;
  bool finalized_ = false;
};

}  // namespace fedda::fl

#endif  // FEDDA_FL_AGGREGATOR_H_
