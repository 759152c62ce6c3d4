#ifndef FEDDA_FL_ACTIVATION_H_
#define FEDDA_FL_ACTIVATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "tensor/parameter_store.h"

namespace fedda::fl {

/// Unit of FedDA's parameter activation masks.
///
/// kTensor treats each named parameter group as one maskable unit — this is
/// the paper's accounting (Table 3 counts transmitted parameter groups).
/// kScalar masks individual scalars inside disentangled groups (ablation).
enum class ActivationGranularity { kTensor, kScalar };

/// How one parameter group travels in a client's update under one mask row
/// (the paper's index set I_i), as ActivationState::Coverage decides.
enum class GroupCoverage {
  kNone,     // masked off: neither sent nor folded
  kWhole,    // sent and folded whole: outside [N_d], or active per tensor
  kScalars,  // sent and folded per active scalar of a disentangled group
};

/// How the per-unit deactivation threshold is derived from the returned
/// gradient magnitudes. The paper uses the mean "and leaves the discussion
/// of other settings to future work" (Sec. 5.3 fn. 2) — the other two are
/// that future work.
enum class ThresholdRule {
  /// Deactivate contributors strictly below the mean magnitude (paper).
  kMean,
  /// Deactivate contributors strictly below the median magnitude.
  kMedian,
  /// Deactivate contributors strictly below the `threshold_percentile`
  /// quantile of contributor magnitudes.
  kPercentile,
};

struct ActivationOptions {
  ActivationGranularity granularity = ActivationGranularity::kTensor;
  /// Occupation-rate threshold alpha (paper Sec. 5.3): a client whose
  /// active disentangled units fall below alpha * N_d is deactivated.
  double alpha = 0.5;
  ThresholdRule threshold_rule = ThresholdRule::kMean;
  /// Quantile in [0, 1] for ThresholdRule::kPercentile; 0.25 deactivates
  /// (roughly) the bottom quarter of contributors per unit.
  double threshold_percentile = 0.25;
};

/// Deactivation threshold over the contributing clients' magnitudes for one
/// unit, per `options.threshold_rule`. kMedian averages the two middle
/// values for even-sized sets (a true median, not the upper-middle order
/// statistic). Reorders `magnitudes`; must be non-empty.
double ComputeThreshold(std::vector<double>* magnitudes,
                        const ActivationOptions& options);

/// Server-side dynamic activation state: the active client set D_A and the
/// per-client parameter request masks I_i (paper Sec. 5.2-5.3).
///
/// Only units in the disentangled set [N_d] are ever masked; all other
/// parameters are always requested from active clients. Masks follow the
/// paper's text criterion: after round t, unit k is deactivated for client i
/// if i's returned pseudo-gradient magnitude for k is below the mean over
/// all clients that returned k (see DESIGN.md for the Eq. 7 discrepancy).
class ActivationState {
 public:
  /// `reference` supplies the parameter layout (group sizes, disentangled
  /// flags); all clients start active with all-ones masks.
  ActivationState(int num_clients, const tensor::ParameterStore& reference,
                  const ActivationOptions& options);

  int num_clients() const { return num_clients_; }
  int num_active_clients() const;
  bool client_active(int client) const;
  /// Ascending ids of active clients (the paper's D_A).
  std::vector<int> ActiveClients() const;

  /// Number of maskable units (disentangled groups or scalars).
  int64_t num_units() const { return num_units_; }

  /// Whether client `client` is asked to return unit `unit`.
  bool UnitActive(int client, int64_t unit) const;
  /// How `group` travels under mask row `mask` (num_units() entries, as
  /// ClientMask returns): the one rule that the uplink builder, the
  /// aggregator and GroupRequested follow. Sets `*first_unit`, when given,
  /// to GroupFirstUnit(group) for callers that index the row.
  GroupCoverage Coverage(const std::vector<uint8_t>& mask, int group,
                         int64_t* first_unit = nullptr) const;
  /// Whether `client`'s mask covers any of `group` (groups outside [N_d]
  /// are always requested).
  bool GroupRequested(int client, int group) const;
  /// Active unit count of a client (the sum over I_i in the alpha rule).
  int64_t ActiveUnits(int client) const;

  /// Mask update from returned pseudo-gradients. `participants` are the
  /// clients that trained this round; `magnitudes[p][u]` is participant
  /// p's |delta| magnitude for unit u (mean |delta| over the group at
  /// tensor granularity). Units the client did not return (mask 0) are
  /// ignored in both the mean and the update.
  void UpdateMasks(const std::vector<int>& participants,
                   const std::vector<std::vector<double>>& magnitudes);

  /// Applies the alpha occupation rule to `participants`; returns the
  /// clients deactivated by it (removed from D_A).
  std::vector<int> DeactivateLowOccupancy(const std::vector<int>& participants);

  /// Removes a client from D_A (keeps its mask).
  void DeactivateClient(int client);
  /// Restart strategy: reactivate every client and reset all masks to ones.
  void ActivateAll();
  /// Explore rejoin: reactivate one client with a fresh all-ones mask.
  void ReactivateClient(int client);

  const ActivationOptions& options() const { return options_; }

  /// Raw per-unit request mask of `client` (num_units() entries of 0/1).
  /// Shipped to remote client processes so both ends of a transport build
  /// byte-identical uplink payloads from the same mask.
  const std::vector<uint8_t>& ClientMask(int client) const;
  /// Installs a mask received over a transport. `mask` must have
  /// num_units() entries; the active-client set is untouched (a remote
  /// process only mirrors its own row, the server owns D_A).
  void SetClientMask(int client, const std::vector<uint8_t>& mask);

  /// Persists the dynamic state (active set + masks, bit-packed via the
  /// fl/wire.h codec) plus the deactivation options so a server can resume
  /// a FedDA run after a crash: pair with a ParameterStore checkpoint.
  [[nodiscard]] core::Status Save(const std::string& path) const;
  /// Restores state saved by Save(); the layout (client count, granularity,
  /// unit count) and the deactivation options (alpha, threshold rule,
  /// percentile) must match this instance's construction.
  [[nodiscard]] core::Status Load(const std::string& path);

  // -- Unit layout -----------------------------------------------------------
  /// First unit of a disentangled group, or -1 if the group is not maskable.
  int64_t GroupFirstUnit(int group) const;
  /// Number of units of a group (0 for non-disentangled groups).
  int64_t GroupUnitCount(int group) const;

 private:
  int num_clients_;
  ActivationOptions options_;
  int64_t num_units_ = 0;

  // Layout derived from the reference store.
  std::vector<int64_t> group_sizes_;
  std::vector<int64_t> group_first_unit_;  // -1 for non-disentangled
  int64_t total_groups_ = 0;

  std::vector<bool> client_active_;
  /// masks_[client] has num_units_ entries.
  std::vector<std::vector<uint8_t>> masks_;
};

}  // namespace fedda::fl

#endif  // FEDDA_FL_ACTIVATION_H_
