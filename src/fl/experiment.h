#ifndef FEDDA_FL_EXPERIMENT_H_
#define FEDDA_FL_EXPERIMENT_H_

#include <memory>
#include <vector>

#include "data/partition.h"
#include "data/schema.h"
#include "fl/baselines.h"
#include "fl/runner.h"
#include "graph/split.h"
#include "metrics/metrics.h"

namespace fedda::fl {

/// Everything needed to materialize one distributed heterograph system
/// (paper Sec. 6.1, "System synthesis").
struct SystemConfig {
  data::SyntheticSpec data;
  /// Held-out global test fraction (paper: 10% Amazon, 15% DBLP).
  double test_fraction = 0.10;
  data::PartitionOptions partition;
  hgn::SimpleHgnConfig model;
  /// Seed controlling data generation, the split, and the client partition
  /// (NOT model init — each run seeds that separately, paper-style).
  uint64_t seed = 7;
};

/// A materialized system: the global graph, its train/test split, the biased
/// client shards, and the model architecture. All frameworks of one
/// comparison share a single FederatedSystem so they see identical data.
class FederatedSystem {
 public:
  static FederatedSystem Build(const SystemConfig& config);

  FederatedSystem(FederatedSystem&&) = default;
  FederatedSystem& operator=(FederatedSystem&&) = default;

  const graph::HeteroGraph& global() const { return *global_; }
  const std::vector<graph::EdgeId>& train_edges() const {
    return split_.train;
  }
  const std::vector<graph::EdgeId>& test_edges() const { return split_.test; }
  const std::vector<data::ClientShard>& shards() const { return shards_; }
  const hgn::SimpleHgn& model() const { return *model_; }
  int num_clients() const { return static_cast<int>(shards_.size()); }

  /// Fresh model parameters initialized from `seed` (same across all
  /// frameworks of one run, per FedAvg's shared-initialization requirement).
  tensor::ParameterStore MakeInitialStore(uint64_t seed) const;

  /// Fresh clients whose stores copy `reference` (structure and values).
  std::vector<std::unique_ptr<Client>> MakeClients(
      const tensor::ParameterStore& reference) const;

 private:
  FederatedSystem() = default;

  std::unique_ptr<graph::HeteroGraph> global_;
  graph::EdgeSplit split_;
  std::vector<data::ClientShard> shards_;
  std::unique_ptr<hgn::SimpleHgn> model_;
};

/// Runs one federated experiment on `system` with fresh init from
/// `run_seed`.
FlRunResult RunFederated(const FederatedSystem& system,
                         const FlOptions& options, uint64_t run_seed);

/// Runs `num_runs` repetitions with seeds base_seed, base_seed+1, ...
std::vector<FlRunResult> RunFederatedRepeated(const FederatedSystem& system,
                                              const FlOptions& options,
                                              int num_runs,
                                              uint64_t base_seed);

/// Global / Local baselines with matched budgets.
BaselineResult RunGlobal(const FederatedSystem& system, int rounds,
                         const hgn::TrainOptions& train,
                         const hgn::EvalOptions& eval, uint64_t run_seed,
                         bool eval_every_round = false);
BaselineResult RunLocal(const FederatedSystem& system, int rounds,
                        const hgn::TrainOptions& train,
                        const hgn::EvalOptions& eval, uint64_t run_seed);

/// Cross-run summary of repeated federated runs.
struct RepeatedSummary {
  metrics::MeanStd final_auc;
  metrics::MeanStd final_mrr;
  double mean_total_uplink_groups = 0.0;
  double mean_total_uplink_scalars = 0.0;
  /// Mean over runs of the straggler-bound uplink total (sum over rounds of
  /// the slowest participant's scalars) — what a synchronous deployment
  /// actually waits for.
  double mean_total_max_uplink_scalars = 0.0;
  /// Mean over runs of the measured wire-format totals (fl/wire.h):
  /// serialized bytes in each direction, including headers and bit-packed
  /// mask overhead, and the full-group scalar coverage shipped down under
  /// the version-tracked request model.
  double mean_total_uplink_bytes = 0.0;
  double mean_total_downlink_bytes = 0.0;
  double mean_total_downlink_scalars = 0.0;
  /// Per-round curves across runs (empty when eval_every_round was off).
  std::vector<double> mean_auc_per_round;
  std::vector<double> min_auc_per_round;
  std::vector<double> max_auc_per_round;
};
RepeatedSummary Summarize(const std::vector<FlRunResult>& runs);

}  // namespace fedda::fl

#endif  // FEDDA_FL_EXPERIMENT_H_
