#ifndef FEDDA_FL_RUNNER_H_
#define FEDDA_FL_RUNNER_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fl/activation.h"
#include "fl/client.h"
#include "fl/event_queue.h"
#include "fl/network_model.h"
#include "graph/hetero_graph.h"
#include "hgn/link_prediction.h"

namespace fedda::obs {
class MetricsRegistry;
class Tracer;
}  // namespace fedda::obs

namespace fedda::fl {

class Transport;

/// Federated algorithms reproduced from the paper.
enum class FlAlgorithm {
  /// Vanilla FedAvg, optionally with the preliminary study's random client
  /// activation rate C and parameter activation rate D (Fig. 2).
  kFedAvg,
  /// FedDA with the Restart reactivation strategy (beta_r).
  kFedDaRestart,
  /// FedDA with the Explore reactivation strategy (beta_e).
  kFedDaExplore,
};

const char* FlAlgorithmName(FlAlgorithm algorithm);

/// Server aggregation discipline.
enum class AggregationMode {
  /// Classic synchronous rounds: every participant trains on the round's
  /// broadcast and the round ends when the last one is aggregated. Seeded
  /// histories are bit-identical to the pre-event-queue runner.
  kSynchronous,
  /// Buffered semi-async: client updates arrive at virtual times derived
  /// from the NetworkModel, the server aggregates the first
  /// `SemiAsyncOptions::buffer_size` arrivals per round, and updates that
  /// straggle into later rounds are folded in with a staleness-discounted
  /// weight instead of gating the round.
  kSemiAsync,
};

/// Event-driven server options (AggregationMode::kSemiAsync).
struct SemiAsyncOptions {
  /// Aggregate as soon as this many updates have arrived (FedBuff-style K).
  /// <= 0 drains every event in flight each round, which still reorders
  /// arrivals by virtual time but never leaves an update buffered.
  int buffer_size = 0;
  /// Staleness discount exponent rho: an update trained on the broadcast of
  /// round t0 and aggregated in round t contributes with weight multiplier
  /// 1 / (1 + (t - t0))^rho. 0 disables the discount.
  double staleness_exponent = 0.5;
  /// Event-time source: per-client arrival times are
  ///   latency + downlink_bytes/down_bw + E*compute*speed + uplink_bytes/up_bw
  /// using this model's constants and the measured wire bytes.
  NetworkModel network;
  /// Per-client duration multipliers (straggler injection). Empty = all
  /// 1.0; otherwise must have one entry per client. A value of 8.0 makes
  /// that client's rounds 8x slower in virtual time.
  std::vector<double> client_speed;
};

struct FlOptions {
  FlAlgorithm algorithm = FlAlgorithm::kFedAvg;
  /// Communication rounds T (paper: 40).
  int rounds = 40;
  /// FedAvg-only: fraction C of clients randomly activated per round.
  double client_fraction = 1.0;
  /// FedAvg-only: fraction D of parameter groups randomly aggregated per
  /// round (unselected groups keep their previous global value and are not
  /// transmitted).
  double param_fraction = 1.0;
  /// FedDA parameter-activation options (granularity, alpha).
  ActivationOptions activation;
  /// Restart threshold beta_r (paper best: 0.4).
  double beta_r = 0.4;
  /// Explore floor beta_e (paper best: 0.667).
  double beta_e = 0.667;
  hgn::TrainOptions local;
  hgn::EvalOptions eval;
  /// Evaluate the global model on the test set every round (required for
  /// convergence curves; disable for the fastest headline runs).
  bool eval_every_round = true;
  /// Robustness extension: each selected participant independently fails to
  /// respond with this probability (straggler/crash injection). A failed
  /// client trains nothing, transmits nothing, and keeps its activation
  /// state; a round where everyone fails performs no aggregation.
  double client_failure_prob = 0.0;
  /// Privacy extension (the paper's Sec. 7 future work): standard deviation
  /// of Gaussian noise added to every scalar of each client's returned
  /// weights (local-DP-style perturbation). 0 disables (and draws no
  /// randomness, keeping seeded runs bit-identical to before the feature).
  double dp_noise_std = 0.0;
  /// Worker threads for client updates within a round (0 = sequential).
  /// Results are bit-identical to sequential execution: every client's RNG
  /// stream is split from the round RNG before any update starts.
  int worker_threads = 0;
  /// Server aggregation discipline; kSemiAsync turns on the event-driven
  /// buffered server (see `semi_async`). All event-queue operations happen
  /// on the coordinating thread, so semi-async runs stay bit-identical
  /// across worker_threads settings too.
  AggregationMode aggregation_mode = AggregationMode::kSynchronous;
  SemiAsyncOptions semi_async;
  /// Weighted aggregation p_i proportional to each client's task-edge count
  /// (the classic FedAvg n_k/n weighting). The paper deliberately uses
  /// uniform p_i = 1/M because the server must not learn local data sizes
  /// (Sec. 5.1.2); this option exists to quantify what that privacy choice
  /// costs.
  bool weighted_aggregation = false;
  /// Optional transport (fl/transport.h) executing each participant's round
  /// in a remote process; null (the default) trains in-process. Synchronous
  /// mode only. The contract is bit-identity: with live peers, a seeded
  /// remote run's history equals the in-process history, because the runner
  /// ships each participant its split RNG state, its masks, and a mirror
  /// resync of the global store, and aggregates the returned wire payloads
  /// in participant order. A peer that dies mid-round, or replies with an
  /// uplink that does not fit the model layout, is recorded as a departure
  /// (RoundRecord::departures) and its downlink caches are invalidated,
  /// exactly like a semi-async departure event.
  Transport* transport = nullptr;
  /// Optional observability sinks (both may be null; null disables with no
  /// measurable overhead). The tracer receives round/phase/client spans and
  /// is forwarded into TrainOptions/EvalOptions so the tensor kernels tag
  /// their time too; the registry receives fl.* counters mirroring the
  /// RoundRecord byte/scalar fields. Neither touches RNG state: a traced
  /// run is bit-identical to an untraced one (trace_determinism_test).
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// Per-round telemetry.
struct RoundRecord {
  int round = 0;
  double auc = 0.0;
  double mrr = 0.0;
  /// Mean training loss over the updates aggregated this round. NaN when
  /// nothing was aggregated (everyone failed, or a semi-async round drained
  /// no arrivals): a loss of 0.0 would read as a perfect round in CSV /
  /// time-to-accuracy output. CsvWriter renders NaN as an empty field.
  double mean_local_loss = 0.0;
  /// Updates aggregated this round (sync: responding participants;
  /// semi-async: arrivals consumed from the buffer).
  int participants = 0;
  /// Uplink transmitted this round (summed over participants).
  int64_t uplink_groups = 0;
  int64_t uplink_scalars = 0;
  /// Largest single-participant uplink this round. A synchronous round ends
  /// only when its slowest participant finishes, so timing models must
  /// charge this straggler value, not the per-participant mean — under
  /// FedDA's per-client masks the two differ materially.
  int64_t max_uplink_scalars = 0;
  /// Measured wire bytes this round (fl/wire.h payloads, including headers
  /// and bit-packed mask overhead), summed over participants and the
  /// per-participant straggler maxima. Downlink covers only the groups each
  /// participant requests and does not already hold current — the server
  /// never re-ships unchanged groups — so `downlink_scalars` (full-group
  /// coverage shipped down) is at most participants * model scalars and
  /// usually far less. Every aggregated update carries a payload of at
  /// least a header, so a record with `participants > 0` always has bytes;
  /// `participants == 0` is an all-failed round, which moves no bytes at
  /// all and SimulateTiming charges latency only.
  int64_t uplink_bytes = 0;
  int64_t max_uplink_bytes = 0;
  int64_t downlink_scalars = 0;
  int64_t max_downlink_scalars = 0;
  int64_t downlink_bytes = 0;
  int64_t max_downlink_bytes = 0;
  /// Active-set size after this round's (de/re)activation.
  int active_after_round = 0;
  /// Semi-async only (0 in synchronous mode): clients whose training
  /// started this round, mean staleness in rounds over the aggregated
  /// updates, and the virtual time at which this round's buffer filled.
  int started = 0;
  /// Updates lost to a client dropping out while in flight. Semi-async
  /// departure events, and — under a transport — synchronous participants
  /// whose process died mid-round (EOF/timeout before their reply) or whose
  /// reply did not fit the model layout.
  int departures = 0;
  double mean_staleness = 0.0;
  double virtual_time_sec = 0.0;
  /// The server forced a full reactivation because dynamic deactivation
  /// emptied the active set outside any reactivation window (previously a
  /// process abort).
  bool forced_reactivation = false;
};

struct FlRunResult {
  /// The discipline the run used, copied from FlOptions by Run(). Semi-async
  /// histories already carry *measured* virtual network time per round
  /// (RoundRecord::virtual_time_sec, built from the same NetworkModel
  /// constants); feeding them to the post-hoc SimulateTiming estimator
  /// would charge every transfer twice, so SimulateTiming rejects them by
  /// checking this field (the event list cannot serve as the discriminator:
  /// synchronous runs also record kReactivation events).
  AggregationMode aggregation_mode = AggregationMode::kSynchronous;
  std::vector<RoundRecord> history;
  double final_auc = 0.0;
  double final_mrr = 0.0;
  int64_t total_uplink_groups = 0;
  int64_t total_uplink_scalars = 0;
  /// Sum over rounds of RoundRecord::max_uplink_scalars: the uplink volume
  /// on the straggler-bound critical path of a synchronous run.
  int64_t total_max_uplink_scalars = 0;
  /// Measured wire-format totals (sums of the per-round RoundRecord
  /// fields). Bytes include payload headers and mask overhead; the
  /// max_downlink total is the straggler-bound downlink coverage.
  int64_t total_uplink_bytes = 0;
  int64_t total_downlink_bytes = 0;
  int64_t total_downlink_scalars = 0;
  int64_t total_max_downlink_scalars = 0;
  /// Every event the server processed, in order: semi-async arrivals and
  /// departures in pop order, and forced reactivations in any mode (a
  /// synchronous run records only kReactivation events). The sequence is a
  /// pure function of the seed (EventQueue ties break on push order), so it
  /// doubles as the determinism witness across worker_threads settings.
  std::vector<Event> events;
};

/// Orchestrates one federated training run (Algorithm 1): owns the clients,
/// drives rounds, performs masked aggregation (Eq. 6), updates activation
/// state, and evaluates the global model on the global test set.
class FederatedRunner {
 public:
  /// Task-agnostic evaluation hook: scores the global model and returns
  /// (primary, secondary) metrics recorded as RoundRecord::auc / ::mrr.
  using Evaluator =
      std::function<std::pair<double, double>(tensor::ParameterStore*,
                                              core::Rng*)>;

  /// Link-prediction runner (the paper's setting). All pointers must
  /// outlive the runner; `global_graph`/`test_edges` define the evaluation
  /// task.
  FederatedRunner(const hgn::SimpleHgn* model,
                  const graph::HeteroGraph* global_graph,
                  const std::vector<graph::EdgeId>* test_edges,
                  std::vector<std::unique_ptr<Client>> clients,
                  FlOptions options);

  /// Task-agnostic runner: clients may train any TrainableTask and
  /// `evaluator` scores the aggregated model each round.
  FederatedRunner(std::vector<std::unique_ptr<Client>> clients,
                  Evaluator evaluator, FlOptions options);

  /// Runs `options.rounds` rounds starting from the weights in
  /// `global_store` (which receives the final weights).
  FlRunResult Run(tensor::ParameterStore* global_store, core::Rng* rng);

  int num_clients() const { return static_cast<int>(clients_.size()); }
  const FlOptions& options() const { return options_; }

 private:
  struct RoundLoop;  // shared per-run state and the round driver

  /// Participants for round `t` per algorithm.
  std::vector<int> SelectParticipants(ActivationState* state, core::Rng* rng);

  /// Aggregation weight of one participant: uniform 1.0 (the paper's
  /// privacy-preserving p_i = 1/M, renormalized per unit over its
  /// contributors) or task-size proportional under weighted_aggregation.
  double AggregationWeight(int client) const;

  /// Post-aggregation FedDA activation update (masks, alpha deactivation,
  /// Restart/Explore reactivation) for the clients whose updates were
  /// aggregated this round.
  void UpdateActivation(const std::vector<int>& aggregated,
                        const std::vector<std::vector<double>>& magnitudes,
                        ActivationState* state, core::Rng* rng);

  /// Scores `global_store`; uses evaluator_ when set, else the built-in
  /// link-prediction evaluation (which borrows `pool` for its forward pass).
  std::pair<double, double> EvaluateGlobal(tensor::ParameterStore* store,
                                           core::Rng* rng,
                                           core::ThreadPool* pool) const;

  const hgn::SimpleHgn* model_ = nullptr;
  const graph::HeteroGraph* global_graph_ = nullptr;
  const std::vector<graph::EdgeId>* test_edges_ = nullptr;
  std::vector<std::unique_ptr<Client>> clients_;
  FlOptions options_;
  hgn::MpStructure global_mp_;
  Evaluator evaluator_;
};

}  // namespace fedda::fl

#endif  // FEDDA_FL_RUNNER_H_
