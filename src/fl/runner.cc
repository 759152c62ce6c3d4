#include "fl/runner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "core/logging.h"
#include "core/thread_pool.h"
#include "fl/aggregator.h"
#include "fl/transport.h"
#include "fl/wire.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace fedda::fl {

using tensor::ParameterStore;
using tensor::Tensor;

const char* FlAlgorithmName(FlAlgorithm algorithm) {
  switch (algorithm) {
    case FlAlgorithm::kFedAvg:
      return "FedAvg";
    case FlAlgorithm::kFedDaRestart:
      return "FedDA-Restart";
    case FlAlgorithm::kFedDaExplore:
      return "FedDA-Explore";
  }
  return "Unknown";
}

namespace {

void ValidateOptions(const FlOptions& options,
                     const std::vector<std::unique_ptr<Client>>& clients) {
  const size_t num_clients = clients.size();
  FEDDA_CHECK_GT(num_clients, 0u);
  // A client encodes its uplink under its own id, which the server reads
  // as its index.
  for (size_t c = 0; c < num_clients; ++c) {
    FEDDA_CHECK_EQ(clients[c]->id(), static_cast<int>(c));
  }
  FEDDA_CHECK_GT(options.rounds, 0);
  FEDDA_CHECK(options.client_fraction > 0.0 &&
              options.client_fraction <= 1.0);
  FEDDA_CHECK(options.param_fraction > 0.0 &&
              options.param_fraction <= 1.0);
  if (options.transport != nullptr) {
    // A transport round is the synchronous protocol over a real wire; the
    // semi-async server's virtual-time schedule has no remote counterpart.
    FEDDA_CHECK(options.aggregation_mode == AggregationMode::kSynchronous)
        << "transport execution supports synchronous aggregation only";
  }
  if (options.aggregation_mode == AggregationMode::kSemiAsync) {
    const SemiAsyncOptions& sa = options.semi_async;
    // Buffered aggregation mixes updates that trained on different rounds'
    // broadcasts; a per-round random group subset (FedAvg's rate D) has no
    // coherent meaning across that mix.
    FEDDA_CHECK_EQ(options.param_fraction, 1.0)
        << "semi-async mode requires param_fraction == 1";
    FEDDA_CHECK_GE(sa.staleness_exponent, 0.0);
    FEDDA_CHECK_GT(sa.network.uplink_bytes_per_sec, 0.0);
    FEDDA_CHECK_GT(sa.network.downlink_bytes_per_sec, 0.0);
    if (!sa.client_speed.empty()) {
      FEDDA_CHECK_EQ(sa.client_speed.size(), num_clients)
          << "client_speed must have one entry per client";
      for (double speed : sa.client_speed) FEDDA_CHECK_GT(speed, 0.0);
    }
  }
}

}  // namespace

FederatedRunner::FederatedRunner(const hgn::SimpleHgn* model,
                                 const graph::HeteroGraph* global_graph,
                                 const std::vector<graph::EdgeId>* test_edges,
                                 std::vector<std::unique_ptr<Client>> clients,
                                 FlOptions options)
    : model_(model), global_graph_(global_graph), test_edges_(test_edges),
      clients_(std::move(clients)), options_(options),
      global_mp_(model->BuildStructure(*global_graph)) {
  ValidateOptions(options_, clients_);
}

FederatedRunner::FederatedRunner(std::vector<std::unique_ptr<Client>> clients,
                                 Evaluator evaluator, FlOptions options)
    : clients_(std::move(clients)), options_(options),
      evaluator_(std::move(evaluator)) {
  FEDDA_CHECK(evaluator_ != nullptr);
  ValidateOptions(options_, clients_);
}

std::pair<double, double> FederatedRunner::EvaluateGlobal(
    tensor::ParameterStore* store, core::Rng* rng,
    core::ThreadPool* pool) const {
  if (evaluator_) return evaluator_(store, rng);
  hgn::EvalOptions eval_options = options_.eval;
  eval_options.pool = pool;
  eval_options.tracer = options_.tracer;
  const hgn::EvalResult eval = hgn::EvaluateLinkPrediction(
      *model_, *global_graph_, global_mp_, *test_edges_, store,
      eval_options, rng);
  return {eval.auc, eval.mrr};
}

std::vector<int> FederatedRunner::SelectParticipants(ActivationState* state,
                                                     core::Rng* rng) {
  if (options_.algorithm == FlAlgorithm::kFedAvg) {
    const int m = num_clients();
    const int take = std::max(
        1, static_cast<int>(std::llround(options_.client_fraction * m)));
    if (take >= m) {
      std::vector<int> all(static_cast<size_t>(m));
      for (int i = 0; i < m; ++i) all[static_cast<size_t>(i)] = i;
      return all;
    }
    std::vector<int> out;
    for (size_t idx : rng->SampleWithoutReplacement(
             static_cast<size_t>(m), static_cast<size_t>(take))) {
      out.push_back(static_cast<int>(idx));
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  return state->ActiveClients();
}

double FederatedRunner::AggregationWeight(int client) const {
  if (!options_.weighted_aggregation) return 1.0;
  return std::max<double>(
      1.0, static_cast<double>(
               clients_[static_cast<size_t>(client)]->num_task_edges()));
}

void FederatedRunner::UpdateActivation(
    const std::vector<int>& aggregated,
    const std::vector<std::vector<double>>& magnitudes,
    ActivationState* state, core::Rng* rng) {
  const int m = num_clients();
  state->UpdateMasks(aggregated, magnitudes);
  const std::vector<int> just_deactivated =
      state->DeactivateLowOccupancy(aggregated);

  if (options_.algorithm == FlAlgorithm::kFedDaRestart) {
    if (static_cast<double>(state->num_active_clients()) <
        options_.beta_r * m) {
      state->ActivateAll();
    }
  } else {
    const int target = std::max(
        1, static_cast<int>(std::llround(options_.beta_e * m)));
    if (state->num_active_clients() < target) {
      // Candidate pool: deactivated clients, excluding the ones dropped
      // this very round (paper Sec. 5.2, historical consistency).
      std::vector<int> candidates;
      for (int c = 0; c < m; ++c) {
        if (state->client_active(c)) continue;
        if (std::find(just_deactivated.begin(), just_deactivated.end(),
                      c) != just_deactivated.end()) {
          continue;
        }
        candidates.push_back(c);
      }
      rng->Shuffle(&candidates);
      for (int c : candidates) {
        if (state->num_active_clients() >= target) break;
        state->ReactivateClient(c);
      }
    }
    if (state->num_active_clients() == 0) {
      // Degenerate guard (e.g. every client deactivated in round 1 and
      // no rejoin candidates): restart rather than dead-lock.
      state->ActivateAll();
    }
  }
}

/// Shared per-run state and the round driver. One instance lives for the
/// whole Run(): the pool, activation state, downlink versions, event queue,
/// and in-flight bookkeeping all persist across rounds.
struct FederatedRunner::RoundLoop {
  FederatedRunner* runner;
  ParameterStore* global;
  core::Rng* rng;
  bool is_fedda;
  bool semi_async;
  int num_groups;
  std::vector<int> all_groups;

  ActivationState state;
  core::Rng eval_rng;
  core::ThreadPool pool;
  hgn::TrainOptions local_options;
  DownlinkVersionTracker downlink;
  /// Remote execution (null in-process). `mirror` tracks what each remote
  /// process's copy of the global store already holds, over *all* groups —
  /// unlike `downlink`, which bills only the masked requests. In-process
  /// clients read the global directly, so training on the full current
  /// model is free; a remote mirror has to be kept exact explicitly, and
  /// this tracker keeps those resyncs incremental (only groups aggregation
  /// rewrote since the client's last sync travel again).
  Transport* transport;
  DownlinkVersionTracker mirror;

  obs::Tracer* tracer;
  obs::Counter* ctr_rounds = nullptr;
  obs::Counter* ctr_participants = nullptr;
  obs::Counter* ctr_uplink_bytes = nullptr;
  obs::Counter* ctr_downlink_bytes = nullptr;
  obs::Counter* ctr_uplink_scalars = nullptr;
  obs::Counter* ctr_downlink_scalars = nullptr;
  obs::Counter* ctr_departures = nullptr;
  obs::Counter* ctr_forced_reactivations = nullptr;

  FlRunResult result;

  // Event-driven server state (semi-async mode).
  EventQueue queue;
  /// Client has an update (or a scheduled departure) in flight and must not
  /// be re-broadcast until the event is processed.
  std::vector<uint8_t> in_flight;
  /// A dispatched update's round, loss and uplink payload, captured when
  /// it trained (the masks in force then) and charged and folded in when it
  /// is aggregated — the same round in sync mode, possibly a later one in
  /// semi-async mode.
  struct Pending {
    int round = 0;
    double loss = 0.0;
    WirePayload uplink;
    int64_t downlink_bytes = 0;
  };
  std::vector<Pending> pending;

  RoundLoop(FederatedRunner* r, ParameterStore* global_store, core::Rng* g)
      : runner(r), global(global_store), rng(g),
        is_fedda(r->options_.algorithm != FlAlgorithm::kFedAvg),
        semi_async(r->options_.aggregation_mode ==
                   AggregationMode::kSemiAsync),
        num_groups(global_store->num_groups()),
        all_groups(static_cast<size_t>(num_groups)),
        state(r->num_clients(), *global_store, r->options_.activation),
        eval_rng(g->Split()),
        pool(r->options_.worker_threads),
        local_options(r->options_.local),
        downlink(r->num_clients(), num_groups),
        transport(r->options_.transport),
        mirror(r->num_clients(), num_groups),
        tracer(r->options_.tracer),
        in_flight(static_cast<size_t>(r->num_clients()), 0),
        pending(static_cast<size_t>(r->num_clients())) {
    std::iota(all_groups.begin(), all_groups.end(), 0);
    local_options.pool = &pool;
    local_options.tracer = tracer;
    obs::MetricsRegistry* metrics = r->options_.metrics;
    if (metrics != nullptr) {
      ctr_rounds = metrics->AddCounter("fl.rounds");
      ctr_participants = metrics->AddCounter("fl.participants");
      ctr_uplink_bytes = metrics->AddCounter("fl.uplink_bytes");
      ctr_downlink_bytes = metrics->AddCounter("fl.downlink_bytes");
      ctr_uplink_scalars = metrics->AddCounter("fl.uplink_scalars");
      ctr_downlink_scalars = metrics->AddCounter("fl.downlink_scalars");
      ctr_departures = metrics->AddCounter("fl.departures");
      ctr_forced_reactivations =
          metrics->AddCounter("fl.forced_reactivations");
    }
    result.history.reserve(static_cast<size_t>(r->options_.rounds));
  }

  const FlOptions& options() const { return runner->options_; }
  Client* client(int c) { return runner->clients_[static_cast<size_t>(c)].get(); }

  /// Every group the client requests this round under its current masks
  /// (everything, for FedAvg).
  std::vector<int> RequestedGroups(int c) const {
    std::vector<int> requested;
    for (int gid = 0; gid < num_groups; ++gid) {
      if (is_fedda && !state.GroupRequested(c, gid)) continue;
      requested.push_back(gid);
    }
    return requested;
  }

  /// Charges the requested-and-stale downlink for `c` against `record`;
  /// returns the bytes shipped (0 when the client's cache is current).
  int64_t ChargeDownlink(int c, int round, RoundRecord* record) {
    const std::vector<int> need = downlink.ClaimStale(c, RequestedGroups(c));
    int64_t bytes = 0;
    int64_t scalars = 0;
    if (!need.empty()) {
      const WirePayload payload = BuildDownlinkPayload(need, c, round,
                                                       *global);
      bytes = payload.EncodedBytes();
      scalars = payload.CoveredScalars();
    }
    record->downlink_bytes += bytes;
    record->downlink_scalars += scalars;
    record->max_downlink_bytes = std::max(record->max_downlink_bytes, bytes);
    record->max_downlink_scalars =
        std::max(record->max_downlink_scalars, scalars);
    return bytes;
  }

  /// The client's update is lost and its cached copy of the model is gone
  /// with it: a socket that died mid-round, a remote reply that does not
  /// fit the model, or a semi-async departure event. Its rejoin is charged
  /// as a full resync.
  void Depart(int c, RoundRecord* record) {
    ++record->departures;
    if (ctr_departures != nullptr) ctr_departures->Increment();
    downlink.InvalidateClient(c);
    mirror.InvalidateClient(c);
  }

  /// Runs ClientUpdate (Client::RunRound) for `trainers` on the global
  /// store, in-process on the pool or in remote processes over the
  /// transport, and returns one reply per trainer, in trainer order. RNG
  /// streams are split from the round RNG in trainer order before any
  /// update starts, so the result is identical whether updates run
  /// sequentially, on the pool, or remotely (a remote task carries its
  /// split state, its masks and a mirror resync). The global store itself
  /// is the broadcast: streaming aggregation defers every write to
  /// Finalize(), so no global value changes while clients read it.
  std::vector<TransportReply> Dispatch(const std::vector<int>& trainers,
                                       const std::vector<int>& selected_groups,
                                       int round) {
    std::vector<core::Rng> client_rngs;
    client_rngs.reserve(trainers.size());
    for (size_t p = 0; p < trainers.size(); ++p) {
      client_rngs.push_back(rng->Split());
    }
    obs::ScopedSpan train_span(tracer, "local-train", "round", round);
    if (transport == nullptr) {
      std::vector<TransportReply> replies(trainers.size());
      // With zero workers ParallelFor degenerates to the sequential loop;
      // with workers each client update is one chunk and the kernels
      // inside it recursively share the same pool.
      pool.ParallelFor(static_cast<int64_t>(trainers.size()),
                       [&](int64_t p) {
        const size_t i = static_cast<size_t>(p);
        const int c = trainers[i];
        obs::ScopedSpan client_span(tracer, "client-update", "client", c);
        replies[i] = client(c)->RunRound(
            *global, local_options, options().dp_noise_std,
            is_fedda ? &state : nullptr, selected_groups, round,
            &client_rngs[i]);
      });
      return replies;
    }

    std::vector<TransportTask> tasks(trainers.size());
    for (size_t p = 0; p < trainers.size(); ++p) {
      const int c = trainers[p];
      TransportTask& task = tasks[p];
      task.client = c;
      task.round = round;
      task.rng_state = client_rngs[p].SaveState();
      task.fedda = is_fedda;
      if (is_fedda) {
        task.mask_bits = state.ClientMask(c);
      } else {
        task.selected_groups = selected_groups;
      }
      task.sync = BuildDownlinkPayload(mirror.ClaimStale(c, all_groups), c,
                                       round, *global);
    }
    std::vector<TransportReply> replies = transport->ExecuteRound(tasks);
    FEDDA_CHECK_EQ(replies.size(), tasks.size());
    return replies;
  }

  /// Semi-async: puts `c`'s arrival or departure in flight at the virtual
  /// time its transfers and compute take under the NetworkModel. A dropout
  /// crashes before upload: its time has no uplink term.
  void Schedule(int c, EventKind kind, int round) {
    const SemiAsyncOptions& sa = options().semi_async;
    const NetworkModel& net = sa.network;
    const Pending& entry = pending[static_cast<size_t>(c)];
    const int64_t uplink_bytes =
        kind == EventKind::kArrival ? entry.uplink.EncodedBytes() : 0;
    const double speed =
        sa.client_speed.empty() ? 1.0
                                : sa.client_speed[static_cast<size_t>(c)];
    const double duration =
        speed *
        (net.round_latency_sec +
         static_cast<double>(entry.downlink_bytes) /
             net.downlink_bytes_per_sec +
         static_cast<double>(options().local.local_epochs) *
             net.compute_sec_per_epoch +
         static_cast<double>(uplink_bytes) / net.uplink_bytes_per_sec);
    queue.Push(queue.virtual_now() + duration, kind, c, round);
    in_flight[static_cast<size_t>(c)] = 1;
  }

  /// Dynamic deactivation emptied the active set outside any reactivation
  /// window (e.g. beta_r = 0): force a full restart instead of aborting the
  /// process, record it, and refill `participants`.
  void ForceReactivation(std::vector<int>* participants, int round,
                         RoundRecord* record) {
    if (!participants->empty()) return;
    state.ActivateAll();
    *participants = state.ActiveClients();
    record->forced_reactivation = true;
    if (ctr_forced_reactivations != nullptr) {
      ctr_forced_reactivations->Increment();
    }
    // Recorded directly (not scheduled): the reactivation happens "now",
    // before anything else this round.
    result.events.push_back(Event{queue.virtual_now(),
                                  EventKind::kReactivation, -1, round});
  }

  void FinishRound(RoundRecord record) {
    if (ctr_participants != nullptr) {
      ctr_participants->Add(record.participants);
      ctr_uplink_bytes->Add(record.uplink_bytes);
      ctr_downlink_bytes->Add(record.downlink_bytes);
      ctr_uplink_scalars->Add(record.uplink_scalars);
      ctr_downlink_scalars->Add(record.downlink_scalars);
    }
    result.total_uplink_groups += record.uplink_groups;
    result.total_uplink_scalars += record.uplink_scalars;
    result.total_max_uplink_scalars += record.max_uplink_scalars;
    result.total_uplink_bytes += record.uplink_bytes;
    result.total_downlink_bytes += record.downlink_bytes;
    result.total_downlink_scalars += record.downlink_scalars;
    result.total_max_downlink_scalars += record.max_downlink_scalars;
    result.history.push_back(std::move(record));
  }

  void Evaluate(int round, RoundRecord* record) {
    if (options().eval_every_round || round == options().rounds - 1) {
      obs::ScopedSpan eval_span(tracer, "eval", "round", round);
      std::tie(record->auc, record->mrr) =
          runner->EvaluateGlobal(global, &eval_rng, &pool);
    }
  }

  void RunRound(int round);
};

/// One round of Algorithm 1 for every mode: select, broadcast and train,
/// aggregate the arrivals under the masks (Eq. 6), update the masks,
/// evaluate. Only dispatch (pool or transport) and arrival collection (this
/// round's trainers, or the event queue drained to K) depend on the mode.
void FederatedRunner::RoundLoop::RunRound(int round) {
  obs::ScopedSpan round_span(tracer, "round", "round", round);
  if (ctr_rounds != nullptr) ctr_rounds->Increment();
  RoundRecord record;
  record.round = round;

  // 1. Select, force reactivation if dynamic deactivation emptied the
  // active set, and skip clients with an update still in flight. Failures
  // are drawn on the coordinator in selection order (never on pool
  // workers). A failed sync participant is never sent the broadcast; a
  // semi-async dropout receives it and crashes mid-flight. Filtering out a
  // remote client whose process already departed draws nothing, so a
  // departure-free remote run replays the in-process RNG stream.
  std::vector<int> selected = runner->SelectParticipants(&state, rng);
  ForceReactivation(&selected, round, &record);
  std::vector<int> trainers;
  std::vector<int> dropouts;
  for (int c : selected) {
    if (in_flight[static_cast<size_t>(c)]) continue;
    if (semi_async) ++record.started;
    if (options().client_failure_prob > 0.0 &&
        rng->Bernoulli(options().client_failure_prob)) {
      if (semi_async) dropouts.push_back(c);
    } else if (transport == nullptr || transport->ClientAlive(c)) {
      trainers.push_back(c);
    }
  }

  // 2. FedAvg's random parameter activation (rate D): one server-side group
  // subset per round, shared by all trainers and drawn only when someone
  // trains. FedDA transmits per its masks, so every group is nominally
  // "selected".
  std::vector<int> selected_groups = all_groups;
  if (!is_fedda && options().param_fraction < 1.0 && !trainers.empty()) {
    const int take = std::max(
        1, static_cast<int>(
               std::llround(options().param_fraction * num_groups)));
    selected_groups.clear();
    for (size_t idx : rng->SampleWithoutReplacement(
             static_cast<size_t>(num_groups), static_cast<size_t>(take))) {
      selected_groups.push_back(static_cast<int>(idx));
    }
    std::sort(selected_groups.begin(), selected_groups.end());
  }

  // 3. Dispatch and capture each reply. A trainer whose reply is lost (its
  // process departed) or does not fit the model layout departs and drops
  // out of `trainers`. The decoder checked a remote reply's structure; its
  // layout is checked here, against the model it must be applied to.
  std::vector<TransportReply> replies;
  if (!trainers.empty()) replies = Dispatch(trainers, selected_groups, round);
  std::vector<int> delivered;
  for (size_t p = 0; p < replies.size(); ++p) {
    const int c = trainers[p];
    TransportReply& reply = replies[p];
    if (!reply.ok || !reply.uplink.CheckLayout(*global).ok()) {
      Depart(c, &record);
      continue;
    }
    delivered.push_back(c);
    Pending& entry = pending[static_cast<size_t>(c)];
    entry.round = round;
    entry.loss = reply.loss;
    entry.uplink = std::move(reply.uplink);
  }
  trainers = std::move(delivered);

  // 4. Charge the downlink under the masks in force this round (before the
  // post-aggregation update below), measured off real fl/wire.h payloads,
  // so it includes entry headers. It goes to every client that received
  // the broadcast and is still there: delivered trainers and semi-async
  // dropouts. An empty need-list costs nothing — the round trigger is
  // covered by the timing model's per-round latency.
  {
    obs::ScopedSpan wire_span(tracer, "wire-encode", "round", round);
    for (int c : trainers) {
      pending[static_cast<size_t>(c)].downlink_bytes =
          ChargeDownlink(c, round, &record);
    }
    for (int c : dropouts) {
      pending[static_cast<size_t>(c)].downlink_bytes =
          ChargeDownlink(c, round, &record);
    }
  }

  // 5. Collect arrivals. Sync: this round's delivered trainers, in order.
  // Semi-async: schedule this round's events, then drain the queue until
  // the buffer holds K arrivals (or nothing is in flight), processing
  // departures as they come.
  std::vector<int> arrivals;
  if (!semi_async) {
    arrivals = trainers;
  } else {
    obs::ScopedSpan sched_span(tracer, "event-schedule", "round", round);
    // Trainers first, so ties pop in that order.
    for (int c : trainers) Schedule(c, EventKind::kArrival, round);
    for (int c : dropouts) Schedule(c, EventKind::kDeparture, round);
    const int buffer_k = options().semi_async.buffer_size;
    while (!queue.empty() &&
           (buffer_k <= 0 || static_cast<int>(arrivals.size()) < buffer_k)) {
      const Event event = queue.Pop();
      result.events.push_back(event);
      in_flight[static_cast<size_t>(event.client)] = 0;
      if (event.kind == EventKind::kDeparture) {
        Depart(event.client, &record);
      } else {
        arrivals.push_back(event.client);
      }
    }
    record.virtual_time_sec = queue.virtual_now();
  }

  // 6. Streaming aggregation: one update at a time into per-group running
  // sums, each charged off its payload, rebuilt from it and freed as soon
  // as it is folded in. Peak server memory is O(model) — the accumulators
  // plus one rebuilt update. A stale update's weight is discounted by
  // 1 / (1 + staleness)^rho; at staleness 0 the divisor is exactly 1.
  std::vector<std::vector<double>> magnitudes;
  double loss_sum = 0.0;
  double staleness_sum = 0.0;
  {
    obs::ScopedSpan agg_span(tracer, "aggregate", "round", round);
    StreamingAggregator::Config config;
    config.fedda = is_fedda;
    StreamingAggregator aggregator(global, &state, selected_groups, config);
    magnitudes.reserve(arrivals.size());
    for (const int c : arrivals) {
      Pending& entry = pending[static_cast<size_t>(c)];
      const int staleness = round - entry.round;
      const int64_t uplink_scalars = entry.uplink.PayloadScalars();
      const int64_t uplink_bytes = entry.uplink.EncodedBytes();
      record.uplink_groups += entry.uplink.num_entries();
      record.uplink_scalars += uplink_scalars;
      record.max_uplink_scalars =
          std::max(record.max_uplink_scalars, uplink_scalars);
      record.uplink_bytes += uplink_bytes;
      record.max_uplink_bytes =
          std::max(record.max_uplink_bytes, uplink_bytes);
      loss_sum += entry.loss;
      staleness_sum += static_cast<double>(staleness);
      // Rebuild the update from its payload onto a copy of the global store
      // (values only, no gradient slots); step 3 checked the layout.
      // Scalars the payload does not carry keep global values. Accumulate
      // reads them only if the client's mask widened while its update was
      // in flight (a semi-async ActivateAll): then they fold in as global.
      ParameterStore update = *global;
      FEDDA_CHECK(entry.uplink.ApplyTo(&update).ok());
      entry.uplink = WirePayload();
      const double weight =
          runner->AggregationWeight(c) /
          std::pow(1.0 + static_cast<double>(staleness),
                   options().semi_async.staleness_exponent);
      magnitudes.push_back(aggregator.Accumulate(c, weight, update));
    }
    if (!arrivals.empty()) {
      std::vector<uint8_t> groups_updated;
      aggregator.Finalize(global, &groups_updated);
      downlink.AdvanceGroups(groups_updated);
      mirror.AdvanceGroups(groups_updated);
    }
  }

  // 7. Masks, evaluation, record.
  if (arrivals.empty()) {
    // Nothing arrived (everyone failed or departed, or no one was eligible
    // to start): no aggregation. The mean loss is NaN, not 0: zero would
    // read as a perfect round downstream.
    record.mean_local_loss = std::numeric_limits<double>::quiet_NaN();
  } else {
    const double n = static_cast<double>(arrivals.size());
    record.participants = static_cast<int>(arrivals.size());
    record.mean_local_loss = loss_sum / n;
    record.mean_staleness = staleness_sum / n;
    if (is_fedda) {
      obs::ScopedSpan mask_span(tracer, "mask-update", "round", round);
      runner->UpdateActivation(arrivals, magnitudes, &state, rng);
    }
  }
  record.active_after_round = state.num_active_clients();
  Evaluate(round, &record);
  FinishRound(std::move(record));
}

FlRunResult FederatedRunner::Run(ParameterStore* global_store,
                                 core::Rng* rng) {
  // Observability. Tracing and metrics read state the run produces anyway —
  // they never draw randomness or alter control flow, so enabling them
  // cannot perturb seeded results.
  obs::ScopedSpan run_span(options_.tracer, "run");
  RoundLoop loop(this, global_store, rng);
  loop.result.aggregation_mode = options_.aggregation_mode;
  for (int round = 0; round < options_.rounds; ++round) loop.RunRound(round);
  loop.result.final_auc = loop.result.history.back().auc;
  loop.result.final_mrr = loop.result.history.back().mrr;
  return std::move(loop.result);
}

}  // namespace fedda::fl
