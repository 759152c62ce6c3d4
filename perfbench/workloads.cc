// The benchmark's four workloads. Each Run() is one repetition: a timed
// set-up, a fixed number of rounds timed one by one from outside the
// runner, and the workload's output checks, which run outside the timed
// regions.

#include <signal.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include "bench/bench_common.h"
#include "core/check.h"
#include "core/string_util.h"
#include "core/thread_pool.h"
#include "fl/aggregator.h"
#include "fl/experiment.h"
#include "fl/transport.h"
#include "fl/wire.h"
#include "hgn/link_prediction.h"
#include "net/transport.h"
#include "perfbench/perfbench.h"
#include "tensor/kernels/kernels.h"

namespace fedda::perfbench {
namespace {

/// Process CPU time, minor faults and CSR-cache counters across the timed
/// rounds of one repetition.
class ResourceProbe {
 public:
  ResourceProbe() { Sample(&start_); }

  /// Adds the usage since construction to `rep`.
  void AddTo(Repetition* rep) const {
    Reading end;
    Sample(&end);
    rep->run_wall_sec += end.wall - start_.wall;
    rep->run_cpu_sec += end.cpu - start_.cpu;
    rep->minor_faults += end.minor_faults - start_.minor_faults;
    rep->csr_hits += end.csr_hits - start_.csr_hits;
    rep->csr_misses += end.csr_misses - start_.csr_misses;
  }

 private:
  struct Reading {
    double wall = 0.0;
    double cpu = 0.0;
    int64_t minor_faults = 0;
    int64_t csr_hits = 0;
    int64_t csr_misses = 0;
  };

  static void Sample(Reading* out) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    out->wall = Now();
    out->cpu = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
               1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                          usage.ru_stime.tv_usec);
    out->minor_faults = usage.ru_minflt;
    out->csr_hits = tensor::kernels::CsrCacheHits();
    out->csr_misses = tensor::kernels::CsrCacheMisses();
  }

  Reading start_;
};

/// Self times of `tracer`'s spans inside its "round" spans.
SelfTimes RoundSelfTimes(const obs::Tracer* tracer) {
  if (tracer == nullptr) return SelfTimes{};
  return ComputeSelfTimes(tracer->Collect(), "round");
}

/// The round checks shared by the training workloads: every round
/// aggregated something with a finite loss, and nobody departed.
void CheckRounds(const fl::FlRunResult& result, Repetition* rep) {
  for (const fl::RoundRecord& record : result.history) {
    rep->updates_attempted += record.participants + record.departures;
    rep->updates_failed += record.departures;
    if (record.departures > 0) {
      rep->failures.push_back(core::StrFormat(
          "round %d: %d departures", record.round, record.departures));
    }
    if (record.participants == 0 || !std::isfinite(record.mean_local_loss)) {
      ++rep->updates_failed;
      rep->failures.push_back(
          core::StrFormat("round %d: no finite loss", record.round));
    }
  }
  rep->up_bytes = result.total_uplink_bytes;
  rep->down_bytes = result.total_downlink_bytes;
  rep->final_auc = result.final_auc;
  for (const fl::RoundRecord& record : result.history) {
    rep->round_auc.push_back(record.auc);
  }
}

// -- In-process link-prediction workloads ----------------------------------

/// DBLP at the bench default scale with 8 biased clients and the
/// paper-default Simple-HGN (bench_common's layout), trained in-process.
class InProcessWorkload final : public Workload {
 public:
  InProcessWorkload(fl::FlOptions options, double target_auc,
                    double auc_floor)
      : options_(std::move(options)), target_auc_(target_auc),
        auc_floor_(auc_floor) {}

  Repetition Run(obs::Tracer* tracer, uint64_t seed) override {
    Repetition rep;
    rep.seed = seed;
    const double t0 = Now();
    const fl::FederatedSystem system =
        fl::FederatedSystem::Build(bench::MakeSystemConfig(flags_, kClients));
    tensor::ParameterStore store = system.MakeInitialStore(seed);
    std::vector<std::unique_ptr<fl::Client>> clients =
        system.MakeClients(store);
    const hgn::MpStructure mp = system.model().BuildStructure(system.global());
    core::ThreadPool eval_pool(options_.worker_threads);

    // Round boundaries: the runner calls the evaluator once at the end of
    // every round. It runs the same EvaluateLinkPrediction call as the
    // built-in evaluation, so results are unchanged.
    std::vector<double> marks;
    hgn::EvalOptions eval = options_.eval;
    eval.pool = options_.worker_threads > 0 ? &eval_pool : nullptr;
    eval.tracer = tracer;
    fl::FederatedRunner::Evaluator evaluator =
        [&](tensor::ParameterStore* global, core::Rng* rng) {
          const hgn::EvalResult result = hgn::EvaluateLinkPrediction(
              system.model(), system.global(), mp, system.test_edges(),
              global, eval, rng);
          marks.push_back(Now());
          return std::make_pair(result.auc, result.mrr);
        };
    fl::FlOptions options = options_;
    options.tracer = tracer;
    fl::FederatedRunner runner(std::move(clients), evaluator, options);
    core::Rng rng(seed ^ 0xF3DDAF3DDAULL);
    rep.setup_sec.push_back(Now() - t0);

    const ResourceProbe probe;
    marks.push_back(Now());
    const fl::FlRunResult result = runner.Run(&store, &rng);
    probe.AddTo(&rep);
    rep.self = RoundSelfTimes(tracer);

    for (size_t r = 0; r + 1 < marks.size(); ++r) {
      rep.round_sec.push_back(marks[r + 1] - marks[r]);
      rep.round_updates.push_back(result.history[r].participants);
    }
    CheckRounds(result, &rep);
    for (const fl::RoundRecord& record : result.history) {
      if (record.auc >= target_auc_) {
        rep.target_round = record.round + 1;
        break;
      }
    }
    if (!(result.final_auc >= auc_floor_)) {
      rep.failures.push_back(core::StrFormat(
          "final AUC %.6f below the floor %.2f", result.final_auc,
          auc_floor_));
    }
    return rep;
  }

  int busy_threads() const override { return options_.worker_threads + 1; }
  double target_auc() const override { return target_auc_; }

  static constexpr int kClients = 8;

 private:
  bench::CommonFlags flags_;  // dblp, scale 0.008, hidden 16, system seed 7
  fl::FlOptions options_;
  double target_auc_;
  double auc_floor_;
};

fl::FlOptions DblpOptions(int rounds) {
  bench::CommonFlags flags;
  flags.rounds = rounds;
  fl::FlOptions options = bench::MakeFlOptions(flags);  // alpha 0.5, beta_r 0.4
  options.eval_every_round = true;
  return options;
}

std::unique_ptr<Workload> MakeDblpFedDaSeq() {
  fl::FlOptions options = DblpOptions(10);
  options.algorithm = fl::FlAlgorithm::kFedDaRestart;
  options.worker_threads = 0;
  return std::make_unique<InProcessWorkload>(options, 0.75, 0.7);
}

std::unique_ptr<Workload> MakeDblpFedAvgAsyncPool() {
  fl::FlOptions options = DblpOptions(24);
  options.algorithm = fl::FlAlgorithm::kFedAvg;
  options.aggregation_mode = fl::AggregationMode::kSemiAsync;
  options.semi_async.buffer_size = 4;
  options.semi_async.staleness_exponent = 0.5;
  options.semi_async.client_speed.assign(InProcessWorkload::kClients, 1.0);
  for (int c = 2; c < InProcessWorkload::kClients; c += 3) {
    options.semi_async.client_speed[static_cast<size_t>(c)] = 4.0;
  }
  options.worker_threads = 3;
  return std::make_unique<InProcessWorkload>(options, 0.75, 0.7);
}

// -- uds-fedda-remote --------------------------------------------------------

constexpr int kUdsClients = 3;
constexpr int kUdsRounds = 120;

/// transport_demo's small system: Amazon at scale 0.012, 2 layers, 2 heads,
/// hidden 8.
fl::SystemConfig UdsSystemConfig() {
  fl::SystemConfig config;
  config.data = data::AmazonSpec(0.012);
  config.test_fraction = 0.2;
  config.partition.num_clients = kUdsClients;
  config.partition.num_specialties = 1;
  config.model.num_layers = 2;
  config.model.num_heads = 2;
  config.model.hidden_dim = 8;
  config.model.edge_emb_dim = 4;
  config.seed = 41;  // transport_demo's system seed
  return config;
}

fl::FlOptions UdsOptions() {
  fl::FlOptions options;
  options.algorithm = fl::FlAlgorithm::kFedDaRestart;
  options.rounds = kUdsRounds;
  options.local.local_epochs = 1;
  options.local.learning_rate = 5e-3f;
  options.eval.max_edges = 64;
  options.eval.mrr_negatives = 5;
  options.eval_every_round = false;  // evaluate in the last round only
  return options;
}

uint64_t UdsFingerprint(uint64_t seed) {
  return net::Fingerprint64(core::StrFormat(
      "perfbench-uds|seed=%" PRIu64 "|clients=%d|rounds=%d", seed,
      kUdsClients, kUdsRounds));
}

/// Times every ExecuteRound from outside the runner. Consecutive calls mark
/// round boundaries; in a traced run the call is also an "execute-round"
/// span, so the socket wait shows as its own layer.
class TimingTransport final : public fl::Transport {
 public:
  TimingTransport(fl::Transport* inner, obs::Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::vector<fl::TransportReply> ExecuteRound(
      const std::vector<fl::TransportTask>& tasks) override {
    marks_.push_back(Now());
    std::vector<fl::TransportReply> replies;
    {
      obs::ScopedSpan span(tracer_, "execute-round");
      replies = inner_->ExecuteRound(tasks);
    }
    int ok = 0;
    for (const fl::TransportReply& reply : replies) {
      if (!reply.ok) continue;
      ++ok;
      rtt_sec_.push_back(reply.rtt_sec);
    }
    updates_.push_back(ok);
    return replies;
  }

  bool ClientAlive(int client) const override {
    return inner_->ClientAlive(client);
  }

  const std::vector<double>& marks() const { return marks_; }
  const std::vector<int>& updates() const { return updates_; }
  const std::vector<double>& rtt_sec() const { return rtt_sec_; }

 private:
  fl::Transport* inner_;
  obs::Tracer* tracer_;
  std::vector<double> marks_;
  std::vector<int> updates_;
  std::vector<double> rtt_sec_;
};

/// Client processes of one repetition; the destructor kills and reaps any
/// that were not reaped, so no process outlives the benchmark.
class ChildProcesses {
 public:
  ChildProcesses() = default;
  ChildProcesses(const ChildProcesses&) = delete;
  ChildProcesses& operator=(const ChildProcesses&) = delete;
  ~ChildProcesses() {
    for (const pid_t pid : pids_) kill(pid, SIGKILL);
    ReapAll();
  }

  /// fork+exec of this binary with `args`; false if fork failed.
  bool Spawn(std::vector<std::string> args) {
    std::fflush(nullptr);  // no buffered output may be duplicated
    const pid_t pid = fork();
    if (pid < 0) return false;
    if (pid == 0) {
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      execv("/proc/self/exe", argv.data());
      _exit(127);
    }
    pids_.push_back(pid);
    return true;
  }

  /// Waits for every child; returns how many did not exit with status 0.
  int ReapAll() {
    int abnormal = 0;
    for (const pid_t pid : pids_) {
      int status = 0;
      if (waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
          WEXITSTATUS(status) != 0) {
        ++abnormal;
      }
    }
    pids_.clear();
    return abnormal;
  }

 private:
  std::vector<pid_t> pids_;
};

bool SameRecord(const fl::RoundRecord& a, const fl::RoundRecord& b) {
  return a.auc == b.auc && a.mrr == b.mrr &&
         std::memcmp(&a.mean_local_loss, &b.mean_local_loss,
                     sizeof(double)) == 0 &&
         a.participants == b.participants &&
         a.uplink_bytes == b.uplink_bytes &&
         a.downlink_bytes == b.downlink_bytes &&
         a.uplink_scalars == b.uplink_scalars &&
         a.active_after_round == b.active_after_round;
}

class UdsWorkload final : public Workload {
 public:
  explicit UdsWorkload(std::string scratch_dir)
      : scratch_dir_(std::move(scratch_dir)) {}

  /// The bit-identity reference: the same seed trained in-process.
  void Prepare(uint64_t seed) override {
    const fl::FederatedSystem system =
        fl::FederatedSystem::Build(UdsSystemConfig());
    references_[seed] = fl::RunFederated(system, UdsOptions(), seed);
  }

  Repetition Run(obs::Tracer* tracer, uint64_t seed) override {
    Repetition rep;
    rep.seed = seed;
    const fl::FlRunResult& reference = references_.at(seed);
    const std::string address = core::StrFormat(
        "unix:%s/perfbench-%d-%d.sock", scratch_dir_.c_str(),
        static_cast<int>(getpid()), repetitions_++);
    ChildProcesses children;

    const double t0 = Now();
    const fl::FederatedSystem system =
        fl::FederatedSystem::Build(UdsSystemConfig());
    tensor::ParameterStore store =
        system.MakeInitialStore(seed);
    std::vector<std::unique_ptr<fl::Client>> clients =
        system.MakeClients(store);
    net::ServerOptions server;
    server.address = address;
    server.num_clients = kUdsClients;
    server.fingerprint = UdsFingerprint(seed);
    std::unique_ptr<net::SocketTransport> transport;
    if (const core::Status status =
            net::SocketTransport::Create(server, &transport);
        !status.ok()) {
      rep.failures.push_back("listen: " + status.ToString());
      return rep;
    }
    for (int c = 0; c < kUdsClients; ++c) {
      if (!children.Spawn({"/proc/self/exe", "--role", "client",
                           "--client_id", std::to_string(c), "--address",
                           address, "--seed", std::to_string(seed)})) {
        rep.failures.push_back("fork failed");
        return rep;
      }
    }
    if (const core::Status status = transport->AcceptClients();
        !status.ok()) {
      rep.failures.push_back("handshakes: " + status.ToString());
      return rep;
    }
    TimingTransport timing(transport.get(), tracer);
    fl::FlOptions options = UdsOptions();
    options.transport = &timing;
    options.tracer = tracer;
    fl::FederatedRunner runner(&system.model(), &system.global(),
                               &system.test_edges(), std::move(clients),
                               options);
    core::Rng rng(seed ^ 0xF3DDAF3DDAULL);
    rep.setup_sec.push_back(Now() - t0);

    const net::SocketTransport::Stats before = transport->stats();
    const ResourceProbe probe;
    const fl::FlRunResult result = runner.Run(&store, &rng);
    const double end = Now();
    probe.AddTo(&rep);
    rep.self = RoundSelfTimes(tracer);
    const net::SocketTransport::Stats& after = transport->stats();
    rep.wire_bytes = (after.bytes_sent + after.bytes_received) -
                     (before.bytes_sent + before.bytes_received);
    rep.frames = (after.frames_sent + after.frames_received) -
                 (before.frames_sent + before.frames_received);
    transport->Shutdown();
    if (const int abnormal = children.ReapAll(); abnormal > 0) {
      rep.failures.push_back(core::StrFormat(
          "%d client processes exited abnormally", abnormal));
    }

    const std::vector<double>& marks = timing.marks();
    for (size_t r = 0; r < marks.size(); ++r) {
      const double next = r + 1 < marks.size() ? marks[r + 1] : end;
      rep.round_sec.push_back(next - marks[r]);
      rep.round_updates.push_back(timing.updates()[r]);
    }
    rep.rtt_sec = timing.rtt_sec();
    CheckRounds(result, &rep);

    // Outside the timed region: the remote history must equal the
    // in-process history bit for bit.
    bool same = result.history.size() == reference.history.size() &&
                result.total_uplink_bytes == reference.total_uplink_bytes &&
                result.total_downlink_bytes ==
                    reference.total_downlink_bytes;
    for (size_t r = 0; same && r < result.history.size(); ++r) {
      same = SameRecord(result.history[r], reference.history[r]);
    }
    if (!same) {
      rep.failures.push_back(
          "remote round history differs from the in-process run");
    }
    return rep;
  }

 private:
  std::string scratch_dir_;
  std::map<uint64_t, fl::FlRunResult> references_;
  int repetitions_ = 0;
};

// -- server-ingest -------------------------------------------------------------

/// The server's O(model) path alone: 64 clients report FedDA uplinks of the
/// DBLP layout at hidden 64 every round; the server decodes, reconstructs
/// and aggregates them, updates the masks, and encodes the downlinks.
class ServerIngestWorkload final : public Workload {
 public:
  static constexpr int kClients = 64;
  static constexpr int kRounds = 12;
  static constexpr int kSetups = 5;  // set-up is cheap: sample it 5 times
  static constexpr int kNoiseBases = 8;
  static constexpr double kBetaR = 0.4;

  Repetition Run(obs::Tracer* tracer, uint64_t seed) override {
    Repetition rep;
    rep.seed = seed;
    const std::vector<tensor::ParameterStore> bases = MakeDeltaBases(seed);

    // Set-up: model layout, initial global weights, activation state and
    // downlink versions. Repeated because one pass takes milliseconds.
    std::unique_ptr<hgn::SimpleHgn> model;
    std::unique_ptr<tensor::ParameterStore> global;
    std::unique_ptr<fl::ActivationState> state;
    std::unique_ptr<fl::DownlinkVersionTracker> downlink;
    for (int s = 0; s < kSetups; ++s) {
      const double t0 = Now();
      model = MakeModel();
      global = std::make_unique<tensor::ParameterStore>();
      core::Rng init_rng(seed);
      model->InitParameters(global.get(), &init_rng);
      state = std::make_unique<fl::ActivationState>(kClients, *global,
                                                    ActivationOptions());
      downlink = std::make_unique<fl::DownlinkVersionTracker>(
          kClients, global->num_groups());
      rep.setup_sec.push_back(Now() - t0);
    }

    // The checksum reference path: the same updates, never serialized.
    tensor::ParameterStore ref_global = *global;
    fl::ActivationState ref_state(kClients, ref_global, ActivationOptions());

    fl::StreamingAggregator::Config config;
    config.fedda = true;
    for (int round = 0; round < kRounds; ++round) {
      std::vector<int> participants = state->ActiveClients();
      if (participants.empty()) {
        state->ActivateAll();
        ref_state.ActivateAll();
        participants = state->ActiveClients();
      }
      if (ref_state.ActiveClients() != participants) {
        rep.failures.push_back(core::StrFormat(
            "round %d: reference active set differs", round));
        break;
      }

      // Harness, untimed: build each client's update, encode its uplink,
      // and feed the raw update to the reference aggregator.
      std::vector<std::vector<uint8_t>> uplinks;
      std::vector<std::vector<double>> ref_magnitudes;
      fl::StreamingAggregator ref_aggregator(&ref_global, &ref_state, {},
                                             config);
      for (const int c : participants) {
        tensor::ParameterStore update = *global;
        const tensor::ParameterStore& base =
            bases[static_cast<size_t>((3 * c + round) % kNoiseBases)];
        const float scale = 1e-3f * static_cast<float>(1 + c % 5);
        for (int g = 0; g < update.num_groups(); ++g) {
          tensor::Tensor& value = update.value(g);
          const float* delta = base.value(g).data();
          for (int64_t i = 0; i < value.size(); ++i) {
            value.data()[i] += scale * delta[i];
          }
        }
        uplinks.push_back(
            fl::BuildUplinkPayload(*state, c, round, update).Serialize());
        ref_magnitudes.push_back(ref_aggregator.Accumulate(c, 1.0, update));
      }
      std::vector<uint8_t> ref_updated;
      ref_aggregator.Finalize(&ref_global, &ref_updated);
      UpdateActivation(participants, ref_magnitudes, &ref_state);

      // The timed server round.
      const ResourceProbe probe;
      const double t0 = Now();
      {
        obs::ScopedSpan round_span(tracer, "round");
        fl::StreamingAggregator aggregator(global.get(), state.get(), {},
                                           config);
        std::vector<int> aggregated;
        std::vector<std::vector<double>> magnitudes;
        for (size_t p = 0; p < participants.size(); ++p) {
          ++rep.updates_attempted;
          fl::WirePayload payload;
          core::Status status;
          {
            obs::ScopedSpan span(tracer, "ingest.deserialize");
            status = payload.Deserialize(uplinks[p]);
          }
          tensor::ParameterStore update;
          if (status.ok()) {
            obs::ScopedSpan span(tracer, "ingest.apply");
            update = *global;
            status = payload.ApplyTo(&update);
          }
          if (!status.ok()) {
            ++rep.updates_failed;
            rep.failures.push_back("uplink rejected: " + status.ToString());
            continue;
          }
          {
            obs::ScopedSpan span(tracer, "ingest.accumulate");
            magnitudes.push_back(
                aggregator.Accumulate(participants[p], 1.0, update));
          }
          aggregated.push_back(participants[p]);
          rep.up_bytes += static_cast<int64_t>(uplinks[p].size());
        }
        rep.round_updates.push_back(static_cast<int>(aggregated.size()));
        {
          obs::ScopedSpan span(tracer, "ingest.finalize");
          std::vector<uint8_t> updated;
          aggregator.Finalize(global.get(), &updated);
          downlink->AdvanceGroups(updated);
        }
        {
          obs::ScopedSpan span(tracer, "ingest.activation");
          UpdateActivation(aggregated, magnitudes, state.get());
        }
        {
          obs::ScopedSpan span(tracer, "ingest.downlink");
          for (const int c : state->ActiveClients()) {
            std::vector<int> requested;
            for (int g = 0; g < global->num_groups(); ++g) {
              if (state->GroupRequested(c, g)) requested.push_back(g);
            }
            const std::vector<int> need = downlink->ClaimStale(c, requested);
            if (need.empty()) continue;
            rep.down_bytes += static_cast<int64_t>(
                fl::BuildDownlinkPayload(need, c, round, *global)
                    .Serialize()
                    .size());
          }
        }
      }
      rep.round_sec.push_back(Now() - t0);
      probe.AddTo(&rep);

      // Untimed check: the wire path and the reference agree bit for bit.
      if (Checksum(*global) != Checksum(ref_global)) {
        rep.failures.push_back(core::StrFormat(
            "round %d: model checksum differs from the unserialized "
            "reference",
            round));
        break;
      }
    }
    rep.self = RoundSelfTimes(tracer);
    return rep;
  }

 private:
  static fl::ActivationOptions ActivationOptions() {
    fl::ActivationOptions options;
    options.alpha = 0.5;
    return options;
  }

  /// The DBLP schema's Simple-HGN at hidden 64 (no graph is synthesized:
  /// the server needs only the parameter layout).
  static std::unique_ptr<hgn::SimpleHgn> MakeModel() {
    const data::SyntheticSpec spec = data::DblpSpec(0.008);
    std::vector<int64_t> feature_dims;
    std::vector<std::string> node_types;
    std::vector<std::string> edge_types;
    for (const data::NodeTypeSpec& node : spec.node_types) {
      feature_dims.push_back(node.feature_dim);
      node_types.push_back(node.name);
    }
    for (const data::EdgeTypeSpec& edge : spec.edge_types) {
      edge_types.push_back(edge.name);
    }
    bench::CommonFlags flags;
    flags.hidden_dim = 64;
    return std::make_unique<hgn::SimpleHgn>(
        std::move(feature_dims), std::move(node_types),
        std::move(edge_types), bench::MakeSystemConfig(flags, kClients).model);
  }

  /// Harness input: synthetic client deltas built from a few Gaussian bases
  /// with a random scale per group, so per-client magnitudes differ group
  /// by group and the masks really evolve.
  static std::vector<tensor::ParameterStore> MakeDeltaBases(uint64_t seed) {
    tensor::ParameterStore layout;
    core::Rng init_rng(seed);
    MakeModel()->InitParameters(&layout, &init_rng);
    core::Rng rng(seed ^ 0x1A6E57ULL);
    std::vector<tensor::ParameterStore> bases;
    for (int k = 0; k < kNoiseBases; ++k) {
      tensor::ParameterStore base = layout;
      for (int g = 0; g < base.num_groups(); ++g) {
        const double scale = std::exp(rng.Uniform(-1.5, 1.5));
        tensor::Tensor& value = base.value(g);
        for (int64_t i = 0; i < value.size(); ++i) {
          value.data()[i] = static_cast<float>(rng.Gaussian(0.0, scale));
        }
      }
      bases.push_back(std::move(base));
    }
    return bases;
  }

  /// FedDA-Restart's post-aggregation step, as the runner performs it.
  static void UpdateActivation(const std::vector<int>& aggregated,
                               const std::vector<std::vector<double>>& mags,
                               fl::ActivationState* state) {
    state->UpdateMasks(aggregated, mags);
    state->DeactivateLowOccupancy(aggregated);
    if (static_cast<double>(state->num_active_clients()) <
        kBetaR * state->num_clients()) {
      state->ActivateAll();
    }
  }

  static uint64_t Checksum(const tensor::ParameterStore& store) {
    uint64_t hash = 1469598103934665603ULL;
    for (int g = 0; g < store.num_groups(); ++g) {
      const tensor::Tensor& value = store.value(g);
      const auto* bytes = reinterpret_cast<const unsigned char*>(value.data());
      for (size_t i = 0; i < static_cast<size_t>(value.size()) * sizeof(float);
           ++i) {
        hash = (hash ^ bytes[i]) * 1099511628211ULL;
      }
    }
    return hash;
  }
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& scratch_dir) {
  if (name == "dblp-fedda-seq") return MakeDblpFedDaSeq();
  if (name == "dblp-fedavg-async-pool") return MakeDblpFedAvgAsyncPool();
  if (name == "uds-fedda-remote") {
    return std::make_unique<UdsWorkload>(scratch_dir);
  }
  if (name == "server-ingest") return std::make_unique<ServerIngestWorkload>();
  return nullptr;
}

int RunRemoteClient(uint64_t seed, int client_id, const std::string& address) {
  const fl::FlOptions options = UdsOptions();
  const fl::FederatedSystem system =
      fl::FederatedSystem::Build(UdsSystemConfig());
  tensor::ParameterStore mirror = system.MakeInitialStore(seed);
  std::vector<std::unique_ptr<fl::Client>> clients =
      system.MakeClients(mirror);
  fl::ActivationState state(system.num_clients(), mirror, options.activation);
  net::RemoteClientOptions remote;
  remote.address = address;
  remote.client_id = client_id;
  remote.fingerprint = UdsFingerprint(seed);
  remote.local = options.local;
  net::RemoteClient client(clients[static_cast<size_t>(client_id)].get(),
                           &state, &mirror, remote);
  const core::Status status = client.Run();
  if (!status.ok()) {
    std::fprintf(stderr, "client %d: %s\n", client_id,
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace fedda::perfbench
