// Real multi-process federated training over sockets.
//
// One binary, three roles:
//
//   --role=driver  (default) forks+execs /proc/self/exe as M client
//                  processes, runs the server in this process, and checks
//                  the outcome per --mode.
//   --role=server  the server half alone (for a hand-run two-terminal
//                  setup; see README).
//   --role=client  one client process (--client_id required).
//
// Driver modes:
//
//   --mode=verify     seeded multi-process run must reproduce the
//                     in-process runner's round history bit for bit.
//   --mode=kill_test  one client SIGKILLs itself mid-round; the run must
//                     complete with the departure recorded and every later
//                     round running without the victim.
//   --mode=bench      measures wall-clock and bytes actually moved over the
//                     wire against the post-hoc SimulateTiming estimate;
//                     writes bench_results/transport_rtt.json.
//
// Both sides hash the flag-derived config string (Fingerprint64) and the
// server refuses mismatched Hellos, so the processes can never silently
// train different models.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/flags.h"
#include "core/status.h"
#include "core/string_util.h"
#include "fl/experiment.h"
#include "fl/network.h"
#include "fl/runner.h"
#include "net/socket.h"
#include "net/transport.h"

namespace {

using fedda::core::Status;

struct DemoFlags {
  std::string role = "driver";
  std::string mode = "verify";
  /// Empty: the driver derives unix:/tmp/fedda_transport_<pid>.sock and
  /// hands it to the children. server/client roles must agree explicitly.
  std::string address;
  int clients = 4;
  int rounds = 3;
  std::string algorithm = "fedda_restart";
  int64_t seed = 41;
  int64_t run_seed = 123;
  double dp_noise_std = 0.0;
  double client_failure_prob = 0.0;
  double reply_timeout_sec = 60.0;
  int client_id = -1;
  /// Client-only: raise SIGKILL upon receiving this round's task — the
  /// deterministic stand-in for `kill -9` mid-round.
  int kill_self_at_round = -1;
  std::string outdir = "bench_results";
};

/// The canonical config string both sides fingerprint. Every flag that
/// changes the model, the data, or the round schedule must appear here.
std::string ConfigString(const DemoFlags& flags) {
  return fedda::core::StrFormat(
      "transport_demo|clients=%d|rounds=%d|algorithm=%s|seed=%" PRId64
      "|run_seed=%" PRId64 "|dp_noise_std=%g|client_failure_prob=%g",
      flags.clients, flags.rounds, flags.algorithm.c_str(), flags.seed,
      flags.run_seed, flags.dp_noise_std, flags.client_failure_prob);
}

fedda::fl::SystemConfig MakeSystemConfig(const DemoFlags& flags) {
  fedda::fl::SystemConfig config;
  config.data = fedda::data::AmazonSpec(0.012);
  config.test_fraction = 0.2;
  config.partition.num_clients = flags.clients;
  config.partition.num_specialties = 1;
  config.model.num_layers = 2;
  config.model.num_heads = 2;
  config.model.hidden_dim = 8;
  config.model.edge_emb_dim = 4;
  config.seed = static_cast<uint64_t>(flags.seed);
  return config;
}

Status ParseAlgorithm(const std::string& name,
                      fedda::fl::FlAlgorithm* algorithm) {
  if (name == "fedavg") {
    *algorithm = fedda::fl::FlAlgorithm::kFedAvg;
  } else if (name == "fedda_restart") {
    *algorithm = fedda::fl::FlAlgorithm::kFedDaRestart;
  } else if (name == "fedda_explore") {
    *algorithm = fedda::fl::FlAlgorithm::kFedDaExplore;
  } else {
    return Status::InvalidArgument(
        "unknown --algorithm (fedavg|fedda_restart|fedda_explore): " + name);
  }
  return Status::OK();
}

Status MakeFlOptions(const DemoFlags& flags, fedda::fl::FlOptions* options) {
  FEDDA_RETURN_IF_ERROR(ParseAlgorithm(flags.algorithm,
                                       &options->algorithm));
  options->rounds = flags.rounds;
  options->local.local_epochs = 1;
  options->local.learning_rate = 5e-3f;
  options->eval.max_edges = 64;
  options->eval.mrr_negatives = 5;
  options->eval_every_round = true;
  options->dp_noise_std = flags.dp_noise_std;
  options->client_failure_prob = flags.client_failure_prob;
  return Status::OK();
}

// -- client role -----------------------------------------------------------

Status RunClient(const DemoFlags& flags) {
  if (flags.client_id < 0 || flags.client_id >= flags.clients) {
    return Status::InvalidArgument("--client_id must be in [0, --clients)");
  }
  fedda::fl::FlOptions options;
  FEDDA_RETURN_IF_ERROR(MakeFlOptions(flags, &options));
  const fedda::fl::FederatedSystem system =
      fedda::fl::FederatedSystem::Build(MakeSystemConfig(flags));
  fedda::tensor::ParameterStore mirror =
      system.MakeInitialStore(static_cast<uint64_t>(flags.run_seed));
  std::vector<std::unique_ptr<fedda::fl::Client>> clients =
      system.MakeClients(mirror);
  fedda::fl::ActivationState state(system.num_clients(), mirror,
                                   options.activation);

  fedda::net::RemoteClientOptions remote;
  remote.address = flags.address;
  remote.client_id = flags.client_id;
  remote.fingerprint = fedda::net::Fingerprint64(ConfigString(flags));
  remote.dp_noise_std = options.dp_noise_std;
  remote.local = options.local;
  fedda::net::RemoteClient client(
      clients[static_cast<size_t>(flags.client_id)].get(), &state, &mirror,
      remote);
  if (flags.kill_self_at_round >= 0) {
    const int fatal_round = flags.kill_self_at_round;
    client.set_round_hook([fatal_round](int round) {
      if (round == fatal_round) {
        // A genuine kill -9: no unwinding, no goodbye frame. The server
        // observes EOF with this round's reply still owed.
        raise(SIGKILL);
      }
    });
  }
  return client.Run();
}

// -- driver / server -------------------------------------------------------

/// fork+exec /proc/self/exe as client `client_id`; returns the child pid.
pid_t SpawnClient(const DemoFlags& flags, int client_id,
                  int kill_self_at_round) {
  std::vector<std::string> args;
  args.push_back("/proc/self/exe");
  args.push_back("--role=client");
  args.push_back("--client_id=" + std::to_string(client_id));
  args.push_back("--address=" + flags.address);
  args.push_back("--clients=" + std::to_string(flags.clients));
  args.push_back("--rounds=" + std::to_string(flags.rounds));
  args.push_back("--algorithm=" + flags.algorithm);
  args.push_back("--seed=" + std::to_string(flags.seed));
  args.push_back("--run_seed=" + std::to_string(flags.run_seed));
  args.push_back(
      fedda::core::StrFormat("--dp_noise_std=%.17g", flags.dp_noise_std));
  args.push_back(fedda::core::StrFormat("--client_failure_prob=%.17g",
                                        flags.client_failure_prob));
  if (kill_self_at_round >= 0) {
    args.push_back("--kill_self_at_round=" +
                   std::to_string(kill_self_at_round));
  }

  const pid_t pid = fork();
  if (pid != 0) return pid;  // parent (or -1, which the caller rejects)
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  execv("/proc/self/exe", argv.data());
  // Only reached if exec failed.
  std::perror("execv(/proc/self/exe)");
  _exit(127);
}

bool SameHistory(const fedda::fl::FlRunResult& remote,
                 const fedda::fl::FlRunResult& reference) {
  bool same = remote.history.size() == reference.history.size() &&
              remote.final_auc == reference.final_auc &&
              remote.final_mrr == reference.final_mrr &&
              remote.total_uplink_bytes == reference.total_uplink_bytes &&
              remote.total_downlink_bytes == reference.total_downlink_bytes;
  const size_t rounds =
      std::min(remote.history.size(), reference.history.size());
  for (size_t r = 0; r < rounds; ++r) {
    const fedda::fl::RoundRecord& a = remote.history[r];
    const fedda::fl::RoundRecord& b = reference.history[r];
    if (a.auc != b.auc || a.mrr != b.mrr ||
        a.mean_local_loss != b.mean_local_loss ||
        a.participants != b.participants ||
        a.uplink_bytes != b.uplink_bytes ||
        a.downlink_bytes != b.downlink_bytes ||
        a.uplink_scalars != b.uplink_scalars ||
        a.active_after_round != b.active_after_round) {
      std::fprintf(stderr,
                   "round %zu diverged: auc %.17g vs %.17g, loss %.17g vs "
                   "%.17g, uplink %" PRId64 " vs %" PRId64 " bytes\n",
                   r, a.auc, b.auc, a.mean_local_loss, b.mean_local_loss,
                   a.uplink_bytes, b.uplink_bytes);
      same = false;
    }
  }
  return same;
}

/// Reaps every child; fills `statuses` with raw waitpid status words.
void ReapChildren(const std::vector<pid_t>& pids,
                  std::vector<int>* statuses) {
  for (const pid_t pid : pids) {
    int status = 0;
    if (waitpid(pid, &status, 0) < 0) status = -1;
    statuses->push_back(status);
  }
}

Status RunDriver(DemoFlags flags) {
  if (flags.clients < 2) {
    return Status::InvalidArgument("--clients must be at least 2");
  }
  if (flags.address.empty()) {
    flags.address = "unix:/tmp/fedda_transport_" +
                    std::to_string(getpid()) + ".sock";
  }
  const bool kill_test = flags.mode == "kill_test";
  const bool bench = flags.mode == "bench";
  if (!kill_test && !bench && flags.mode != "verify") {
    return Status::InvalidArgument(
        "unknown --mode (verify|kill_test|bench): " + flags.mode);
  }
  // The victim departs in round 1, so verify-grade determinism holds for
  // round 0 and departure handling is exercised mid-run, not at startup.
  const int victim = kill_test ? flags.clients - 1 : -1;
  const int victim_round = kill_test ? 1 : -1;
  if (kill_test && flags.rounds < 2) {
    return Status::InvalidArgument("kill_test needs --rounds >= 2");
  }

  fedda::fl::FlOptions options;
  FEDDA_RETURN_IF_ERROR(MakeFlOptions(flags, &options));
  const fedda::fl::FederatedSystem system =
      fedda::fl::FederatedSystem::Build(MakeSystemConfig(flags));

  // In-process reference first: it shares no state with the remote run.
  fedda::fl::FlRunResult reference;
  if (!kill_test) {
    reference = fedda::fl::RunFederated(
        system, options, static_cast<uint64_t>(flags.run_seed));
  }

  fedda::net::ServerOptions server;
  server.address = flags.address;
  server.num_clients = flags.clients;
  server.fingerprint = fedda::net::Fingerprint64(ConfigString(flags));
  server.accept_timeout_sec = 120.0;
  server.reply_timeout_sec = flags.reply_timeout_sec;
  std::unique_ptr<fedda::net::SocketTransport> transport;
  FEDDA_RETURN_IF_ERROR(
      fedda::net::SocketTransport::Create(server, &transport));

  std::vector<pid_t> children;
  for (int c = 0; c < flags.clients; ++c) {
    const pid_t pid =
        SpawnClient(flags, c, c == victim ? victim_round : -1);
    if (pid < 0) {
      return Status::IoError("fork failed: " +
                             std::string(std::strerror(errno)));
    }
    children.push_back(pid);
  }
  FEDDA_RETURN_IF_ERROR(transport->AcceptClients());
  std::printf("[driver] %d client processes connected over %s\n",
              flags.clients, transport->address().c_str());

  options.transport = transport.get();
  const double wall_start = fedda::net::MonotonicSeconds();
  const fedda::fl::FlRunResult result = fedda::fl::RunFederated(
      system, options, static_cast<uint64_t>(flags.run_seed));
  const double wall_sec = fedda::net::MonotonicSeconds() - wall_start;
  transport->Shutdown();

  std::vector<int> exit_statuses;
  ReapChildren(children, &exit_statuses);
  for (size_t c = 0; c < children.size(); ++c) {
    const int status = exit_statuses[c];
    const bool killed_as_planned =
        static_cast<int>(c) == victim && WIFSIGNALED(status) &&
        WTERMSIG(status) == SIGKILL;
    const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!clean && !killed_as_planned) {
      return Status::IoError(fedda::core::StrFormat(
          "client %zu exited abnormally (wait status %d)", c, status));
    }
  }

  const fedda::net::SocketTransport::Stats& stats = transport->stats();
  std::printf("[driver] %d rounds, final AUC %.4f, wire %" PRId64
              " B down / %" PRId64 " B up, mean RTT %.1f ms\n",
              flags.rounds, result.final_auc, stats.bytes_sent,
              stats.bytes_received,
              stats.frames_received > 0
                  ? 1e3 * stats.total_rtt_sec /
                        static_cast<double>(stats.frames_received)
                  : 0.0);

  if (kill_test) {
    if (result.history.size() != static_cast<size_t>(flags.rounds)) {
      return Status::Internal("run did not complete all rounds");
    }
    const fedda::fl::RoundRecord& fatal =
        result.history[static_cast<size_t>(victim_round)];
    if (fatal.departures != 1) {
      return Status::Internal(fedda::core::StrFormat(
          "expected 1 departure in round %d, saw %d", victim_round,
          fatal.departures));
    }
    for (int r = victim_round + 1; r < flags.rounds; ++r) {
      if (result.history[static_cast<size_t>(r)].departures != 0) {
        return Status::Internal("departure leaked into a later round");
      }
    }
    if (transport->ClientAlive(victim)) {
      return Status::Internal("victim still marked alive");
    }
    std::printf("[driver] kill_test OK: client %d SIGKILLed in round %d, "
                "departure recorded, run completed\n",
                victim, victim_round);
    return Status::OK();
  }

  if (!SameHistory(result, reference)) {
    return Status::Internal(
        "multi-process round history diverged from the in-process run");
  }
  std::printf("[driver] verify OK: %zu rounds bit-identical to the "
              "in-process runner\n",
              result.history.size());

  if (bench) {
    // What the post-hoc estimator would have predicted for this history,
    // next to what the wire actually moved and how long it really took.
    const fedda::fl::NetworkModel model;
    const std::vector<fedda::fl::RoundTiming> timing =
        fedda::fl::SimulateTiming(result, model, options.local.local_epochs);
    const double estimate_sec =
        timing.empty() ? 0.0 : timing.back().cumulative_sec;

    std::string mkdir = "mkdir -p " + flags.outdir;
    if (std::system(mkdir.c_str()) != 0) {
      return Status::IoError("cannot create " + flags.outdir);
    }
    const std::string path = flags.outdir + "/transport_rtt.json";
    FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return Status::IoError("cannot write " + path);
    std::fprintf(out,
                 "{\n"
                 "  \"clients\": %d,\n"
                 "  \"rounds\": %d,\n"
                 "  \"algorithm\": \"%s\",\n"
                 "  \"wall_sec\": %.6f,\n"
                 "  \"simulated_sec\": %.6f,\n"
                 "  \"wire_bytes_sent\": %" PRId64 ",\n"
                 "  \"wire_bytes_received\": %" PRId64 ",\n"
                 "  \"accounted_downlink_bytes\": %" PRId64 ",\n"
                 "  \"accounted_uplink_bytes\": %" PRId64 ",\n"
                 "  \"frames_sent\": %" PRId64 ",\n"
                 "  \"frames_received\": %" PRId64 ",\n"
                 "  \"mean_rtt_sec\": %.6f,\n"
                 "  \"max_rtt_sec\": %.6f\n"
                 "}\n",
                 flags.clients, flags.rounds, flags.algorithm.c_str(),
                 wall_sec, estimate_sec, stats.bytes_sent,
                 stats.bytes_received, result.total_downlink_bytes,
                 result.total_uplink_bytes, stats.frames_sent,
                 stats.frames_received,
                 stats.frames_received > 0
                     ? stats.total_rtt_sec /
                           static_cast<double>(stats.frames_received)
                     : 0.0,
                 stats.max_rtt_sec);
    std::fclose(out);
    std::printf("[driver] bench: wall %.3fs on the wire vs %.3fs simulated "
                "(loopback has ~none of the modeled bandwidth cost); wrote "
                "%s\n",
                wall_sec, estimate_sec, path.c_str());
  }
  return Status::OK();
}

Status RunServerRole(const DemoFlags& flags) {
  if (flags.address.empty()) {
    return Status::InvalidArgument("--role=server requires --address");
  }
  fedda::fl::FlOptions options;
  FEDDA_RETURN_IF_ERROR(MakeFlOptions(flags, &options));
  const fedda::fl::FederatedSystem system =
      fedda::fl::FederatedSystem::Build(MakeSystemConfig(flags));

  fedda::net::ServerOptions server;
  server.address = flags.address;
  server.num_clients = flags.clients;
  server.fingerprint = fedda::net::Fingerprint64(ConfigString(flags));
  server.accept_timeout_sec = 300.0;
  server.reply_timeout_sec = flags.reply_timeout_sec;
  std::unique_ptr<fedda::net::SocketTransport> transport;
  FEDDA_RETURN_IF_ERROR(
      fedda::net::SocketTransport::Create(server, &transport));
  std::printf("[server] listening on %s, waiting for %d clients\n",
              transport->address().c_str(), flags.clients);
  FEDDA_RETURN_IF_ERROR(transport->AcceptClients());

  options.transport = transport.get();
  const fedda::fl::FlRunResult result = fedda::fl::RunFederated(
      system, options, static_cast<uint64_t>(flags.run_seed));
  transport->Shutdown();
  for (const fedda::fl::RoundRecord& record : result.history) {
    std::printf("[server] round %d: auc=%.4f loss=%.4f participants=%d "
                "departures=%d\n",
                record.round, record.auc, record.mean_local_loss,
                record.participants, record.departures);
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  DemoFlags flags;
  fedda::core::FlagParser parser;
  parser.AddString("role", &flags.role, "driver | server | client");
  parser.AddString("mode", &flags.mode,
                   "driver mode: verify | kill_test | bench");
  parser.AddString("address", &flags.address,
                   "unix:<path> or tcp:<ipv4>:<port> (driver default: "
                   "unix:/tmp/fedda_transport_<pid>.sock)");
  parser.AddInt("clients", &flags.clients, "client processes");
  parser.AddInt("rounds", &flags.rounds, "communication rounds");
  parser.AddString("algorithm", &flags.algorithm,
                   "fedavg | fedda_restart | fedda_explore");
  parser.AddInt("seed", &flags.seed, "system synthesis seed");
  parser.AddInt("run_seed", &flags.run_seed, "model init / round RNG seed");
  parser.AddDouble("dp_noise_std", &flags.dp_noise_std,
                   "DP noise stddev on returned weights");
  parser.AddDouble("client_failure_prob", &flags.client_failure_prob,
                   "per-round simulated failure probability");
  parser.AddDouble("reply_timeout_sec", &flags.reply_timeout_sec,
                   "server per-round reply deadline");
  parser.AddInt("client_id", &flags.client_id, "client role: this client");
  parser.AddInt("kill_self_at_round", &flags.kill_self_at_round,
                "client role: raise SIGKILL on this round's task");
  parser.AddString("outdir", &flags.outdir, "bench output directory");
  if (!parser.Parse(argc, argv).ok()) return 2;

  Status status;
  if (flags.role == "driver") {
    status = RunDriver(flags);
  } else if (flags.role == "server") {
    status = RunServerRole(flags);
  } else if (flags.role == "client") {
    status = RunClient(flags);
  } else {
    status = Status::InvalidArgument("unknown --role: " + flags.role);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "[%s] FAILED: %s\n", flags.role.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}
