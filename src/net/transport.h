#ifndef FEDDA_NET_TRANSPORT_H_
#define FEDDA_NET_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "fl/client.h"
#include "fl/event_queue.h"
#include "fl/transport.h"
#include "net/framing.h"
#include "net/socket.h"

namespace fedda::net {

/// Multi-process execution of the synchronous round protocol: one server
/// process runs the FederatedRunner with a SocketTransport plugged into
/// FlOptions::transport, and M client processes each run a RemoteClient.
/// Only fl/wire.h payloads and the small codec messages below cross the
/// sockets; a seeded multi-process run's round history is bit-identical to
/// the in-process runner's (transport_test / transport_demo --mode=verify
/// assert it). DESIGN.md §11 documents the protocol.

/// FNV-1a 64-bit hash; both ends hash their flag-derived config string and
/// the server refuses a Hello whose fingerprint differs, so two processes
/// can never silently train against different models or options.
uint64_t Fingerprint64(const std::string& text);

// -- Message codecs (frame bodies, core/binary_io.h encoding) --------------
// Exposed for tests; SocketTransport and RemoteClient are the real users.

/// kRoundStart body: client, round, RNG state, masks or selected groups,
/// and the mirror-resync payload. Mask bits travel bit-packed.
std::vector<uint8_t> EncodeRoundStart(const fl::TransportTask& task);
[[nodiscard]] core::Status DecodeRoundStart(const std::vector<uint8_t>& body,
                                            fl::TransportTask* task);

/// kRoundReply body.
struct RoundReplyMessage {
  int client = 0;
  int round = 0;
  double loss = 0.0;
  fl::WirePayload uplink;
};
std::vector<uint8_t> EncodeRoundReply(const RoundReplyMessage& message);
[[nodiscard]] core::Status DecodeRoundReply(const std::vector<uint8_t>& body,
                                            RoundReplyMessage* message);

/// kHello body: client id + config fingerprint.
std::vector<uint8_t> EncodeHello(int client, uint64_t fingerprint);
[[nodiscard]] core::Status DecodeHello(const std::vector<uint8_t>& body,
                                       int* client, uint64_t* fingerprint);

// -- Server ----------------------------------------------------------------

struct ServerOptions {
  /// Address to bind ("unix:<path>" or "tcp:<ipv4>:<port>").
  std::string address;
  /// Exact number of client processes to wait for at startup.
  int num_clients = 0;
  /// Config fingerprint a Hello must match (Fingerprint64 of the
  /// flag-derived config string).
  uint64_t fingerprint = 0;
  /// Overall deadline for all `num_clients` handshakes.
  double accept_timeout_sec = 60.0;
  /// Per-round deadline for collecting replies. A participant silent past
  /// it is departed: its connection is closed (a late reply must never leak
  /// into a later round) and the runner records the departure.
  double reply_timeout_sec = 60.0;
};

/// Server side of the wire protocol: owns one connection per client process
/// and implements fl::Transport for the runner. Collection is a poll-driven
/// event loop: every connection-lifecycle observation — a handshake
/// completing, a reply arriving, a peer departing — is appended to the
/// event log with its measured offset on a steady clock, so the log is in
/// (time, seq) order as it is written. The log is observability and test
/// surface only; replies are returned in task order, so aggregation stays
/// deterministic no matter how arrivals interleave.
///
/// Single-threaded by design: ExecuteRound runs on the runner's coordinator
/// thread, like every other round-loop step.
class SocketTransport final : public fl::Transport {
 public:
  /// Binds `options.address` and returns immediately; address() then holds
  /// the dialable address (ephemeral tcp ports resolved), so client
  /// processes can be pointed at it before AcceptClients() blocks.
  [[nodiscard]] static core::Status Create(
      const ServerOptions& options, std::unique_ptr<SocketTransport>* out);

  /// Accepts exactly `options.num_clients` handshakes, failing after
  /// `accept_timeout_sec`. A Hello with a wrong fingerprint or a
  /// duplicate/out-of-range client id fails the call: a config mismatch
  /// must stop the run, not skew it. Must complete before ExecuteRound.
  [[nodiscard]] core::Status AcceptClients();

  ~SocketTransport() override;

  std::vector<fl::TransportReply> ExecuteRound(
      const std::vector<fl::TransportTask>& tasks) override;
  bool ClientAlive(int client) const override;

  /// Sends kShutdown to every live client and closes all sockets. Idempotent;
  /// the destructor calls it.
  void Shutdown();

  /// Wire-level accounting (frame bytes actually moved, measured RTTs).
  struct Stats {
    int64_t frames_sent = 0;
    int64_t frames_received = 0;
    int64_t bytes_sent = 0;
    int64_t bytes_received = 0;
    int departures = 0;
    double total_rtt_sec = 0.0;
    double max_rtt_sec = 0.0;
  };
  const Stats& stats() const { return stats_; }

  /// Connection-lifecycle events in processed order: kArrival for each
  /// completed handshake (round -1) and each round reply, kDeparture for
  /// each lost client. Times are measured seconds since Create().
  const std::vector<fl::Event>& events() const { return events_; }

  /// The bound address in dialable form (ephemeral tcp ports resolved).
  const std::string& address() const { return address_; }

 private:
  SocketTransport() = default;

  /// Closes `client`'s connection and logs a departure at the current
  /// measured time. Idempotent per client.
  void MarkDeparted(int client, int round);
  /// Appends an event at the current measured time, its seq its index.
  void LogEvent(fl::EventKind kind, int client, int round);
  double Elapsed() const { return MonotonicSeconds() - start_time_; }

  struct Connection {
    Socket socket;
    FrameAssembler assembler;
    bool alive = false;
  };

  ServerOptions options_;
  std::string address_;
  Listener listener_;
  std::vector<Connection> connections_;
  std::vector<fl::Event> events_;
  Stats stats_;
  double start_time_ = 0.0;
  bool accepted_ = false;
  bool shut_down_ = false;
};

// -- Client ----------------------------------------------------------------

struct RemoteClientOptions {
  /// Server address to dial.
  std::string address;
  int client_id = 0;
  /// Must equal the server's ServerOptions::fingerprint.
  uint64_t fingerprint = 0;
  /// Dial retry budget (covers starting before the server bound its
  /// socket): 1 + connect_retries attempts, linear backoff.
  int connect_retries = 40;
  double connect_backoff_sec = 0.25;
  double handshake_timeout_sec = 30.0;
  /// Deadline for the next kRoundStart; spans the server's aggregation and
  /// evaluation between rounds, so it is much longer than the server's
  /// reply timeout.
  double round_timeout_sec = 600.0;
  /// Mirror of FlOptions::dp_noise_std, passed to Client::RunRound.
  double dp_noise_std = 0.0;
  /// Mirror of FlOptions::local.
  hgn::TrainOptions local;
};

/// Client side: dials the server, handshakes, then serves rounds until
/// kShutdown. Each round restores the shipped RNG state, resyncs the
/// mirror, installs the shipped mask and runs Client::RunRound, the call
/// the runner's in-process dispatch makes, so the reply bytes are the
/// in-process round's bytes.
class RemoteClient {
 public:
  /// `client` trains (its id must be `options.client_id`), `state` carries
  /// this client's activation masks (FedDA), `mirror` is the local replica
  /// of the server's global store. All three are borrowed and must outlive
  /// the RemoteClient.
  RemoteClient(fl::Client* client, fl::ActivationState* state,
               tensor::ParameterStore* mirror, RemoteClientOptions options);

  /// Test/demo hook invoked right after a kRoundStart frame is received and
  /// decoded, before any work — the deterministic injection point for
  /// mid-round crashes (transport_demo's --kill_self_at_round raises
  /// SIGKILL here, so the server observes a genuine kill -9: EOF with the
  /// round's reply owed).
  void set_round_hook(std::function<void(int round)> hook) {
    hook_ = std::move(hook);
  }

  /// Runs the full lifecycle; returns OK after a clean kShutdown.
  [[nodiscard]] core::Status Run();

 private:
  [[nodiscard]] core::Status Handshake();
  [[nodiscard]] core::Status ServeRound(const std::vector<uint8_t>& body);

  fl::Client* client_;
  fl::ActivationState* state_;
  tensor::ParameterStore* mirror_;
  RemoteClientOptions options_;
  Socket socket_;
  std::function<void(int round)> hook_;
};

}  // namespace fedda::net

#endif  // FEDDA_NET_TRANSPORT_H_
