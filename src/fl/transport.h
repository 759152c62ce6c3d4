#ifndef FEDDA_FL_TRANSPORT_H_
#define FEDDA_FL_TRANSPORT_H_

#include <array>
#include <cstdint>
#include <vector>

#include "fl/wire.h"

namespace fedda::fl {

/// Boundary between the synchronous round loop and a real network.
///
/// The runner normally trains clients in-process. With a Transport plugged
/// into FlOptions::transport, the per-participant work of a round —
/// Client::RunRound: train on the current global, perturb, encode the
/// masked uplink — executes in a remote process instead, and only
/// fl/wire.h payloads cross the boundary. Either way the server folds in
/// the payload RunRound encoded. The contract is bit-identity: a seeded
/// multi-process run reproduces the in-process round history verbatim,
/// because the runner ships each participant the three inputs RunRound
/// consumes: the split RNG stream (as raw engine state, in the split order
/// of the in-process dispatch), the activation masks in force, and a resync
/// payload that makes the remote mirror of the global store exact (see
/// RoundLoop's mirror tracker in runner.cc).

/// Everything one participant needs to execute one synchronous round
/// remotely.
struct TransportTask {
  int client = 0;
  int round = 0;
  /// Engine state of the client's round RNG (core::Rng::SaveState), split
  /// from the server's round stream in participant order. The remote side
  /// restores it with Rng::FromState and hands it to Client::RunRound, which
  /// draws in the in-process order (training first, then DP noise).
  std::array<uint64_t, 4> rng_state{};
  /// True for FedDA algorithms: the uplink is masked (`mask_bits`), not
  /// dense (`selected_groups`).
  bool fedda = false;
  /// FedDA: the client's per-unit request mask in force this round
  /// (ActivationState::ClientMask), installed remotely via SetClientMask so
  /// Client::RunRound masks the uplink as it does in-process.
  std::vector<uint8_t> mask_bits;
  /// FedAvg: the round's server-sampled group subset (rate D) for the dense
  /// uplink. Ascending.
  std::vector<int> selected_groups;
  /// Downlink payload resynchronizing the remote mirror with the global
  /// store — full group coverage, unlike the *charged* downlink, which
  /// bills only masked requests (accounting is unchanged by the transport).
  /// May be header-only when the mirror is already current.
  WirePayload sync;
};

/// One participant's ClientUpdate result: what Client::RunRound returns
/// in-process, or what came back (or didn't) for one transport task.
struct TransportReply {
  /// False when the client departed mid-round: the connection hit EOF, the
  /// read deadline expired, or a frame failed to parse. The runner records
  /// a departure and invalidates the client's downlink caches.
  bool ok = false;
  /// Mean local training loss (Client::Update's return).
  double loss = 0.0;
  /// The client's uplink payload as Client::RunRound encoded it; the server
  /// charges its groups, scalars and bytes and folds it in.
  WirePayload uplink;
  /// Measured wall-clock seconds from task send to reply receipt. Pure
  /// observability: never feeds back into results.
  double rtt_sec = 0.0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Executes one round: delivers `tasks` (one per participant) and collects
  /// one reply per task, in task order. Must not throw and must not block
  /// forever — a dead or silent peer becomes `ok == false` after the
  /// implementation's read deadline.
  virtual std::vector<TransportReply> ExecuteRound(
      const std::vector<TransportTask>& tasks) = 0;

  /// Whether `client`'s peer can still receive tasks. The runner filters
  /// known-dead clients out of a round's participants *after* all selection
  /// RNG draws, so departures never perturb the random stream of the
  /// surviving clients.
  virtual bool ClientAlive(int client) const = 0;
};

}  // namespace fedda::fl

#endif  // FEDDA_FL_TRANSPORT_H_
