// The multi-process transport's determinism contract, exercised over real
// sockets with the client side on threads: a seeded run through
// SocketTransport + RemoteClient must reproduce the in-process runner's
// round history bit for bit, and a peer that vanishes mid-round (EOF or
// silence past the deadline) must surface as a recorded departure — never a
// hang, never a skewed aggregate.

#include "net/transport.h"

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/binary_io.h"
#include "core/rng.h"
#include "core/status.h"
#include "fl/activation.h"
#include "fl/experiment.h"
#include "fl/runner.h"
#include "fl/wire.h"
#include "net/framing.h"
#include "net/socket.h"
#include "tensor/parameter_store.h"
#include "tests/fl/wire_pin_payloads.h"

namespace fedda::net {
namespace {

using tensor::ParameterStore;
using tensor::Tensor;

// ---- codec units ---------------------------------------------------------

ParameterStore MakeStore(uint64_t seed) {
  core::Rng rng(seed);
  ParameterStore store;
  store.Register("dense0", Tensor::RandomNormal(3, 5, &rng));
  store.Register("ent_a", Tensor::RandomNormal(2, 7, &rng),
                 /*disentangled=*/true, /*edge_type=*/0);
  store.Register("ent_b", Tensor::RandomNormal(1, 3, &rng),
                 /*disentangled=*/true, /*edge_type=*/1);
  return store;
}

TEST(FingerprintTest, EmptyStringIsTheFnvOffsetBasis) {
  EXPECT_EQ(Fingerprint64(""), 14695981039346656037ull);
}

TEST(FingerprintTest, DistinguishesConfigs) {
  const uint64_t base = Fingerprint64("clients=4 rounds=3 seed=41");
  EXPECT_NE(base, Fingerprint64("clients=4 rounds=3 seed=42"));
  EXPECT_NE(base, Fingerprint64("clients=5 rounds=3 seed=41"));
  EXPECT_EQ(base, Fingerprint64("clients=4 rounds=3 seed=41"));
}

TEST(TransportCodecTest, RoundStartRoundTripsFeddaMasks) {
  const ParameterStore store = MakeStore(3);
  fl::TransportTask task;
  task.client = 2;
  task.round = 5;
  task.rng_state = {1u, 2u, 0xDEADBEEFu, 4u};
  task.fedda = true;
  task.mask_bits = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0};  // 11 units: odd tail
  task.sync = fl::BuildDownlinkPayload({0, 2}, 2, 5, store);

  fl::TransportTask decoded;
  ASSERT_TRUE(DecodeRoundStart(EncodeRoundStart(task), &decoded).ok());
  EXPECT_EQ(decoded.client, task.client);
  EXPECT_EQ(decoded.round, task.round);
  EXPECT_EQ(decoded.rng_state, task.rng_state);
  EXPECT_TRUE(decoded.fedda);
  EXPECT_EQ(decoded.mask_bits, task.mask_bits);
  EXPECT_TRUE(decoded.selected_groups.empty());
  EXPECT_EQ(decoded.sync.Serialize(), task.sync.Serialize());
}

TEST(TransportCodecTest, RoundStartRoundTripsDenseGroups) {
  const ParameterStore store = MakeStore(3);
  fl::TransportTask task;
  task.client = 0;
  task.round = 1;
  task.rng_state = {9u, 8u, 7u, 6u};
  task.fedda = false;
  task.selected_groups = {0, 2};
  task.sync = fl::BuildDownlinkPayload({1}, 0, 1, store);

  fl::TransportTask decoded;
  ASSERT_TRUE(DecodeRoundStart(EncodeRoundStart(task), &decoded).ok());
  EXPECT_FALSE(decoded.fedda);
  EXPECT_EQ(decoded.selected_groups, task.selected_groups);
  EXPECT_TRUE(decoded.mask_bits.empty());
  EXPECT_EQ(decoded.sync.Serialize(), task.sync.Serialize());
}

TEST(TransportCodecTest, RoundReplyRoundTrips) {
  const ParameterStore store = MakeStore(4);
  RoundReplyMessage message;
  message.client = 3;
  message.round = 7;
  message.loss = 0.625;
  message.uplink = fl::BuildDenseUplinkPayload({0, 1, 2}, 3, 7, store);

  RoundReplyMessage decoded;
  ASSERT_TRUE(DecodeRoundReply(EncodeRoundReply(message), &decoded).ok());
  EXPECT_EQ(decoded.client, message.client);
  EXPECT_EQ(decoded.round, message.round);
  EXPECT_EQ(decoded.loss, message.loss);
  EXPECT_EQ(decoded.uplink.Serialize(), message.uplink.Serialize());
}

TEST(TransportCodecTest, HelloRoundTrips) {
  int client = -1;
  uint64_t fingerprint = 0;
  ASSERT_TRUE(
      DecodeHello(EncodeHello(11, 0xFEDDA123u), &client, &fingerprint).ok());
  EXPECT_EQ(client, 11);
  EXPECT_EQ(fingerprint, 0xFEDDA123u);
}

// Every proper prefix of a valid body must decode to a clean error, and so
// must a body with trailing garbage — the decoders see bytes straight off
// the wire and may not trust any length field.
TEST(TransportCodecTest, TruncatedAndPaddedBodiesRejected) {
  const ParameterStore store = MakeStore(5);
  fl::TransportTask task;
  task.client = 1;
  task.round = 2;
  task.fedda = true;
  task.mask_bits = {1, 1, 0, 1, 0};
  task.sync = fl::BuildDownlinkPayload({0, 1, 2}, 1, 2, store);
  const std::vector<uint8_t> body = EncodeRoundStart(task);

  for (size_t len = 0; len < body.size(); ++len) {
    std::vector<uint8_t> prefix(body.begin(),
                                body.begin() + static_cast<ptrdiff_t>(len));
    fl::TransportTask decoded;
    EXPECT_FALSE(DecodeRoundStart(prefix, &decoded).ok()) << "len " << len;
  }
  std::vector<uint8_t> padded = body;
  padded.push_back(0);
  fl::TransportTask decoded;
  EXPECT_FALSE(DecodeRoundStart(padded, &decoded).ok());

  RoundReplyMessage reply;
  reply.uplink = fl::BuildDenseUplinkPayload({0}, 1, 2, store);
  const std::vector<uint8_t> reply_body = EncodeRoundReply(reply);
  for (size_t len = 0; len < reply_body.size(); ++len) {
    std::vector<uint8_t> prefix(
        reply_body.begin(), reply_body.begin() + static_cast<ptrdiff_t>(len));
    RoundReplyMessage out;
    EXPECT_FALSE(DecodeRoundReply(prefix, &out).ok()) << "len " << len;
  }
}

// Writes the fixed RoundStart prefix (client, round, RNG state) followed
// by the algorithm tag, leaving the writer positioned at the
// count-prefixed block the oversize tests corrupt.
core::ByteWriter RoundStartPrefix(bool fedda) {
  core::ByteWriter writer;
  writer.WriteU32(1);  // client
  writer.WriteU32(0);  // round
  for (int i = 0; i < 4; ++i) writer.WriteU64(7);
  writer.WriteU8(fedda ? 1 : 0);
  return writer;
}

// A FedDA task whose wire-supplied unit count is 2^64-1: `(units + 7) / 8`
// used to wrap to 0, hand UnpackBits an empty block, and abort on its
// internal size CHECK. The count must be rejected against the bytes
// actually present, not fed into byte arithmetic.
TEST(TransportCodecTest, RoundStartRejectsUnitCountOverflow) {
  core::ByteWriter writer = RoundStartPrefix(/*fedda=*/true);
  writer.WriteU64(0xFFFFFFFFFFFFFFFFull);
  fl::TransportTask decoded;
  const core::Status status = DecodeRoundStart(writer.Release(), &decoded);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("mask unit count exceeds payload"),
            std::string::npos)
      << status.ToString();
}

// A FedAvg task claiming more group ids than the remaining bytes can hold:
// each id is 4 bytes, so the old `count > body.size()` plausibility check
// admitted counts up to 4x the payload (and reserved for all of them).
TEST(TransportCodecTest, RoundStartRejectsOversizeGroupCount) {
  core::ByteWriter writer = RoundStartPrefix(/*fedda=*/false);
  writer.WriteU64(64);               // claims 64 ids = 256 bytes...
  for (int i = 0; i < 70; ++i) writer.WriteU8(0);  // ...over 70 bytes
  fl::TransportTask decoded;
  const core::Status status = DecodeRoundStart(writer.Release(), &decoded);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("group count exceeds payload"),
            std::string::npos)
      << status.ToString();
}

// Round-start and round-reply bodies carrying every pinned payload shape
// (tests/fl/wire_pin_payloads.h), pinned by length and FNV-1a hash.
// Generated once, before the payload's in-memory representation changed,
// and never regenerated: a remote peer parses exactly these bytes.
TEST(TransportPinTest, BodiesCarryingPinnedPayloadsArePinned) {
  struct Pin {
    const char* name;
    size_t start_size;
    uint64_t start_hash;
    size_t reply_size;
    uint64_t reply_hash;
  };
  const Pin kPins[] = {
      {"fedavg-dense-uplink", 214, 5602554745512875028ull, 179,
       13239157180663327310ull},
      {"fedda-tensor-uplink", 381, 8488277635273835063ull, 336,
       17326656549222318211ull},
      {"fedda-scalar-uplink", 329, 8592842015804763317ull, 294,
       1133364799867826751ull},
      {"full-downlink", 406, 5321303105646834345ull, 361,
       301626924428965493ull},
      {"empty-downlink", 87, 9755816848679575334ull, 52,
       16564907727291414472ull},
      {"default", 97, 9778475784464126962ull, 52,
       1338541076785200454ull},
  };
  const auto hash = [](const std::vector<uint8_t>& bytes) {
    return Fingerprint64(std::string(bytes.begin(), bytes.end()));
  };
  std::vector<fl::testing::PinPayload> payloads = fl::testing::PinPayloads();
  ASSERT_EQ(payloads.size(), std::size(kPins));
  for (size_t i = 0; i < payloads.size(); ++i) {
    // FedDA tasks carry an 11-unit mask (odd tail); FedAvg tasks a group
    // list. The two alternate so both task shapes are pinned.
    fl::TransportTask task;
    task.client = 2;
    task.round = 9;
    task.rng_state = {1u, 2u, 0xDEADBEEFu, 4u};
    task.fedda = i % 2 == 0;
    if (task.fedda) {
      task.mask_bits = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0};
    } else {
      task.selected_groups = {0, 2, 3};
    }
    task.sync = payloads[i].payload;
    RoundReplyMessage reply;
    reply.client = 2;
    reply.round = 9;
    reply.loss = 0.625;
    reply.uplink = std::move(payloads[i].payload);

    const std::vector<uint8_t> start = EncodeRoundStart(task);
    const std::vector<uint8_t> reply_body = EncodeRoundReply(reply);
    EXPECT_EQ(payloads[i].name, kPins[i].name);
    EXPECT_EQ(start.size(), kPins[i].start_size) << kPins[i].name;
    EXPECT_EQ(hash(start), kPins[i].start_hash) << kPins[i].name;
    EXPECT_EQ(reply_body.size(), kPins[i].reply_size) << kPins[i].name;
    EXPECT_EQ(hash(reply_body), kPins[i].reply_hash) << kPins[i].name;
  }
}

// ---- end-to-end loopback -------------------------------------------------

fl::SystemConfig TestSystemConfig() {
  fl::SystemConfig config;
  config.data = data::AmazonSpec(0.012);
  config.test_fraction = 0.2;
  config.partition.num_clients = 4;
  config.partition.num_specialties = 1;
  config.model.num_layers = 2;
  config.model.num_heads = 2;
  config.model.hidden_dim = 8;
  config.model.edge_emb_dim = 4;
  config.seed = 41;
  return config;
}

fl::FlOptions TestOptions(fl::FlAlgorithm algorithm) {
  fl::FlOptions options;
  options.algorithm = algorithm;
  options.rounds = 3;
  options.local.local_epochs = 1;
  options.local.learning_rate = 5e-3f;
  options.eval.max_edges = 64;
  options.eval.mrr_negatives = 5;
  options.eval_every_round = true;
  return options;
}

constexpr uint64_t kRunSeed = 123;

std::string UniqueUdsAddress(const char* tag) {
  return "unix:/tmp/fedda_ttest_" + std::to_string(getpid()) + "_" + tag +
         ".sock";
}

/// One remote client process, modeled as a thread with its OWN
/// FederatedSystem: a real client process rebuilds the system from the
/// shared config, and that is exactly the bit the fingerprint guards.
void RunRemoteClient(const fl::FlOptions& options, const std::string& address,
                     int client_id, uint64_t fingerprint,
                     double round_timeout_sec, core::Status* out) {
  const fl::FederatedSystem system =
      fl::FederatedSystem::Build(TestSystemConfig());
  ParameterStore mirror = system.MakeInitialStore(kRunSeed);
  std::vector<std::unique_ptr<fl::Client>> clients =
      system.MakeClients(mirror);
  fl::ActivationState state(system.num_clients(), mirror,
                            options.activation);
  RemoteClientOptions remote;
  remote.address = address;
  remote.client_id = client_id;
  remote.fingerprint = fingerprint;
  remote.round_timeout_sec = round_timeout_sec;
  remote.dp_noise_std = options.dp_noise_std;
  remote.local = options.local;
  RemoteClient client(clients[static_cast<size_t>(client_id)].get(), &state,
                      &mirror, remote);
  *out = client.Run();
}

void ExpectSameHistory(const fl::FlRunResult& remote,
                       const fl::FlRunResult& reference) {
  ASSERT_EQ(remote.history.size(), reference.history.size());
  for (size_t r = 0; r < remote.history.size(); ++r) {
    const fl::RoundRecord& a = remote.history[r];
    const fl::RoundRecord& b = reference.history[r];
    EXPECT_EQ(a.auc, b.auc) << "round " << r;
    EXPECT_EQ(a.mrr, b.mrr) << "round " << r;
    EXPECT_EQ(a.mean_local_loss, b.mean_local_loss) << "round " << r;
    EXPECT_EQ(a.participants, b.participants) << "round " << r;
    EXPECT_EQ(a.uplink_groups, b.uplink_groups) << "round " << r;
    EXPECT_EQ(a.uplink_scalars, b.uplink_scalars) << "round " << r;
    EXPECT_EQ(a.uplink_bytes, b.uplink_bytes) << "round " << r;
    EXPECT_EQ(a.max_uplink_bytes, b.max_uplink_bytes) << "round " << r;
    EXPECT_EQ(a.downlink_bytes, b.downlink_bytes) << "round " << r;
    EXPECT_EQ(a.downlink_scalars, b.downlink_scalars) << "round " << r;
    EXPECT_EQ(a.active_after_round, b.active_after_round) << "round " << r;
    EXPECT_EQ(a.departures, b.departures) << "round " << r;
  }
  EXPECT_EQ(remote.final_auc, reference.final_auc);
  EXPECT_EQ(remote.final_mrr, reference.final_mrr);
  EXPECT_EQ(remote.total_uplink_bytes, reference.total_uplink_bytes);
  EXPECT_EQ(remote.total_downlink_bytes, reference.total_downlink_bytes);
  EXPECT_EQ(remote.total_uplink_scalars, reference.total_uplink_scalars);
}

/// Runs the reference in-process and then the same seeded experiment over
/// the transport at `address`, asserting bit-identical histories. The remote
/// run's result goes to `*remote_out` when given.
void RunLoopback(fl::FlOptions options, const std::string& address,
                 const char* config_tag,
                 fl::FlRunResult* remote_out = nullptr) {
  const fl::FederatedSystem system =
      fl::FederatedSystem::Build(TestSystemConfig());
  const fl::FlRunResult reference =
      fl::RunFederated(system, options, kRunSeed);

  const uint64_t fingerprint = Fingerprint64(config_tag);
  ServerOptions server;
  server.address = address;
  server.num_clients = system.num_clients();
  server.fingerprint = fingerprint;
  server.accept_timeout_sec = 60.0;
  server.reply_timeout_sec = 60.0;
  std::unique_ptr<SocketTransport> transport;
  ASSERT_TRUE(SocketTransport::Create(server, &transport).ok());

  std::vector<core::Status> statuses(
      static_cast<size_t>(system.num_clients()), core::Status::OK());
  std::vector<std::thread> peers;
  for (int c = 0; c < system.num_clients(); ++c) {
    peers.emplace_back(RunRemoteClient, options, transport->address(), c,
                       fingerprint, /*round_timeout_sec=*/120.0,
                       &statuses[static_cast<size_t>(c)]);
  }
  const core::Status accepted = transport->AcceptClients();
  ASSERT_TRUE(accepted.ok()) << accepted.ToString();

  // Every handshake is logged as an arrival event at round -1.
  ASSERT_EQ(transport->events().size(),
            static_cast<size_t>(system.num_clients()));
  for (const fl::Event& event : transport->events()) {
    EXPECT_EQ(event.kind, fl::EventKind::kArrival);
    EXPECT_EQ(event.round, -1);
  }

  options.transport = transport.get();
  const fl::FlRunResult remote = fl::RunFederated(system, options, kRunSeed);
  transport->Shutdown();
  for (std::thread& peer : peers) peer.join();
  for (const core::Status& status : statuses) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  ExpectSameHistory(remote, reference);
  EXPECT_EQ(transport->stats().departures, 0);
  EXPECT_GT(transport->stats().frames_sent, 0);
  EXPECT_GT(transport->stats().bytes_received, 0);
  EXPECT_GE(transport->stats().max_rtt_sec, 0.0);
  if (remote_out != nullptr) *remote_out = remote;
}

TEST(SocketTransportTest, FedAvgOverUnixSocketMatchesInProcess) {
  fl::FlOptions options = TestOptions(fl::FlAlgorithm::kFedAvg);
  // Sub-1.0 fractions exercise the dense selected-group path and the
  // participant-subset RNG draws.
  options.client_fraction = 0.75;
  options.param_fraction = 0.5;
  RunLoopback(options, UniqueUdsAddress("fedavg"), "fedavg-loopback");
}

TEST(SocketTransportTest, FedDaRestartWithDpNoiseOverUnixSocketMatches) {
  fl::FlOptions options = TestOptions(fl::FlAlgorithm::kFedDaRestart);
  // Nonzero DP noise forces the remote to replay the runner's exact
  // post-training Gaussian draw sequence.
  options.dp_noise_std = 0.01;
  RunLoopback(options, UniqueUdsAddress("fedda"), "fedda-loopback");
}

TEST(SocketTransportTest, FedDaScalarGranularityOverUnixSocketMatches) {
  // Scalar-unit masks travel in every task, and uplinks carry bit-packed
  // masked entries.
  fl::FlOptions options = TestOptions(fl::FlAlgorithm::kFedDaExplore);
  options.rounds = 4;
  options.activation.granularity = fl::ActivationGranularity::kScalar;
  fl::FlRunResult remote;
  RunLoopback(options, UniqueUdsAddress("fedda-scalar"),
              "fedda-scalar-loopback", &remote);

  // From round 1 on the masks are partial, so the uplinks carry fewer
  // scalars than whole models: the run cannot quietly fall back to full
  // masks.
  const int64_t model_scalars = fl::FederatedSystem::Build(TestSystemConfig())
                                    .MakeInitialStore(kRunSeed)
                                    .num_scalars();
  ASSERT_EQ(remote.history.size(), 4u);
  for (size_t r = 1; r < remote.history.size(); ++r) {
    const fl::RoundRecord& record = remote.history[r];
    ASSERT_GT(record.participants, 0) << "round " << r;
    EXPECT_LT(record.uplink_scalars, record.participants * model_scalars)
        << "round " << r;
  }
}

TEST(SocketTransportTest, FedAvgOverTcpLoopbackMatchesInProcess) {
  // Port 0: the listener binds an ephemeral port and address() resolves it
  // before the clients dial.
  RunLoopback(TestOptions(fl::FlAlgorithm::kFedAvg), "tcp:127.0.0.1:0",
              "fedavg-tcp-loopback");
}

TEST(SocketTransportTest, WrongFingerprintFailsAcceptAndClient) {
  const std::string address = UniqueUdsAddress("fpr");
  ServerOptions server;
  server.address = address;
  server.num_clients = 1;
  server.fingerprint = Fingerprint64("server-config");
  server.accept_timeout_sec = 30.0;
  std::unique_ptr<SocketTransport> transport;
  ASSERT_TRUE(SocketTransport::Create(server, &transport).ok());

  core::Status client_status = core::Status::OK();
  std::thread peer([&] {
    const fl::FederatedSystem system =
        fl::FederatedSystem::Build(TestSystemConfig());
    ParameterStore mirror = system.MakeInitialStore(kRunSeed);
    std::vector<std::unique_ptr<fl::Client>> clients =
        system.MakeClients(mirror);
    fl::ActivationState state(system.num_clients(), mirror, {});
    RemoteClientOptions remote;
    remote.address = address;
    remote.client_id = 0;
    remote.fingerprint = Fingerprint64("client-config");  // mismatch
    RemoteClient client(clients[0].get(), &state, &mirror, remote);
    client_status = client.Run();
  });
  const core::Status accept_status = transport->AcceptClients();
  peer.join();
  EXPECT_FALSE(accept_status.ok());
  EXPECT_NE(accept_status.message().find("fingerprint"), std::string::npos);
  EXPECT_FALSE(client_status.ok());
}

// ---- partial failure -----------------------------------------------------

/// A protocol-speaking impostor for client `client_id`: handshakes like a
/// real client, then follows `after_task` when the first round task lands.
enum class FailureMode {
  kCloseOnTask,   // kill -9 analog: the kernel EOFs the server mid-round
  kSilentOnTask,  // wedged process: never replies, server must time out
};

void RunDoomedClient(const std::string& address, int client_id,
                     uint64_t fingerprint, FailureMode mode) {
  Socket socket;
  ASSERT_TRUE(Connect(address, /*retries=*/40, /*backoff_sec=*/0.05,
                      &socket)
                  .ok());
  ASSERT_TRUE(WriteFrame(&socket, FrameType::kHello,
                         EncodeHello(client_id, fingerprint))
                  .ok());
  Frame ack;
  ASSERT_TRUE(ReadFrame(&socket, 30.0, &ack).ok());
  ASSERT_EQ(ack.type, FrameType::kHelloAck);
  Frame task;
  ASSERT_TRUE(ReadFrame(&socket, 120.0, &task).ok());
  ASSERT_EQ(task.type, FrameType::kRoundStart);
  if (mode == FailureMode::kCloseOnTask) {
    socket.Close();
    return;
  }
  // Silent: hold the socket open, reply with nothing, and wait for the
  // server to give up and close it (ReadFrame then fails with EOF).
  Frame never;
  (void)ReadFrame(&socket, 120.0, &never);
}

void RunDepartureScenario(FailureMode mode, const char* tag,
                          double reply_timeout_sec) {
  const fl::FederatedSystem system =
      fl::FederatedSystem::Build(TestSystemConfig());
  fl::FlOptions options = TestOptions(fl::FlAlgorithm::kFedAvg);

  const uint64_t fingerprint = Fingerprint64(tag);
  ServerOptions server;
  server.address = UniqueUdsAddress(tag);
  server.num_clients = system.num_clients();
  server.fingerprint = fingerprint;
  server.accept_timeout_sec = 60.0;
  server.reply_timeout_sec = reply_timeout_sec;
  std::unique_ptr<SocketTransport> transport;
  ASSERT_TRUE(SocketTransport::Create(server, &transport).ok());

  const int doomed = system.num_clients() - 1;
  std::vector<core::Status> statuses(static_cast<size_t>(doomed),
                                     core::Status::OK());
  std::vector<std::thread> peers;
  for (int c = 0; c < doomed; ++c) {
    peers.emplace_back(RunRemoteClient, options, transport->address(), c,
                       fingerprint, /*round_timeout_sec=*/120.0,
                       &statuses[static_cast<size_t>(c)]);
  }
  peers.emplace_back(RunDoomedClient, transport->address(), doomed,
                     fingerprint, mode);
  const core::Status accepted = transport->AcceptClients();
  ASSERT_TRUE(accepted.ok()) << accepted.ToString();

  options.transport = transport.get();
  const fl::FlRunResult result = fl::RunFederated(system, options, kRunSeed);
  transport->Shutdown();
  for (std::thread& peer : peers) peer.join();
  for (const core::Status& status : statuses) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  // The run completed every round; the victim's loss surfaced as exactly
  // one recorded departure in round 0, and later rounds simply ran without
  // it (ClientAlive filters it before tasking).
  ASSERT_EQ(result.history.size(), static_cast<size_t>(options.rounds));
  EXPECT_EQ(result.history[0].departures, 1);
  EXPECT_EQ(result.history[0].participants, system.num_clients() - 1);
  for (int r = 1; r < options.rounds; ++r) {
    EXPECT_EQ(result.history[static_cast<size_t>(r)].departures, 0);
    EXPECT_EQ(result.history[static_cast<size_t>(r)].participants,
              system.num_clients() - 1);
  }
  EXPECT_EQ(transport->stats().departures, 1);
  EXPECT_FALSE(transport->ClientAlive(doomed));

  // The departure is in the event log, attributed to round 0.
  bool saw_departure = false;
  for (const fl::Event& event : transport->events()) {
    if (event.kind == fl::EventKind::kDeparture) {
      EXPECT_EQ(event.client, doomed);
      EXPECT_EQ(event.round, 0);
      saw_departure = true;
    }
  }
  EXPECT_TRUE(saw_departure);
}

TEST(SocketTransportTest, MidRoundPeerCloseBecomesADeparture) {
  RunDepartureScenario(FailureMode::kCloseOnTask, "eof-departure",
                       /*reply_timeout_sec=*/60.0);
}

TEST(SocketTransportTest, SilentPeerTimesOutIntoADeparture) {
  // Short reply deadline so the deliberate stall costs ~a second, not a
  // minute. Live clients answer in milliseconds over loopback.
  RunDepartureScenario(FailureMode::kSilentOnTask, "timeout-departure",
                       /*reply_timeout_sec=*/1.0);
}

// ---- hostile round replies ------------------------------------------------

/// A protocol-speaking client that lies about the model: it answers every
/// round task with a correctly addressed reply whose uplink was built from
/// a 3-group store. The reply decodes fine — DecodeRoundReply checks only
/// structure — so the runner itself must reject it.
void RunWrongLayoutClient(const std::string& address, int client_id,
                          uint64_t fingerprint) {
  Socket socket;
  ASSERT_TRUE(Connect(address, /*retries=*/40, /*backoff_sec=*/0.05,
                      &socket)
                  .ok());
  ASSERT_TRUE(WriteFrame(&socket, FrameType::kHello,
                         EncodeHello(client_id, fingerprint))
                  .ok());
  Frame ack;
  ASSERT_TRUE(ReadFrame(&socket, 30.0, &ack).ok());
  ASSERT_EQ(ack.type, FrameType::kHelloAck);
  const ParameterStore wrong = MakeStore(9);
  for (;;) {
    Frame frame;
    if (!ReadFrame(&socket, 120.0, &frame).ok() ||
        frame.type != FrameType::kRoundStart) {
      return;  // shutdown (or the server hung up)
    }
    fl::TransportTask task;
    ASSERT_TRUE(DecodeRoundStart(frame.body, &task).ok());
    RoundReplyMessage reply;
    reply.client = client_id;
    reply.round = task.round;
    reply.loss = 0.25;
    reply.uplink = fl::BuildDenseUplinkPayload({0, 1, 2}, client_id,
                                               task.round, wrong);
    ASSERT_TRUE(WriteFrame(&socket, FrameType::kRoundReply,
                           EncodeRoundReply(reply))
                    .ok());
  }
}

TEST(SocketTransportTest, WrongLayoutReplyDepartsWithoutAbort) {
  const fl::FederatedSystem system =
      fl::FederatedSystem::Build(TestSystemConfig());
  fl::FlOptions options = TestOptions(fl::FlAlgorithm::kFedAvg);
  const char* tag = "wrong-layout";
  const uint64_t fingerprint = Fingerprint64(tag);
  ServerOptions server;
  server.address = UniqueUdsAddress(tag);
  server.num_clients = system.num_clients();
  server.fingerprint = fingerprint;
  server.accept_timeout_sec = 60.0;
  server.reply_timeout_sec = 60.0;
  std::unique_ptr<SocketTransport> transport;
  ASSERT_TRUE(SocketTransport::Create(server, &transport).ok());

  const int liar = system.num_clients() - 1;
  std::vector<core::Status> statuses(static_cast<size_t>(liar),
                                     core::Status::OK());
  std::vector<std::thread> peers;
  for (int c = 0; c < liar; ++c) {
    peers.emplace_back(RunRemoteClient, options, transport->address(), c,
                       fingerprint, /*round_timeout_sec=*/120.0,
                       &statuses[static_cast<size_t>(c)]);
  }
  peers.emplace_back(RunWrongLayoutClient, transport->address(), liar,
                     fingerprint);
  const core::Status accepted = transport->AcceptClients();
  ASSERT_TRUE(accepted.ok()) << accepted.ToString();

  options.transport = transport.get();
  const fl::FlRunResult result = fl::RunFederated(system, options, kRunSeed);
  // The socket stays healthy, so the transport still counts the liar alive.
  EXPECT_TRUE(transport->ClientAlive(liar));
  transport->Shutdown();
  for (std::thread& peer : peers) peer.join();
  for (const core::Status& status : statuses) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  // The liar is therefore tasked again every round, and
  // every round its reply is dropped as a departure: no loss, no uplink,
  // nothing aggregated from it.
  ASSERT_EQ(result.history.size(), static_cast<size_t>(options.rounds));
  for (const fl::RoundRecord& record : result.history) {
    EXPECT_EQ(record.participants, system.num_clients() - 1)
        << "round " << record.round;
    EXPECT_EQ(record.departures, 1) << "round " << record.round;
    EXPECT_TRUE(std::isfinite(record.mean_local_loss))
        << "round " << record.round;
  }
}

// ---- hostile round tasks -------------------------------------------------

/// A protocol-speaking hostile server: accepts one real client, completes
/// the handshake by echoing the hello, then sends `task` as the first
/// round start. Regression rig for ServeRound's trust-boundary
/// validation — without it a malformed task aborted the client process
/// inside ActivationState::SetClientMask (wrong mask width) or
/// fl::BuildDenseUplinkPayload (out-of-range group id) instead of failing
/// its Run() status.
void RunHostileRoundTest(const fl::TransportTask& task, const char* tag) {
  Listener listener;
  ASSERT_TRUE(Listener::Listen(UniqueUdsAddress(tag), &listener).ok());

  core::Status client_status = core::Status::OK();
  std::thread peer(RunRemoteClient, TestOptions(fl::FlAlgorithm::kFedAvg),
                   listener.address(), task.client, Fingerprint64(tag),
                   /*round_timeout_sec=*/30.0, &client_status);

  Socket conn;
  ASSERT_TRUE(listener.Accept(/*timeout_sec=*/30.0, &conn).ok());
  Frame hello;
  ASSERT_TRUE(ReadFrame(&conn, 30.0, &hello).ok());
  ASSERT_EQ(hello.type, FrameType::kHello);
  ASSERT_TRUE(WriteFrame(&conn, FrameType::kHelloAck, hello.body).ok());
  ASSERT_TRUE(
      WriteFrame(&conn, FrameType::kRoundStart, EncodeRoundStart(task))
          .ok());
  // The client must reject the task: no reply frame comes back (the
  // connection EOFs on us) and Run() reports the malformed task.
  Frame reply;
  (void)ReadFrame(&conn, 30.0, &reply);
  peer.join();
  EXPECT_FALSE(client_status.ok());
  EXPECT_NE(client_status.message().find("round task"), std::string::npos)
      << client_status.ToString();
}

TEST(SocketTransportTest, WrongSizeMaskFailsClientWithoutAbort) {
  const fl::FederatedSystem system =
      fl::FederatedSystem::Build(TestSystemConfig());
  ParameterStore mirror = system.MakeInitialStore(kRunSeed);
  fl::ActivationState state(system.num_clients(), mirror, {});
  fl::TransportTask task;
  task.fedda = true;
  task.mask_bits.assign(static_cast<size_t>(state.num_units()) + 1, 1);
  RunHostileRoundTest(task, "hostile-mask");
}

TEST(SocketTransportTest, OutOfRangeDenseGroupsFailClientWithoutAbort) {
  const fl::FederatedSystem system =
      fl::FederatedSystem::Build(TestSystemConfig());
  const ParameterStore mirror = system.MakeInitialStore(kRunSeed);
  fl::TransportTask task;
  task.fedda = false;
  task.selected_groups = {mirror.num_groups()};  // one past the end
  RunHostileRoundTest(task, "hostile-groups");
}

}  // namespace
}  // namespace fedda::net
