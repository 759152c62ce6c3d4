#include "net/transport.h"

#include <poll.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "core/binary_io.h"
#include "core/check.h"
#include "core/rng.h"
#include "core/sanitize.h"
#include "fl/wire.h"
#include "tensor/parameter_store.h"

namespace fedda::net {

namespace {

using core::ByteReader;
using core::ByteWriter;
using core::Status;

/// Read chunk size for the poll-driven reply loop.
constexpr size_t kReadChunk = 64 * 1024;

}  // namespace

FEDDA_NO_SANITIZE_UNSIGNED_WRAP
uint64_t Fingerprint64(const std::string& text) {
  // FNV-1a, 64-bit: the multiply wraps by design.
  uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::vector<uint8_t> EncodeRoundStart(const fl::TransportTask& task) {
  ByteWriter writer;
  writer.WriteU32(static_cast<uint32_t>(task.client));
  writer.WriteU32(static_cast<uint32_t>(task.round));
  for (const uint64_t word : task.rng_state) writer.WriteU64(word);
  writer.WriteU8(task.fedda ? 1 : 0);
  if (task.fedda) {
    writer.WriteU64(static_cast<uint64_t>(task.mask_bits.size()));
    writer.WriteBytes(fl::PackBits(task.mask_bits));
  } else {
    writer.WriteU64(static_cast<uint64_t>(task.selected_groups.size()));
    for (const int gid : task.selected_groups) {
      writer.WriteU32(static_cast<uint32_t>(gid));
    }
  }
  const std::vector<uint8_t>& sync = task.sync.Serialize();
  writer.WriteU64(static_cast<uint64_t>(sync.size()));
  writer.WriteBytes(sync);
  return writer.Release();
}

Status DecodeRoundStart(const std::vector<uint8_t>& body,
                        fl::TransportTask* task) {
  ByteReader reader(body);
  fl::TransportTask decoded;
  decoded.client = static_cast<int>(reader.ReadU32());
  decoded.round = static_cast<int>(reader.ReadU32());
  for (uint64_t& word : decoded.rng_state) word = reader.ReadU64();
  decoded.fedda = reader.ReadU8() != 0;
  if (decoded.fedda) {
    const uint64_t units = reader.ReadU64();
    // Bound the unit count against the bytes actually present *before* any
    // arithmetic on it: a wire-supplied count near 2^64 would wrap
    // `units + 7` to a tiny packed size and then fail UnpackBits'
    // internal invariant — an abort reachable from attacker bytes.
    if (units > 8ull * reader.remaining()) {
      return Status::IoError("mask unit count exceeds payload");
    }
    const std::vector<uint8_t> packed =
        reader.ReadBytes(static_cast<size_t>((units + 7) / 8));
    FEDDA_RETURN_IF_ERROR(reader.status());
    decoded.mask_bits = fl::UnpackBits(packed, static_cast<size_t>(units));
  } else {
    const uint64_t count = reader.ReadU64();
    // Each group id is a u32 still to be read, so the tightest
    // plausibility cap is the remaining bytes — checked before reserve so
    // a corrupt count cannot allocate gigabytes.
    if (count > reader.remaining() / sizeof(uint32_t)) {
      return Status::IoError("group count exceeds payload");
    }
    decoded.selected_groups.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      decoded.selected_groups.push_back(static_cast<int>(reader.ReadU32()));
    }
  }
  const uint64_t sync_len = reader.ReadU64();
  const std::vector<uint8_t> sync_bytes =
      reader.ReadBytes(static_cast<size_t>(sync_len));
  FEDDA_RETURN_IF_ERROR(reader.status());
  FEDDA_RETURN_IF_ERROR(decoded.sync.Deserialize(sync_bytes));
  if (!reader.AtEnd()) {
    return Status::IoError("trailing bytes after round-start message");
  }
  *task = std::move(decoded);
  return Status::OK();
}

std::vector<uint8_t> EncodeRoundReply(const RoundReplyMessage& message) {
  ByteWriter writer;
  writer.WriteU32(static_cast<uint32_t>(message.client));
  writer.WriteU32(static_cast<uint32_t>(message.round));
  writer.WriteDouble(message.loss);
  const std::vector<uint8_t>& uplink = message.uplink.Serialize();
  writer.WriteU64(static_cast<uint64_t>(uplink.size()));
  writer.WriteBytes(uplink);
  return writer.Release();
}

Status DecodeRoundReply(const std::vector<uint8_t>& body,
                        RoundReplyMessage* message) {
  ByteReader reader(body);
  RoundReplyMessage decoded;
  decoded.client = static_cast<int>(reader.ReadU32());
  decoded.round = static_cast<int>(reader.ReadU32());
  decoded.loss = reader.ReadDouble();
  const uint64_t uplink_len = reader.ReadU64();
  const std::vector<uint8_t> uplink_bytes =
      reader.ReadBytes(static_cast<size_t>(uplink_len));
  FEDDA_RETURN_IF_ERROR(reader.status());
  FEDDA_RETURN_IF_ERROR(decoded.uplink.Deserialize(uplink_bytes));
  if (!reader.AtEnd()) {
    return Status::IoError("trailing bytes after round-reply message");
  }
  *message = std::move(decoded);
  return Status::OK();
}

std::vector<uint8_t> EncodeHello(int client, uint64_t fingerprint) {
  ByteWriter writer;
  writer.WriteU32(static_cast<uint32_t>(client));
  writer.WriteU64(fingerprint);
  return writer.Release();
}

Status DecodeHello(const std::vector<uint8_t>& body, int* client,
                   uint64_t* fingerprint) {
  ByteReader reader(body);
  const uint32_t id = reader.ReadU32();
  const uint64_t fp = reader.ReadU64();
  FEDDA_RETURN_IF_ERROR(reader.status());
  if (!reader.AtEnd()) {
    return Status::IoError("trailing bytes after hello message");
  }
  *client = static_cast<int>(id);
  *fingerprint = fp;
  return Status::OK();
}

// -- SocketTransport -------------------------------------------------------

Status SocketTransport::Create(const ServerOptions& options,
                               std::unique_ptr<SocketTransport>* out) {
  if (options.num_clients <= 0) {
    return Status::InvalidArgument("num_clients must be positive");
  }
  // make_unique can't reach the private constructor; the raw new is scoped
  // to this factory.
  std::unique_ptr<SocketTransport> transport(new SocketTransport());
  transport->options_ = options;
  transport->start_time_ = MonotonicSeconds();
  transport->connections_.resize(static_cast<size_t>(options.num_clients));
  FEDDA_RETURN_IF_ERROR(
      Listener::Listen(options.address, &transport->listener_));
  transport->address_ = transport->listener_.address();
  *out = std::move(transport);
  return Status::OK();
}

Status SocketTransport::AcceptClients() {
  FEDDA_CHECK(!accepted_) << "AcceptClients called twice";
  // Accept loop: admit exactly num_clients handshakes under one overall
  // deadline. Each completed handshake is logged as an event, so the
  // startup sequence lands in the same log as the rounds.
  const double deadline = MonotonicSeconds() + options_.accept_timeout_sec;
  int admitted = 0;
  while (admitted < options_.num_clients) {
    const double remaining = deadline - MonotonicSeconds();
    if (remaining <= 0.0) {
      return Status::IoError(
          "timed out waiting for clients: " + std::to_string(admitted) +
          " of " + std::to_string(options_.num_clients) + " connected");
    }
    Socket conn;
    FEDDA_RETURN_IF_ERROR(listener_.Accept(remaining, &conn));
    Frame hello;
    FEDDA_RETURN_IF_ERROR(ReadFrame(&conn, remaining, &hello));
    if (hello.type != FrameType::kHello) {
      return Status::IoError("expected hello frame");
    }
    int client = -1;
    uint64_t fingerprint = 0;
    FEDDA_RETURN_IF_ERROR(DecodeHello(hello.body, &client, &fingerprint));
    if (client < 0 || client >= options_.num_clients) {
      return Status::IoError("hello from out-of-range client " +
                             std::to_string(client));
    }
    Connection& slot = connections_[static_cast<size_t>(client)];
    if (slot.alive) {
      return Status::IoError("duplicate hello from client " +
                             std::to_string(client));
    }
    if (fingerprint != options_.fingerprint) {
      // A config mismatch must stop the run, not skew it: tell the peer,
      // then fail the accept.
      const std::string reason = "config fingerprint mismatch";
      // Best-effort courtesy message; the AcceptClients failure is the
      // real signal.
      (void)WriteFrame(&conn, FrameType::kError,
                       std::vector<uint8_t>(reason.begin(), reason.end()));
      return Status::IoError(reason + " from client " +
                             std::to_string(client));
    }
    FEDDA_RETURN_IF_ERROR(WriteFrame(&conn, FrameType::kHelloAck,
                                     EncodeHello(client,
                                                 options_.fingerprint)));
    slot.socket = std::move(conn);
    slot.alive = true;
    ++admitted;
    LogEvent(fl::EventKind::kArrival, client, /*round=*/-1);
  }
  accepted_ = true;
  return Status::OK();
}

SocketTransport::~SocketTransport() { Shutdown(); }

void SocketTransport::LogEvent(fl::EventKind kind, int client, int round) {
  events_.push_back(fl::Event{.time = Elapsed(),
                              .kind = kind,
                              .client = client,
                              .round = round,
                              .seq = events_.size()});
}

void SocketTransport::MarkDeparted(int client, int round) {
  Connection& conn = connections_[static_cast<size_t>(client)];
  if (!conn.alive) return;
  conn.socket.Close();
  conn.alive = false;
  ++stats_.departures;
  LogEvent(fl::EventKind::kDeparture, client, round);
}

bool SocketTransport::ClientAlive(int client) const {
  if (client < 0 ||
      client >= static_cast<int>(connections_.size())) {
    return false;
  }
  return connections_[static_cast<size_t>(client)].alive;
}

std::vector<fl::TransportReply> SocketTransport::ExecuteRound(
    const std::vector<fl::TransportTask>& tasks) {
  FEDDA_CHECK(accepted_) << "ExecuteRound before AcceptClients";
  std::vector<fl::TransportReply> replies(tasks.size());
  if (tasks.empty()) return replies;
  const int round = tasks.front().round;

  // Send phase, task order. A failed send is an immediate departure (the
  // peer is gone; its reply slot stays !ok).
  std::vector<int> task_of_client(connections_.size(), -1);
  std::vector<double> sent_at(tasks.size(), 0.0);
  int outstanding = 0;
  for (size_t t = 0; t < tasks.size(); ++t) {
    const fl::TransportTask& task = tasks[t];
    FEDDA_CHECK(task.client >= 0 &&
                task.client < static_cast<int>(connections_.size()))
        << "task for unknown client " << task.client;
    Connection& conn = connections_[static_cast<size_t>(task.client)];
    if (!conn.alive) continue;  // runner filters these; stay robust anyway
    const std::vector<uint8_t> body = EncodeRoundStart(task);
    const Status sent = WriteFrame(&conn.socket, FrameType::kRoundStart,
                                   body);
    if (!sent.ok()) {
      MarkDeparted(task.client, round);
      continue;
    }
    stats_.bytes_sent +=
        static_cast<int64_t>(kFrameHeaderBytes + body.size());
    ++stats_.frames_sent;
    task_of_client[static_cast<size_t>(task.client)] =
        static_cast<int>(t);
    sent_at[t] = MonotonicSeconds();
    ++outstanding;
  }

  // Collect phase: poll-driven event loop under one round deadline. Each
  // readable connection is drained into its FrameAssembler; completed
  // replies and departures are logged as events.
  const double deadline = MonotonicSeconds() + options_.reply_timeout_sec;
  std::vector<uint8_t> chunk(kReadChunk);
  while (outstanding > 0) {
    const double remaining = deadline - MonotonicSeconds();
    if (remaining <= 0.0) break;
    std::vector<pollfd> pfds;
    std::vector<int> pfd_client;
    for (size_t c = 0; c < connections_.size(); ++c) {
      if (task_of_client[c] < 0 || !connections_[c].alive) continue;
      pollfd pfd;
      pfd.fd = connections_[c].socket.fd();
      pfd.events = POLLIN;
      pfd.revents = 0;
      pfds.push_back(pfd);
      pfd_client.push_back(static_cast<int>(c));
    }
    if (pfds.empty()) break;
    const int timeout_ms = static_cast<int>(remaining * 1000.0) + 1;
    const int ready = poll(pfds.data(),
                           static_cast<nfds_t>(pfds.size()), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      // A broken poll leaves every outstanding client unobservable; the
      // post-loop sweep departs them.
      break;
    }
    if (ready == 0) break;  // round deadline

    for (size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      const int c = pfd_client[i];
      Connection& conn = connections_[static_cast<size_t>(c)];
      size_t got = 0;
      const Status read = conn.socket.ReadSome(chunk.data(), chunk.size(),
                                               &got);
      if (!read.ok() || got == 0) {
        // Socket error or EOF: a kill -9'd client lands here, the kernel
        // closing its end mid-round.
        MarkDeparted(c, round);
        --outstanding;
        continue;
      }
      stats_.bytes_received += static_cast<int64_t>(got);
      conn.assembler.Feed(chunk.data(), got);
      for (;;) {
        Frame frame;
        bool frame_ready = false;
        const Status parsed = conn.assembler.Next(&frame, &frame_ready);
        if (!parsed.ok()) {
          MarkDeparted(c, round);
          --outstanding;
          break;
        }
        if (!frame_ready) break;
        const int t = task_of_client[static_cast<size_t>(c)];
        RoundReplyMessage message;
        if (t < 0 || frame.type != FrameType::kRoundReply ||
            !DecodeRoundReply(frame.body, &message).ok() ||
            message.client != c || message.round != round) {
          // Protocol violation: an unexpected, malformed, or misrouted
          // frame. Nothing later on this stream is trustworthy.
          MarkDeparted(c, round);
          --outstanding;
          break;
        }
        ++stats_.frames_received;
        fl::TransportReply& reply = replies[static_cast<size_t>(t)];
        reply.ok = true;
        reply.loss = message.loss;
        reply.uplink = std::move(message.uplink);
        reply.rtt_sec =
            MonotonicSeconds() - sent_at[static_cast<size_t>(t)];
        stats_.total_rtt_sec += reply.rtt_sec;
        if (reply.rtt_sec > stats_.max_rtt_sec) {
          stats_.max_rtt_sec = reply.rtt_sec;
        }
        task_of_client[static_cast<size_t>(c)] = -1;
        --outstanding;
        LogEvent(fl::EventKind::kArrival, c, round);
      }
    }
  }

  // Anything still owed at the deadline is departed, and its connection is
  // closed: a reply limping in next round would desync the protocol.
  for (size_t c = 0; c < connections_.size(); ++c) {
    if (task_of_client[c] >= 0 && connections_[c].alive) {
      MarkDeparted(static_cast<int>(c), round);
    }
  }
  return replies;
}

void SocketTransport::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  for (size_t c = 0; c < connections_.size(); ++c) {
    Connection& conn = connections_[c];
    if (!conn.alive) continue;
    // Best-effort goodbye; the close below is the real teardown.
    (void)WriteFrame(&conn.socket, FrameType::kShutdown, {});
    conn.socket.Close();
    conn.alive = false;
  }
  listener_.Close();
}

// -- RemoteClient ----------------------------------------------------------

RemoteClient::RemoteClient(fl::Client* client, fl::ActivationState* state,
                           tensor::ParameterStore* mirror,
                           RemoteClientOptions options)
    : client_(client), state_(state), mirror_(mirror),
      options_(std::move(options)) {
  FEDDA_CHECK(client_ != nullptr);
  FEDDA_CHECK(state_ != nullptr);
  FEDDA_CHECK(mirror_ != nullptr);
  // The client encodes its uplink under its own id.
  FEDDA_CHECK_EQ(client_->id(), options_.client_id);
}

Status RemoteClient::Handshake() {
  FEDDA_RETURN_IF_ERROR(Connect(options_.address, options_.connect_retries,
                                options_.connect_backoff_sec, &socket_));
  FEDDA_RETURN_IF_ERROR(
      WriteFrame(&socket_, FrameType::kHello,
                 EncodeHello(options_.client_id, options_.fingerprint)));
  Frame ack;
  FEDDA_RETURN_IF_ERROR(
      ReadFrame(&socket_, options_.handshake_timeout_sec, &ack));
  if (ack.type == FrameType::kError) {
    return Status::IoError(
        "server rejected handshake: " +
        std::string(ack.body.begin(), ack.body.end()));
  }
  if (ack.type != FrameType::kHelloAck) {
    return Status::IoError("expected hello-ack frame");
  }
  int echoed_client = -1;
  uint64_t echoed_fingerprint = 0;
  FEDDA_RETURN_IF_ERROR(
      DecodeHello(ack.body, &echoed_client, &echoed_fingerprint));
  if (echoed_client != options_.client_id ||
      echoed_fingerprint != options_.fingerprint) {
    return Status::IoError("hello-ack does not match this client");
  }
  return Status::OK();
}

Status RemoteClient::ServeRound(const std::vector<uint8_t>& body) {
  fl::TransportTask task;
  FEDDA_RETURN_IF_ERROR(DecodeRoundStart(body, &task));
  if (task.client != options_.client_id) {
    return Status::IoError("round task routed to the wrong client");
  }
  // The task fields below cross the trust boundary: they flow into
  // ActivationState::SetClientMask and fl::Client::RunRound, whose
  // FEDDA_CHECKs are in-process programmer-error contracts, not wire
  // validation. Reject malformed tasks here so a hostile or buggy server
  // yields a Status instead of aborting the client.
  if (task.fedda && static_cast<int64_t>(task.mask_bits.size()) !=
                        state_->num_units()) {
    return Status::IoError("round task mask has wrong unit count");
  }
  if (!task.fedda) {
    int prev = -1;
    for (const int gid : task.selected_groups) {
      if (gid <= prev || gid >= client_->params().num_groups()) {
        return Status::IoError(
            "round task selected groups must be ascending in-range ids");
      }
      prev = gid;
    }
  }
  if (hook_) hook_(task.round);

  // 1. Resync the mirror: after ApplyTo the mirror equals the server's
  // global store bit-for-bit (the server's mirror tracker ships every
  // group the aggregation rewrote since our last sync).
  FEDDA_RETURN_IF_ERROR(task.sync.ApplyTo(mirror_));

  // 2. Install this round's mask so the uplink is masked by exactly what
  // the server's ActivationState holds for us.
  if (task.fedda) {
    state_->SetClientMask(options_.client_id, task.mask_bits);
  }

  // 3. Run the client update the runner's in-process dispatch runs, on the
  // shipped RNG stream: these are the bytes the in-process round builds.
  core::Rng rng = core::Rng::FromState(task.rng_state);
  fl::TransportReply update = client_->RunRound(
      *mirror_, options_.local, options_.dp_noise_std,
      task.fedda ? state_ : nullptr, task.selected_groups, task.round, &rng);
  RoundReplyMessage reply;
  reply.client = options_.client_id;
  reply.round = task.round;
  reply.loss = update.loss;
  reply.uplink = std::move(update.uplink);
  return WriteFrame(&socket_, FrameType::kRoundReply,
                    EncodeRoundReply(reply));
}

Status RemoteClient::Run() {
  FEDDA_RETURN_IF_ERROR(Handshake());
  for (;;) {
    Frame frame;
    FEDDA_RETURN_IF_ERROR(
        ReadFrame(&socket_, options_.round_timeout_sec, &frame));
    switch (frame.type) {
      case FrameType::kRoundStart:
        FEDDA_RETURN_IF_ERROR(ServeRound(frame.body));
        break;
      case FrameType::kShutdown:
        socket_.Close();
        return Status::OK();
      case FrameType::kError:
        return Status::IoError(
            "server error: " +
            std::string(frame.body.begin(), frame.body.end()));
      default:
        return Status::IoError("unexpected frame type from server");
    }
  }
}

}  // namespace fedda::net
