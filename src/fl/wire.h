#ifndef FEDDA_FL_WIRE_H_
#define FEDDA_FL_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/mutex.h"
#include "core/status.h"
#include "core/thread_annotations.h"
#include "fl/activation.h"
#include "tensor/parameter_store.h"

namespace fedda::fl {

/// Wire format for federated round payloads. An uplink payload carries a
/// participant's weights sparsely under its activation mask (bit-packed
/// unit mask + only the active scalars; whole groups for non-disentangled
/// or tensor-granularity units), and a downlink payload carries only the
/// groups a client requests. `EncodedBytes()` is the exact serialized
/// size, so the runner's accounting — including mask overhead — is
/// measured, not modeled. See DESIGN.md §8 for the byte layout.

/// Packs `count` bits (each byte 0 or 1) LSB-first into ceil(count/8)
/// bytes. Shared by the wire payloads and ActivationState's checkpoint
/// format.
std::vector<uint8_t> PackBits(const uint8_t* bits, size_t count);
std::vector<uint8_t> PackBits(const std::vector<uint8_t>& bits);

/// Inverse of PackBits: expands `packed` into `count` bytes of 0/1.
/// `packed` must hold at least ceil(count/8) bytes.
std::vector<uint8_t> UnpackBits(const std::vector<uint8_t>& packed,
                                size_t count);

/// Direction tag embedded in every payload header.
enum class WireKind : uint32_t {
  kUplink = 1,
  kDownlink = 2,
};

/// A serialized round message in either direction. A payload holds its
/// encoded bytes plus a small index of its entries, so building one writes
/// each value once, Serialize() hands the buffer out, and ApplyTo() copies
/// values straight out of it. Payloads are built by the factory functions
/// below (or reconstructed by Deserialize) and are immutable afterwards. A
/// default-constructed payload is a valid header-only uplink.
class WirePayload {
 public:
  WirePayload();

  WireKind kind() const { return kind_; }
  int client() const { return client_; }
  int round() const { return round_; }
  /// Total group count of the model the payload was built against (layout
  /// check on ApplyTo).
  int total_groups() const { return total_groups_; }
  /// Number of groups the payload carries.
  int num_entries() const { return static_cast<int>(entries_.size()); }

  /// Scalars carried by the payload (active values only for masked
  /// entries).
  int64_t PayloadScalars() const;
  /// Full-group scalar coverage: sum of group sizes over entries (what the
  /// receiver ends up holding current values for).
  int64_t CoveredScalars() const;

  /// Exact byte size of Serialize()'s result.
  int64_t EncodedBytes() const { return static_cast<int64_t>(bytes_.size()); }

  /// The little-endian wire form. Returns the payload's own buffer without
  /// copying it; on a temporary the buffer is moved out.
  const std::vector<uint8_t>& Serialize() const& { return bytes_; }
  std::vector<uint8_t> Serialize() && { return std::move(bytes_); }

  /// Parses `bytes` into this payload, validating it in place and keeping
  /// one copy. Truncated or corrupt input returns a non-OK Status and
  /// leaves the payload unchanged; it never crashes. `bytes` may be this
  /// payload's own Serialize() result.
  [[nodiscard]] core::Status Deserialize(const std::vector<uint8_t>& bytes);

  /// OK when the payload fits `store`'s layout: the same group count, and
  /// every entry's group id in range with the store's group size.
  /// Deserialize checks only a payload's own structure, so a payload from
  /// the wire must pass this before it is applied.
  [[nodiscard]] core::Status CheckLayout(
      const tensor::ParameterStore& store) const;

  /// Writes the carried values into `store`: dense entries overwrite the
  /// whole group, masked entries overwrite only active scalars (inactive
  /// positions keep the store's values). With every group present and
  /// dense — a full-mask payload — this is bit-identical to
  /// ParameterStore::CopyValuesFrom. Fails, writing nothing, if CheckLayout
  /// fails.
  [[nodiscard]] core::Status ApplyTo(tensor::ParameterStore* store) const;

 private:
  friend WirePayload BuildUplinkPayload(const ActivationState& state,
                                        int client, int round,
                                        const tensor::ParameterStore& params);
  /// One dense entry per group of `groups`: the body of both dense
  /// factories below, which differ only in `kind`.
  friend WirePayload BuildDensePayload(WireKind kind,
                                       const std::vector<int>& groups,
                                       int client, int round,
                                       const tensor::ParameterStore& store);

  /// Where one entry sits in `bytes_`. Dense entries carry all `size`
  /// scalars of the group; masked entries carry a bit-packed scalar mask
  /// plus one value per set bit, in group order. Values are not 4-byte
  /// aligned, so they are only ever read and written with memcpy.
  struct Entry {
    int group = 0;
    /// Full scalar count of the group in the model (also the mask bit
    /// count).
    int64_t size = 0;
    bool masked = false;
    /// Offset of the mask in `bytes_` (masked entries only).
    size_t mask_offset = 0;
    /// Offset of the first value in `bytes_`.
    size_t values_offset = 0;
    /// Values carried: `size` when dense, the mask's set bits when masked.
    int64_t values = 0;
  };

  /// Writes the header of a payload with `entry_count` entries into a
  /// buffer reserved to `encoded_bytes`; the factories then append each
  /// entry.
  WirePayload(WireKind kind, int client, int round, int total_groups,
              size_t entry_count, int64_t encoded_bytes);
  /// Group id, encoding tag and size: the 13 bytes before an entry's body.
  void AppendEntryHeader(const Entry& entry);
  void AppendDense(int group, const tensor::Tensor& value);
  /// `bits` holds one 0/1 byte per scalar of `value`, `active` of them set.
  void AppendMasked(int group, const uint8_t* bits, int64_t active,
                    const tensor::Tensor& value);
  void AppendRaw(const void* data, size_t size);

  WireKind kind_ = WireKind::kUplink;
  int client_ = 0;
  int round_ = 0;
  int total_groups_ = 0;
  std::vector<Entry> entries_;
  std::vector<uint8_t> bytes_;
};

/// FedDA uplink: client `client`'s post-training weights under its current
/// mask row, one entry per group as ActivationState::Coverage decides: a
/// whole group is a dense entry, a per-scalar group a bit-packed mask plus
/// its active scalars (a masked entry), and an uncovered group is omitted.
WirePayload BuildUplinkPayload(const ActivationState& state, int client,
                               int round,
                               const tensor::ParameterStore& params);

/// FedAvg uplink: the round's selected groups, each sent whole. `groups`
/// must be ascending valid group ids.
WirePayload BuildDenseUplinkPayload(const std::vector<int>& groups,
                                    int client, int round,
                                    const tensor::ParameterStore& params);

/// Downlink: the global values of exactly `groups` (the groups the client
/// requests and does not already hold current), each sent whole. An empty
/// `groups` list yields a header-only payload.
WirePayload BuildDownlinkPayload(const std::vector<int>& groups, int client,
                                 int round,
                                 const tensor::ParameterStore& global);

/// Server-side downlink staleness tracking. The server re-ships a group to
/// a client only when the client requests it and its cached copy is stale;
/// this class owns the version bookkeeping that decides "stale". Every
/// group starts at version 0 and every client's cached version at -1
/// ("never sent"), so a client's first request charges the initial full
/// broadcast; AdvanceGroups() bumps a group's version when aggregation
/// rewrites it, so unrequested or unselected groups are never re-shipped —
/// until a reactivated mask requests a stale group again, which is then
/// charged as a resync.
///
/// The state is mutex-guarded (a deployment's server answers many clients
/// concurrently); the sequential round loop pays one uncontended lock per
/// call. The lock covers each call, not a round: callers must not
/// interleave AdvanceGroups() with a round's ClaimStale() sweep if they
/// need all clients charged against the same versions.
class DownlinkVersionTracker {
 public:
  DownlinkVersionTracker(int num_clients, int num_groups);
  DownlinkVersionTracker(const DownlinkVersionTracker&) = delete;
  DownlinkVersionTracker& operator=(const DownlinkVersionTracker&) = delete;

  /// Filters ascending group ids `requested` down to the ones whose cached
  /// version at `client` is stale, marks those as sent at the current
  /// version, and returns them (still ascending). Groups outside
  /// `requested` are untouched — a client that stops requesting a group
  /// keeps its stale cache entry and pays the resync when it asks again.
  std::vector<int> ClaimStale(int client, const std::vector<int>& requested)
      FEDDA_EXCLUDES(mu_);

  /// Bumps the version of every group with a nonzero flag in `updated`
  /// (indexed by group id, as filled by the aggregation step).
  void AdvanceGroups(const std::vector<uint8_t>& updated) FEDDA_EXCLUDES(mu_);

  /// Forgets everything sent to `client` (every sent_version back to -1,
  /// "never sent"). Wired to departure events: a client that drops out
  /// loses its cached copy of the model, so when it rejoins, its first
  /// request is charged as a full resync. Without this, a departed client's
  /// stale sent_version survived forever and a rejoining client silently
  /// trained on stale groups the server believed were current.
  void InvalidateClient(int client) FEDDA_EXCLUDES(mu_);

  int num_clients() const { return num_clients_; }
  int num_groups() const { return num_groups_; }

  /// Test accessors.
  int group_version(int gid) const FEDDA_EXCLUDES(mu_);
  int sent_version(int client, int gid) const FEDDA_EXCLUDES(mu_);

 private:
  const int num_clients_;
  const int num_groups_;
  mutable core::Mutex mu_;
  std::vector<int> group_version_ FEDDA_GUARDED_BY(mu_);
  std::vector<std::vector<int>> sent_version_ FEDDA_GUARDED_BY(mu_);
};

}  // namespace fedda::fl

#endif  // FEDDA_FL_WIRE_H_
