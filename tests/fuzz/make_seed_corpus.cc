// Regenerates the checked-in fuzz corpora (tests/fuzz/corpus/<target>/)
// deterministically from the real encoders, plus the hand-derived
// regression entries that pin previously fixed decoder bugs. Workflow
// mirrors the goldens convention (tools/README.md):
//
//   cmake --build build -j --target make_seed_corpus
//   ./build/tests/fuzz/make_seed_corpus tests/fuzz/corpus
//
// Seeds are *valid* encodings — coverage-guided fuzzing mutates from
// there, and the corpus-replay ctest target replays every entry on every
// compiler, so this tool is the single source of truth for what the
// corpus contains. Regression entries carry a `crash-` prefix and a short
// slug naming the bug they pin.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/binary_io.h"
#include "core/check.h"
#include "fl/activation.h"
#include "fl/transport.h"
#include "fl/wire.h"
#include "graph/graph_io.h"
#include "graph/hetero_graph.h"
#include "net/framing.h"
#include "net/transport.h"
#include "tensor/checkpoint.h"
#include "tensor/parameter_store.h"

namespace {

using fedda::core::ByteWriter;

std::string TargetDir(const std::string& root, const std::string& target) {
  const std::string dir = root + "/" + target;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  FEDDA_CHECK(!ec) << "cannot create" << dir;
  return dir;
}

void WriteEntry(const std::string& root, const std::string& target,
                const std::string& name, const std::vector<uint8_t>& bytes) {
  FEDDA_CHECK_OK(
      fedda::core::WriteFile(TargetDir(root, target) + "/" + name, bytes));
  std::printf("  %s/%s (%zu bytes)\n", target.c_str(), name.c_str(),
              bytes.size());
}

std::vector<uint8_t> TextBytes(const std::string& text) {
  return std::vector<uint8_t>(text.begin(), text.end());
}

/// The layouts here mirror the harness fixtures in fuzz_wire_payload.cc /
/// fuzz_activation_load.cc / fuzz_checkpoint.cc, so seed entries decode
/// fully (deep coverage) instead of failing the first layout check.
fedda::tensor::ParameterStore MakeStore() {
  fedda::tensor::ParameterStore store;
  store.Register("w0", fedda::tensor::Tensor::Full(2, 3, 0.5f));
  store.Register("w1", fedda::tensor::Tensor::Full(4, 1, -1.25f),
                 /*disentangled=*/true, /*edge_type=*/0);
  store.Register("w2", fedda::tensor::Tensor::Full(1, 5, 2.0f),
                 /*disentangled=*/true, /*edge_type=*/1);
  return store;
}

fedda::fl::WirePayload MaskedUplink(const fedda::tensor::ParameterStore& s) {
  fedda::fl::ActivationOptions options;
  options.granularity = fedda::fl::ActivationGranularity::kScalar;
  fedda::fl::ActivationState state(/*num_clients=*/4, s, options);
  // Deactivate a few scalars so the payload carries a real bit mask.
  std::vector<uint8_t> mask(static_cast<size_t>(state.num_units()), 1);
  mask[0] = 0;
  mask[mask.size() / 2] = 0;
  mask[mask.size() - 1] = 0;
  state.SetClientMask(1, mask);
  return BuildUplinkPayload(state, /*client=*/1, /*round=*/2, s);
}

// -- Regression entries (bytes that used to crash or mis-handle) ----------

/// DecodeRoundStart: a FedDA task whose wire-supplied unit count is
/// 2^64-1. `(units + 7) / 8` wrapped to 0, ReadBytes returned an empty
/// block, and UnpackBits' internal invariant aborted the process.
std::vector<uint8_t> RoundStartUnitsOverflow() {
  ByteWriter w;
  w.WriteU32(1);                     // client
  w.WriteU32(0);                     // round
  for (int i = 0; i < 4; ++i) w.WriteU64(0x1111111111111111ull * (i + 1));
  w.WriteU8(1);                      // fedda: masked path
  w.WriteU64(0xFFFFFFFFFFFFFFFFull); // unit count
  return w.Release();
}

/// DecodeRoundStart: a FedAvg task whose group count passed the old
/// `count > body.size()` plausibility check (it counts *bytes*, not the 4
/// bytes each id needs) yet reserved far more than the payload holds.
std::vector<uint8_t> RoundStartOversizeGroupCount() {
  ByteWriter w;
  w.WriteU32(1);
  w.WriteU32(0);
  for (int i = 0; i < 4; ++i) w.WriteU64(7);
  w.WriteU8(0);    // fedavg: dense path
  w.WriteU64(64);  // claims 64 group ids; only padding follows
  for (int i = 0; i < 70; ++i) w.WriteU8(0);
  return w.Release();
}

/// WirePayload::Deserialize: one entry with size = INT64_MAX. MaskBytes'
/// `size + 7` was signed-overflow UB before any block read could reject
/// the entry.
std::vector<uint8_t> WirePayloadSizeOverflow() {
  ByteWriter w;
  w.WriteU32(0xF3DDA13E);  // magic
  w.WriteU32(1);           // version
  w.WriteU32(1);           // kind: uplink
  w.WriteU32(0);           // client
  w.WriteU32(0);           // round
  w.WriteU32(3);           // total_groups
  w.WriteU32(1);           // entry count
  w.WriteU32(0);           // group id
  w.WriteU8(1);            // masked encoding
  w.WriteI64(0x7FFFFFFFFFFFFFFFll);  // size
  return w.Release();
}

/// Checkpoint reader: rows = cols = 2^31 overflows rows*cols into a
/// near-zero product on 32-bit arithmetic and demands exabytes on 64-bit;
/// both must be rejected against the bytes actually present.
std::vector<uint8_t> CheckpointShapeOverflow() {
  ByteWriter w;
  w.WriteU32(0xF3DDA001);  // magic
  w.WriteU32(1);           // version
  w.WriteU32(1);           // group count
  w.WriteString("w0");
  w.WriteI64(1ll << 31);   // rows
  w.WriteI64(1ll << 31);   // cols
  w.WriteU32(0);           // disentangled
  w.WriteI64(-1);          // edge_type
  return w.Release();
}

/// Checkpoint reader: two zero-size groups both named "a" (78 bytes).
/// LoadCheckpoint registered them in file order, and
/// ParameterStore::Register's duplicate-name FEDDA_CHECK aborted on the
/// second.
std::vector<uint8_t> CheckpointDuplicateName() {
  ByteWriter w;
  w.WriteU32(0xF3DDA001);  // magic
  w.WriteU32(1);           // version
  w.WriteU32(2);           // group count
  for (int i = 0; i < 2; ++i) {
    w.WriteString("a");
    w.WriteI64(0);         // rows
    w.WriteI64(0);         // cols
    w.WriteU32(0);         // disentangled
    w.WriteI64(-1);        // edge_type
  }
  return w.Release();
}

/// Graph reader: dim * count overflow in the node feature block.
std::vector<uint8_t> GraphDimCountOverflow() {
  ByteWriter w;
  w.WriteU32(0xF3DDA6F2);  // magic
  w.WriteU32(1);           // version
  w.WriteU32(1);           // node type count
  w.WriteString("paper");
  w.WriteI64(1ll << 31);   // feature dim
  w.WriteI64(1ll << 31);   // node count
  return w.Release();
}

/// Graph reader: an edge whose endpoints are valid node ids but of the
/// wrong types for the declared edge type. This used to reach
/// HeteroGraphBuilder::AddEdge's endpoint-consistency FEDDA_CHECK — an
/// abort from attacker bytes (found by the mutation campaign).
std::vector<uint8_t> GraphEdgeEndpointMismatch() {
  ByteWriter w;
  w.WriteU32(0xF3DDA6F2);  // magic
  w.WriteU32(1);           // version
  w.WriteU32(2);           // two node types, no features
  w.WriteString("a");
  w.WriteI64(0);
  w.WriteI64(1);
  w.WriteString("b");
  w.WriteI64(0);
  w.WriteI64(1);
  w.WriteU32(1);           // one edge type: a -> b
  w.WriteString("ab");
  w.WriteU32(0);
  w.WriteU32(1);
  w.WriteI64(2);           // nodes: one of each type
  w.WriteU32(0);
  w.WriteU32(1);
  w.WriteI64(1);           // one edge: b -> a under type a -> b
  w.WriteU32(1);
  w.WriteU32(0);
  w.WriteU32(0);
  return w.Release();
}

/// DecodeRoundStart: a FedDA task with zero mask units. ReadBytes(0)
/// handed a null data() to memcpy — UB for size 0 too (found by the
/// mutation campaign under UBSan).
std::vector<uint8_t> RoundStartZeroUnits() {
  ByteWriter w;
  w.WriteU32(1);                     // client
  w.WriteU32(0);                     // round
  for (int i = 0; i < 4; ++i) w.WriteU64(3);
  w.WriteU8(1);                      // fedda: masked path
  w.WriteU64(0);                     // zero units -> zero mask bytes
  w.WriteU64(0);                     // zero-length sync payload
  return w.Release();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_seed_corpus <corpus-root>\n");
    return 1;
  }
  const std::string root = argv[1];
  const fedda::tensor::ParameterStore store = MakeStore();

  // hello --------------------------------------------------------------
  const std::vector<uint8_t> hello =
      fedda::net::EncodeHello(3, fedda::net::Fingerprint64("clients=4"));
  WriteEntry(root, "hello", "seed-hello", hello);

  // wire_payload -------------------------------------------------------
  const fedda::fl::WirePayload masked = MaskedUplink(store);
  const fedda::fl::WirePayload dense = fedda::fl::BuildDenseUplinkPayload(
      {0, 2}, /*client=*/0, /*round=*/1, store);
  const fedda::fl::WirePayload downlink = fedda::fl::BuildDownlinkPayload(
      {0, 1, 2}, /*client=*/2, /*round=*/3, store);
  WriteEntry(root, "wire_payload", "seed-masked-uplink", masked.Serialize());
  WriteEntry(root, "wire_payload", "seed-dense-uplink", dense.Serialize());
  WriteEntry(root, "wire_payload", "seed-downlink", downlink.Serialize());
  WriteEntry(root, "wire_payload", "crash-entry-size-overflow",
             WirePayloadSizeOverflow());

  // round_start --------------------------------------------------------
  fedda::fl::TransportTask fedda_task;
  fedda_task.client = 1;
  fedda_task.round = 2;
  fedda_task.rng_state = {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull,
                          0x0F1E2D3C4B5A6978ull, 0x1122334455667788ull};
  fedda_task.fedda = true;
  fedda_task.mask_bits = {1, 0, 1, 1, 0, 1, 1};
  fedda_task.sync = downlink;
  WriteEntry(root, "round_start", "seed-fedda",
             fedda::net::EncodeRoundStart(fedda_task));
  fedda::fl::TransportTask fedavg_task;
  fedavg_task.client = 0;
  fedavg_task.round = 2;
  fedavg_task.rng_state = {1, 2, 3, 4};
  fedavg_task.fedda = false;
  fedavg_task.selected_groups = {0, 2};
  fedavg_task.sync = downlink;
  WriteEntry(root, "round_start", "seed-fedavg",
             fedda::net::EncodeRoundStart(fedavg_task));
  WriteEntry(root, "round_start", "crash-units-overflow",
             RoundStartUnitsOverflow());
  WriteEntry(root, "round_start", "crash-oversize-group-count",
             RoundStartOversizeGroupCount());
  WriteEntry(root, "round_start", "crash-zero-units",
             RoundStartZeroUnits());

  // round_reply --------------------------------------------------------
  fedda::net::RoundReplyMessage reply;
  reply.client = 1;
  reply.round = 2;
  reply.loss = 0.734375;  // exactly representable: byte-stable corpus
  reply.uplink = masked;
  WriteEntry(root, "round_reply", "seed-reply",
             fedda::net::EncodeRoundReply(reply));

  // framing ------------------------------------------------------------
  WriteEntry(root, "framing", "seed-hello-frame",
             fedda::net::EncodeFrame(fedda::net::FrameType::kHello, hello));
  std::vector<uint8_t> back_to_back = fedda::net::EncodeFrame(
      fedda::net::FrameType::kRoundStart,
      fedda::net::EncodeRoundStart(fedda_task));
  const std::vector<uint8_t> shutdown =
      fedda::net::EncodeFrame(fedda::net::FrameType::kShutdown, {});
  back_to_back.insert(back_to_back.end(), shutdown.begin(), shutdown.end());
  WriteEntry(root, "framing", "seed-roundstart-then-shutdown", back_to_back);
  const std::string reason = "config fingerprint mismatch";
  WriteEntry(root, "framing", "seed-error-frame",
             fedda::net::EncodeFrame(fedda::net::FrameType::kError,
                                     TextBytes(reason)));

  // checkpoint ---------------------------------------------------------
  {
    const std::string tmp = TargetDir(root, "checkpoint") + "/seed-checkpoint";
    FEDDA_CHECK_OK(fedda::tensor::SaveCheckpoint(store, tmp));
    std::printf("  checkpoint/seed-checkpoint (via SaveCheckpoint)\n");
  }
  WriteEntry(root, "checkpoint", "crash-shape-overflow",
             CheckpointShapeOverflow());
  WriteEntry(root, "checkpoint", "crash-duplicate-name",
             CheckpointDuplicateName());

  // activation_load ----------------------------------------------------
  // Reference layout mirrors fuzz_activation_load.cc's fixture exactly, so
  // the seed passes Load's layout checks and reaches the mask-block
  // decoding paths.
  {
    fedda::tensor::ParameterStore reference;
    reference.Register("shared", fedda::tensor::Tensor::Zeros(2, 2));
    reference.Register("rel0", fedda::tensor::Tensor::Zeros(3, 1),
                       /*disentangled=*/true, /*edge_type=*/0);
    reference.Register("rel1", fedda::tensor::Tensor::Zeros(1, 4),
                       /*disentangled=*/true, /*edge_type=*/1);
    fedda::fl::ActivationOptions options;
    options.granularity = fedda::fl::ActivationGranularity::kScalar;
    fedda::fl::ActivationState state(/*num_clients=*/4, reference, options);
    std::vector<uint8_t> mask(static_cast<size_t>(state.num_units()), 1);
    mask[1] = 0;
    state.SetClientMask(2, mask);
    state.DeactivateClient(3);
    const std::string tmp =
        TargetDir(root, "activation_load") + "/seed-activation";
    FEDDA_CHECK_OK(state.Save(tmp));
    std::printf("  activation_load/seed-activation (via Save)\n");
  }

  // graph_load ---------------------------------------------------------
  {
    fedda::graph::HeteroGraphBuilder builder;
    const auto paper = builder.AddNodeType("paper", 2);
    const auto author = builder.AddNodeType("author", 0);
    const auto writes = builder.AddEdgeType("writes", author, paper);
    builder.AddNode(paper);
    builder.AddNode(author);
    builder.AddNode(paper);
    builder.SetFeatures(paper, fedda::tensor::Tensor::FromVector(
                                   2, 2, {0.1f, 0.2f, 0.3f, 0.4f}));
    builder.AddEdge(1, 0, writes);
    builder.AddEdge(1, 2, writes);
    fedda::graph::HeteroGraph graph = builder.Build();
    const std::string tmp = TargetDir(root, "graph_load") + "/seed-graph";
    FEDDA_CHECK_OK(fedda::graph::SaveGraph(graph, tmp));
    std::printf("  graph_load/seed-graph (via SaveGraph)\n");
  }
  WriteEntry(root, "graph_load", "crash-dim-count-overflow",
             GraphDimCountOverflow());
  WriteEntry(root, "graph_load", "crash-edge-endpoint-mismatch",
             GraphEdgeEndpointMismatch());

  // graph_tsv ----------------------------------------------------------
  {
    std::string nodes =
        "# type<TAB>feature...\n"
        "paper\t0.1\t0.2\n"
        "author\n"
        "paper\t0.3\t0.4\n";
    std::string edges =
        "writes\t1\t0\n"
        "writes\t1\t2\n";
    std::vector<uint8_t> joined = TextBytes(nodes);
    joined.push_back(0x1E);
    const std::vector<uint8_t> edge_bytes = TextBytes(edges);
    joined.insert(joined.end(), edge_bytes.begin(), edge_bytes.end());
    WriteEntry(root, "graph_tsv", "seed-two-files", joined);
  }

  // flags --------------------------------------------------------------
  {
    const std::string tokens = std::string("--rounds=40") + '\0' +
                               "--clients=8" + '\0' + "--lr=0.05" + '\0' +
                               "--fedda=true" + '\0' + "--outdir=results";
    WriteEntry(root, "flags", "seed-typical", TextBytes(tokens));
    const std::string overflow = std::string("--rounds=99999999999999999999");
    WriteEntry(root, "flags", "seed-overflowing-int", TextBytes(overflow));
  }

  std::printf("seed corpus written under %s\n", root.c_str());
  return 0;
}
