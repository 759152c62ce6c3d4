#include "graph/graph_io.h"

#include <cstdlib>
#include <fstream>
#include <map>
#include <utility>
#include <vector>

#include "core/binary_io.h"
#include "core/string_util.h"

namespace fedda::graph {

namespace {
constexpr uint32_t kMagic = 0xF3DDA6F2;
constexpr uint32_t kVersion = 1;
}  // namespace

core::Status SaveGraph(const HeteroGraph& graph, const std::string& path) {
  core::ByteWriter writer;
  writer.WriteU32(kMagic);
  writer.WriteU32(kVersion);

  writer.WriteU32(static_cast<uint32_t>(graph.num_node_types()));
  for (NodeTypeId t = 0; t < graph.num_node_types(); ++t) {
    const NodeTypeInfo& info = graph.node_type_info(t);
    writer.WriteString(info.name);
    writer.WriteI64(info.feature_dim);
    writer.WriteI64(graph.num_nodes_of_type(t));
    writer.WriteFloats(graph.features(t).vec());
  }

  writer.WriteU32(static_cast<uint32_t>(graph.num_edge_types()));
  for (EdgeTypeId t = 0; t < graph.num_edge_types(); ++t) {
    const EdgeTypeInfo& info = graph.edge_type_info(t);
    writer.WriteString(info.name);
    writer.WriteU32(static_cast<uint32_t>(info.src_type));
    writer.WriteU32(static_cast<uint32_t>(info.dst_type));
  }

  // Node type of every global id (preserves interleavings).
  writer.WriteI64(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    writer.WriteU32(static_cast<uint32_t>(graph.node_type(v)));
  }

  writer.WriteI64(graph.num_edges());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    writer.WriteU32(static_cast<uint32_t>(graph.edge_src(e)));
    writer.WriteU32(static_cast<uint32_t>(graph.edge_dst(e)));
    writer.WriteU32(static_cast<uint32_t>(graph.edge_type(e)));
  }
  return core::WriteFile(path, writer.bytes());
}

core::Status LoadGraph(const std::string& path, HeteroGraph* graph) {
  std::vector<uint8_t> bytes;
  FEDDA_RETURN_IF_ERROR(core::ReadFile(path, &bytes));
  core::ByteReader reader(bytes);
  if (reader.ReadU32() != kMagic) {
    return core::Status::InvalidArgument("not a FedDA graph file: " + path);
  }
  if (reader.ReadU32() != kVersion) {
    return core::Status::InvalidArgument("unsupported graph file version");
  }

  HeteroGraphBuilder builder;
  const uint32_t num_node_types = reader.ReadU32();
  if (!reader.status().ok()) return reader.status();
  if (num_node_types > kMaxTypes) {
    return core::Status::InvalidArgument("too many node types");
  }
  std::vector<tensor::Tensor> features;
  std::vector<int64_t> type_counts;
  for (uint32_t t = 0; t < num_node_types; ++t) {
    const std::string name = reader.ReadString();
    const int64_t dim = reader.ReadI64();
    const int64_t count = reader.ReadI64();
    if (!reader.status().ok()) return reader.status();
    if (dim < 0 || count < 0) {
      return core::Status::InvalidArgument("corrupt node type block");
    }
    // Bound dim*count against the bytes actually left before multiplying:
    // two plausible-looking halves can overflow int64 (UB) or demand an
    // allocation far beyond the file. kMaxFrameBody-style policy: reject
    // before reserve/resize, never after.
    if (dim > 0 &&
        count > static_cast<int64_t>(reader.remaining() / sizeof(float) /
                                     static_cast<uint64_t>(dim))) {
      return core::Status::InvalidArgument(
          "node feature block exceeds file");
    }
    builder.AddNodeType(name, dim);
    std::vector<float> values =
        reader.ReadFloats(static_cast<size_t>(dim * count));
    if (!reader.status().ok()) return reader.status();
    features.push_back(
        tensor::Tensor::FromVector(count, dim, std::move(values)));
    type_counts.push_back(count);
  }

  const uint32_t num_edge_types = reader.ReadU32();
  if (num_edge_types > kMaxTypes) {
    return core::Status::InvalidArgument("too many edge types");
  }
  std::vector<std::pair<uint32_t, uint32_t>> edge_endpoints;
  for (uint32_t t = 0; t < num_edge_types; ++t) {
    const std::string name = reader.ReadString();
    const uint32_t src = reader.ReadU32();
    const uint32_t dst = reader.ReadU32();
    if (!reader.status().ok()) return reader.status();
    if (src >= num_node_types || dst >= num_node_types) {
      return core::Status::InvalidArgument("edge type references bad node type");
    }
    builder.AddEdgeType(name, static_cast<NodeTypeId>(src),
                        static_cast<NodeTypeId>(dst));
    edge_endpoints.emplace_back(src, dst);
  }

  const int64_t num_nodes = reader.ReadI64();
  if (!reader.status().ok() || num_nodes < 0) {
    return core::Status::InvalidArgument("corrupt node count");
  }
  if (num_nodes > static_cast<int64_t>(reader.remaining() /
                                       sizeof(uint32_t))) {
    return core::Status::InvalidArgument("node records exceed file");
  }
  std::vector<int64_t> seen(num_node_types, 0);
  std::vector<uint32_t> node_types;
  node_types.reserve(static_cast<size_t>(num_nodes));
  for (int64_t v = 0; v < num_nodes; ++v) {
    const uint32_t t = reader.ReadU32();
    if (!reader.status().ok()) return reader.status();
    if (t >= num_node_types) {
      return core::Status::InvalidArgument("node references bad type");
    }
    builder.AddNode(static_cast<NodeTypeId>(t));
    ++seen[t];
    node_types.push_back(t);
  }
  for (uint32_t t = 0; t < num_node_types; ++t) {
    if (seen[t] != type_counts[t]) {
      return core::Status::InvalidArgument("node count mismatch for type");
    }
    builder.SetFeatures(static_cast<NodeTypeId>(t),
                        std::move(features[t]));
  }

  const int64_t num_edges = reader.ReadI64();
  if (!reader.status().ok() || num_edges < 0) {
    return core::Status::InvalidArgument("corrupt edge count");
  }
  if (num_edges > static_cast<int64_t>(reader.remaining() /
                                       (3 * sizeof(uint32_t)))) {
    return core::Status::InvalidArgument("edge records exceed file");
  }
  for (int64_t e = 0; e < num_edges; ++e) {
    const uint32_t u = reader.ReadU32();
    const uint32_t v = reader.ReadU32();
    const uint32_t t = reader.ReadU32();
    if (!reader.status().ok()) return reader.status();
    if (u >= static_cast<uint32_t>(num_nodes) ||
        v >= static_cast<uint32_t>(num_nodes) || t >= num_edge_types) {
      return core::Status::InvalidArgument("corrupt edge record");
    }
    // The builder CHECKs endpoint/type consistency (programmer contract);
    // from file bytes that contract must fail as a Status, not an abort.
    if (node_types[u] != edge_endpoints[t].first ||
        node_types[v] != edge_endpoints[t].second) {
      return core::Status::InvalidArgument(
          "edge endpoints do not match edge type");
    }
    builder.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v),
                    static_cast<EdgeTypeId>(t));
  }
  if (!reader.AtEnd()) {
    return core::Status::InvalidArgument("trailing bytes in graph file");
  }
  *graph = builder.Build();
  return core::Status::OK();
}

core::Status LoadGraphFromTsv(const std::string& nodes_path,
                              const std::string& edges_path,
                              HeteroGraph* graph) {
  std::ifstream nodes_in(nodes_path);
  if (!nodes_in.is_open()) {
    return core::Status::IoError("cannot open nodes file: " + nodes_path);
  }

  // Pass 1: nodes. Types are declared on first use; features collected
  // per type in file order (which is also type-local order).
  HeteroGraphBuilder builder;
  std::map<std::string, NodeTypeId> node_type_ids;
  std::vector<int64_t> feature_dims;
  std::vector<std::vector<float>> feature_values;
  std::vector<int64_t> type_counts;
  std::vector<NodeTypeId> pending_types;  // type of global node i
  std::string line;
  int64_t line_number = 0;
  while (std::getline(nodes_in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> fields = core::Split(line, '\t');
    const std::string& type_name = fields[0];
    const int64_t dim = static_cast<int64_t>(fields.size()) - 1;
    auto it = node_type_ids.find(type_name);
    NodeTypeId type_id;
    if (it == node_type_ids.end()) {
      if (node_type_ids.size() == kMaxTypes) {
        return core::Status::InvalidArgument(core::StrFormat(
            "%s:%lld: more than %zu node types", nodes_path.c_str(),
            static_cast<long long>(line_number), kMaxTypes));
      }
      type_id = static_cast<NodeTypeId>(node_type_ids.size());
      node_type_ids.emplace(type_name, type_id);
      feature_dims.push_back(dim);
      feature_values.emplace_back();
      type_counts.push_back(0);
    } else {
      type_id = it->second;
      if (feature_dims[static_cast<size_t>(type_id)] != dim) {
        return core::Status::InvalidArgument(core::StrFormat(
            "%s:%lld: feature count %lld != %lld for type '%s'",
            nodes_path.c_str(), static_cast<long long>(line_number),
            static_cast<long long>(dim),
            static_cast<long long>(feature_dims[static_cast<size_t>(type_id)]),
            type_name.c_str()));
      }
    }
    for (size_t f = 1; f < fields.size(); ++f) {
      char* end = nullptr;
      const float value = std::strtof(fields[f].c_str(), &end);
      if (end == fields[f].c_str() || *end != '\0') {
        return core::Status::InvalidArgument(core::StrFormat(
            "%s:%lld: bad feature value '%s'", nodes_path.c_str(),
            static_cast<long long>(line_number), fields[f].c_str()));
      }
      feature_values[static_cast<size_t>(type_id)].push_back(value);
    }
    ++type_counts[static_cast<size_t>(type_id)];
    pending_types.push_back(type_id);
  }
  // Declare types in id order, then nodes in file order.
  std::vector<std::string> names_by_id(node_type_ids.size());
  for (const auto& [name, id] : node_type_ids) {
    names_by_id[static_cast<size_t>(id)] = name;
  }
  for (size_t t = 0; t < names_by_id.size(); ++t) {
    builder.AddNodeType(names_by_id[t], feature_dims[t]);
  }
  for (NodeTypeId t : pending_types) builder.AddNode(t);
  for (size_t t = 0; t < names_by_id.size(); ++t) {
    builder.SetFeatures(static_cast<NodeTypeId>(t),
                        tensor::Tensor::FromVector(
                            type_counts[t], feature_dims[t],
                            std::move(feature_values[t])));
  }

  // Pass 2: edges.
  std::ifstream edges_in(edges_path);
  if (!edges_in.is_open()) {
    return core::Status::IoError("cannot open edges file: " + edges_path);
  }
  std::map<std::string, EdgeTypeId> edge_type_ids;
  std::vector<std::pair<NodeTypeId, NodeTypeId>> edge_endpoints;
  line_number = 0;
  while (std::getline(edges_in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> fields = core::Split(line, '\t');
    if (fields.size() != 3) {
      return core::Status::InvalidArgument(core::StrFormat(
          "%s:%lld: expected 'type<TAB>src<TAB>dst'", edges_path.c_str(),
          static_cast<long long>(line_number)));
    }
    char* end = nullptr;
    const long u = std::strtol(fields[1].c_str(), &end, 10);
    if (end == fields[1].c_str() || *end != '\0') {
      return core::Status::InvalidArgument("bad src id: " + fields[1]);
    }
    const long v = std::strtol(fields[2].c_str(), &end, 10);
    if (end == fields[2].c_str() || *end != '\0') {
      return core::Status::InvalidArgument("bad dst id: " + fields[2]);
    }
    if (u < 0 || v < 0 || u >= builder.num_nodes() ||
        v >= builder.num_nodes()) {
      return core::Status::OutOfRange(core::StrFormat(
          "%s:%lld: node id out of range", edges_path.c_str(),
          static_cast<long long>(line_number)));
    }
    const NodeTypeId src_type = pending_types[static_cast<size_t>(u)];
    const NodeTypeId dst_type = pending_types[static_cast<size_t>(v)];
    auto it = edge_type_ids.find(fields[0]);
    EdgeTypeId type_id;
    if (it == edge_type_ids.end()) {
      if (edge_type_ids.size() == kMaxTypes) {
        return core::Status::InvalidArgument(core::StrFormat(
            "%s:%lld: more than %zu edge types", edges_path.c_str(),
            static_cast<long long>(line_number), kMaxTypes));
      }
      type_id = builder.AddEdgeType(fields[0], src_type, dst_type);
      edge_type_ids.emplace(fields[0], type_id);
      edge_endpoints.emplace_back(src_type, dst_type);
    } else {
      type_id = it->second;
      const auto& expected = edge_endpoints[static_cast<size_t>(type_id)];
      if (expected.first != src_type || expected.second != dst_type) {
        return core::Status::InvalidArgument(core::StrFormat(
            "%s:%lld: edge type '%s' endpoint node types differ from its "
            "first use",
            edges_path.c_str(), static_cast<long long>(line_number),
            fields[0].c_str()));
      }
    }
    builder.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v), type_id);
  }

  *graph = builder.Build();
  return core::Status::OK();
}

}  // namespace fedda::graph
