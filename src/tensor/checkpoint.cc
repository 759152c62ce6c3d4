#include "tensor/checkpoint.h"

#include <set>

#include "core/binary_io.h"
#include "core/string_util.h"

namespace fedda::tensor {

namespace {
constexpr uint32_t kMagic = 0xF3DDA001;
constexpr uint32_t kVersion = 1;
}  // namespace

core::Status SaveCheckpoint(const ParameterStore& store,
                            const std::string& path) {
  core::ByteWriter writer;
  writer.WriteU32(kMagic);
  writer.WriteU32(kVersion);
  writer.WriteU32(static_cast<uint32_t>(store.num_groups()));
  for (int id = 0; id < store.num_groups(); ++id) {
    const ParamInfo& info = store.info(id);
    const Tensor& value = store.value(id);
    writer.WriteString(info.name);
    writer.WriteI64(value.rows());
    writer.WriteI64(value.cols());
    writer.WriteU32(info.disentangled ? 1 : 0);
    writer.WriteI64(info.edge_type);
    writer.WriteFloats(value.vec());
  }
  return core::WriteFile(path, writer.bytes());
}

namespace {

struct GroupRecord {
  std::string name;
  int64_t rows = 0;
  int64_t cols = 0;
  bool disentangled = false;
  int edge_type = -1;
  std::vector<float> values;
};

core::Status ReadAllGroups(const std::string& path,
                           std::vector<GroupRecord>* groups) {
  std::vector<uint8_t> bytes;
  FEDDA_RETURN_IF_ERROR(core::ReadFile(path, &bytes));
  core::ByteReader reader(bytes);
  if (reader.ReadU32() != kMagic) {
    return core::Status::InvalidArgument("not a FedDA checkpoint: " + path);
  }
  const uint32_t version = reader.ReadU32();
  if (version != kVersion) {
    return core::Status::InvalidArgument(
        core::StrFormat("unsupported checkpoint version %u", version));
  }
  const uint32_t count = reader.ReadU32();
  // ParameterStore::Register CHECKs that names are unique; from file bytes
  // a repeated name must fail here, before anything is registered.
  std::set<std::string> names;
  for (uint32_t i = 0; i < count; ++i) {
    GroupRecord record;
    record.name = reader.ReadString();
    record.rows = reader.ReadI64();
    record.cols = reader.ReadI64();
    record.disentangled = reader.ReadU32() != 0;
    record.edge_type = static_cast<int>(reader.ReadI64());
    if (!reader.status().ok()) return reader.status();
    if (!names.insert(record.name).second) {
      return core::Status::InvalidArgument(
          "duplicate group name in checkpoint: " + record.name);
    }
    if (record.rows < 0 || record.cols < 0) {
      return core::Status::InvalidArgument("negative shape in checkpoint");
    }
    // Bound rows*cols against the bytes actually left before multiplying:
    // two plausible-looking halves can overflow int64 (UB) or demand an
    // allocation far beyond the file.
    if (record.cols > 0 &&
        record.rows >
            static_cast<int64_t>(reader.remaining() / sizeof(float) /
                                 static_cast<uint64_t>(record.cols))) {
      return core::Status::InvalidArgument(
          "tensor block exceeds checkpoint file");
    }
    record.values = reader.ReadFloats(
        static_cast<size_t>(record.rows * record.cols));
    if (!reader.status().ok()) return reader.status();
    groups->push_back(std::move(record));
  }
  if (!reader.AtEnd()) {
    return core::Status::InvalidArgument("trailing bytes in checkpoint");
  }
  return core::Status::OK();
}

}  // namespace

core::Status LoadCheckpoint(const std::string& path, ParameterStore* store) {
  if (store->num_groups() != 0) {
    return core::Status::FailedPrecondition(
        "LoadCheckpoint requires an empty store");
  }
  std::vector<GroupRecord> groups;
  FEDDA_RETURN_IF_ERROR(ReadAllGroups(path, &groups));
  for (GroupRecord& record : groups) {
    store->Register(
        record.name,
        Tensor::FromVector(record.rows, record.cols, std::move(record.values)),
        record.disentangled, record.edge_type);
  }
  return core::Status::OK();
}

core::Status RestoreCheckpointValues(const std::string& path,
                                     ParameterStore* store) {
  std::vector<GroupRecord> groups;
  FEDDA_RETURN_IF_ERROR(ReadAllGroups(path, &groups));
  if (static_cast<int>(groups.size()) != store->num_groups()) {
    return core::Status::InvalidArgument(core::StrFormat(
        "checkpoint has %zu groups, store has %d", groups.size(),
        store->num_groups()));
  }
  for (int id = 0; id < store->num_groups(); ++id) {
    GroupRecord& record = groups[static_cast<size_t>(id)];
    const ParamInfo& info = store->info(id);
    const Tensor& value = store->value(id);
    if (record.name != info.name || record.rows != value.rows() ||
        record.cols != value.cols()) {
      return core::Status::InvalidArgument(
          "checkpoint group mismatch at '" + record.name + "' vs '" +
          info.name + "'");
    }
  }
  for (int id = 0; id < store->num_groups(); ++id) {
    GroupRecord& record = groups[static_cast<size_t>(id)];
    store->value(id) =
        Tensor::FromVector(record.rows, record.cols, std::move(record.values));
  }
  return core::Status::OK();
}

}  // namespace fedda::tensor
