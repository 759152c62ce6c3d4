#include "tensor/parameter_store.h"

#include <algorithm>

namespace fedda::tensor {

namespace {
constexpr char kNoGradSlots[] =
    "store has no gradient slots (it is a copy); call ZeroGrads() first";
}  // namespace

ParameterStore::ParameterStore(const ParameterStore& other)
    : values_(other.values_), infos_(other.infos_),
      offsets_(other.offsets_), num_scalars_(other.num_scalars_) {}

ParameterStore& ParameterStore::operator=(const ParameterStore& other) {
  values_ = other.values_;
  grads_.clear();
  infos_ = other.infos_;
  offsets_ = other.offsets_;
  num_scalars_ = other.num_scalars_;
  return *this;
}

int ParameterStore::Register(const std::string& name, Tensor init,
                             bool disentangled, int edge_type) {
  FEDDA_CHECK_EQ(FindByName(name), -1) << "duplicate parameter:" << name;
  const int id = num_groups();
  offsets_.push_back(num_scalars_);
  num_scalars_ += init.size();
  if (has_grads()) grads_.push_back(Tensor::Zeros(init.rows(), init.cols()));
  values_.push_back(std::move(init));
  infos_.push_back(ParamInfo{name, disentangled, edge_type});
  return id;
}

int64_t ParameterStore::num_disentangled_scalars() const {
  int64_t total = 0;
  for (int i = 0; i < num_groups(); ++i) {
    if (infos_[i].disentangled) total += values_[i].size();
  }
  return total;
}

Tensor& ParameterStore::value(int id) {
  FEDDA_CHECK(id >= 0 && id < num_groups());
  return values_[static_cast<size_t>(id)];
}

const Tensor& ParameterStore::value(int id) const {
  FEDDA_CHECK(id >= 0 && id < num_groups());
  return values_[static_cast<size_t>(id)];
}

Tensor& ParameterStore::grad(int id) {
  FEDDA_CHECK(id >= 0 && id < num_groups());
  FEDDA_CHECK(has_grads()) << kNoGradSlots;
  return grads_[static_cast<size_t>(id)];
}

const Tensor& ParameterStore::grad(int id) const {
  FEDDA_CHECK(id >= 0 && id < num_groups());
  FEDDA_CHECK(has_grads()) << kNoGradSlots;
  return grads_[static_cast<size_t>(id)];
}

const ParamInfo& ParameterStore::info(int id) const {
  FEDDA_CHECK(id >= 0 && id < num_groups());
  return infos_[static_cast<size_t>(id)];
}

int ParameterStore::FindByName(const std::string& name) const {
  for (int i = 0; i < num_groups(); ++i) {
    if (infos_[static_cast<size_t>(i)].name == name) return i;
  }
  return -1;
}

int64_t ParameterStore::group_offset(int id) const {
  FEDDA_CHECK(id >= 0 && id < num_groups());
  return offsets_[static_cast<size_t>(id)];
}

std::vector<int> ParameterStore::DisentangledGroups() const {
  std::vector<int> out;
  for (int i = 0; i < num_groups(); ++i) {
    if (infos_[static_cast<size_t>(i)].disentangled) out.push_back(i);
  }
  return out;
}

void ParameterStore::ZeroGrads() {
  if (!has_grads()) {
    grads_.reserve(values_.size());
    for (const Tensor& v : values_) {
      grads_.push_back(Tensor::Zeros(v.rows(), v.cols()));
    }
    return;
  }
  for (auto& g : grads_) g.Zero();
}

bool ParameterStore::SameStructure(const ParameterStore& other) const {
  if (num_groups() != other.num_groups()) return false;
  for (int i = 0; i < num_groups(); ++i) {
    const size_t s = static_cast<size_t>(i);
    if (infos_[s].name != other.infos_[s].name) return false;
    if (!values_[s].SameShape(other.values_[s])) return false;
  }
  return true;
}

void ParameterStore::CopyValuesFrom(const ParameterStore& other) {
  FEDDA_CHECK(SameStructure(other)) << "parameter structure mismatch";
  for (int i = 0; i < num_groups(); ++i) {
    values_[static_cast<size_t>(i)] = other.values_[static_cast<size_t>(i)];
  }
}

std::vector<float> ParameterStore::FlattenValues() const {
  std::vector<float> flat;
  flat.reserve(static_cast<size_t>(num_scalars_));
  for (const auto& v : values_) {
    flat.insert(flat.end(), v.vec().begin(), v.vec().end());
  }
  return flat;
}

void ParameterStore::SetFromFlat(const std::vector<float>& flat) {
  FEDDA_CHECK_EQ(static_cast<int64_t>(flat.size()), num_scalars_);
  size_t pos = 0;
  for (auto& v : values_) {
    std::copy(flat.begin() + static_cast<long>(pos),
              flat.begin() + static_cast<long>(pos + v.vec().size()),
              v.vec().begin());
    pos += v.vec().size();
  }
}

}  // namespace fedda::tensor
