#ifndef FEDDA_TENSOR_PARAMETER_STORE_H_
#define FEDDA_TENSOR_PARAMETER_STORE_H_

#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace fedda::tensor {

/// Metadata describing one parameter group (a named tensor).
struct ParamInfo {
  std::string name;
  /// Member of the paper's disentangled set [N_d]: parameters attributable
  /// to a single edge type (edge-type embeddings, W_r transforms, DistMult
  /// relation vectors). Only these may be masked per-client by FedDA.
  bool disentangled = false;
  /// The edge type this group is attributed to, or -1.
  int edge_type = -1;
};

/// Ordered collection of named parameter tensors, with gradient slots for
/// the stores that train.
///
/// This is the unit of federation: clients and server each hold a store with
/// identical structure and broadcast/aggregate by group id. FedDA's
/// activation masks index fl::ActivationState's units: one per disentangled
/// group at tensor granularity, one per scalar of a disentangled group at
/// scalar granularity (see fl/activation.h).
///
/// A store built by Register() has one zero gradient slot per group. A copy
/// carries values and layout but no gradient slots: the server copies whole
/// models to rebuild and aggregate updates and never reads a gradient, so
/// the slots would be copied for nothing. ZeroGrads() creates the slots on
/// a store without them; every training path calls it before its first
/// backward pass. A move keeps the slots.
class ParameterStore {
 public:
  ParameterStore() = default;
  ParameterStore(const ParameterStore& other);
  /// Drops this store's gradient slots.
  ParameterStore& operator=(const ParameterStore& other);
  ParameterStore(ParameterStore&&) = default;
  ParameterStore& operator=(ParameterStore&&) = default;

  /// Registers a group; names must be unique. Returns the group id
  /// (sequential from 0). A store with gradient slots gets a zero slot for
  /// the new group.
  int Register(const std::string& name, Tensor init, bool disentangled = false,
               int edge_type = -1);

  int num_groups() const { return static_cast<int>(values_.size()); }
  /// Total scalar count N across all groups.
  int64_t num_scalars() const { return num_scalars_; }
  /// Scalar count restricted to disentangled groups (the paper's N_d).
  int64_t num_disentangled_scalars() const;

  Tensor& value(int id);
  const Tensor& value(int id) const;
  /// Gradient slot of group `id`; the store must have slots (see the class
  /// comment).
  Tensor& grad(int id);
  const Tensor& grad(int id) const;
  const ParamInfo& info(int id) const;

  /// Group id by name, or -1.
  int FindByName(const std::string& name) const;

  /// Start of group `id` in the flat scalar space.
  int64_t group_offset(int id) const;

  /// Group ids in [N_d].
  std::vector<int> DisentangledGroups() const;

  /// Zeroes every gradient slot, creating the slots (shaped like the
  /// values) on a store that has none.
  void ZeroGrads();

  /// Whether `other` has identical group names and shapes.
  bool SameStructure(const ParameterStore& other) const;

  /// Copies all values (not grads) from `other`; structures must match.
  void CopyValuesFrom(const ParameterStore& other);

  /// All values flattened into one scalar vector of length num_scalars().
  std::vector<float> FlattenValues() const;
  /// Restores values from a flat vector produced by FlattenValues().
  void SetFromFlat(const std::vector<float>& flat);

 private:
  /// Whether the store has gradient slots. An empty store counts as having
  /// them, so Register() gives a fresh store its slots.
  bool has_grads() const { return grads_.size() == values_.size(); }

  std::vector<Tensor> values_;
  /// One slot per group, or empty on a store without slots.
  std::vector<Tensor> grads_;
  std::vector<ParamInfo> infos_;
  std::vector<int64_t> offsets_;
  int64_t num_scalars_ = 0;
};

}  // namespace fedda::tensor

#endif  // FEDDA_TENSOR_PARAMETER_STORE_H_
