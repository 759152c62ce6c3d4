#ifndef FEDDA_TENSOR_AUTOGRAD_H_
#define FEDDA_TENSOR_AUTOGRAD_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "tensor/tensor.h"

namespace fedda::core {
class ThreadPool;
}  // namespace fedda::core

namespace fedda::obs {
class Tracer;
}  // namespace fedda::obs

namespace fedda::tensor {

class Graph;

/// Handle to a node in an autograd `Graph` tape. Cheap to copy.
struct Var {
  int32_t id = -1;
  bool valid() const { return id >= 0; }
};

/// Reverse-mode automatic differentiation over `Tensor` values.
///
/// A `Graph` is a tape: every op (see ops.h) appends a node holding the
/// forward value and a backward closure. `Backward(loss)` walks the tape in
/// reverse, accumulating gradients; gradients of `Leaf` nodes are added into
/// the caller-owned sink tensors (typically `ParameterStore` grad slots).
///
/// The tape is rebuilt for every forward pass (define-by-run). Constructing
/// with `training == false` skips storing backward closures so inference
/// passes cost no extra memory.
class Graph {
 public:
  /// Backward closure: reads grad(self) and accumulates into the grads of
  /// its input nodes via `mutable_grad`.
  using BackwardFn = std::function<void(Graph*, Var)>;

  explicit Graph(bool training = true) : training_(training) {}

  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  /// A node that never requires gradients (input features, masks, ...).
  /// The tensor is moved into the tape.
  Var Constant(Tensor value);

  /// A differentiable leaf. `value` is copied onto the tape; after
  /// Backward(), the leaf's gradient is accumulated (+=) into `*grad_sink`,
  /// which must stay alive until then and match `value`'s shape.
  /// In inference graphs the leaf degenerates to a constant.
  Var Leaf(const Tensor& value, Tensor* grad_sink);

  /// Appends an op node. `requires_grad` is typically the OR over inputs;
  /// ops compute it themselves. `backward` may be empty when requires_grad
  /// is false or the graph is in inference mode.
  Var AddNode(Tensor value, std::vector<Var> inputs, BackwardFn backward,
              bool requires_grad);

  /// Runs reverse-mode accumulation from `loss`, which must be 1x1.
  /// May be called once per tape.
  void Backward(Var loss);

  const Tensor& value(Var v) const;

  /// Gradient of node `v`; empty before Backward or for non-grad nodes.
  const Tensor& grad(Var v) const;

  /// Gradient slot for accumulation inside backward closures. Allocates
  /// (zeroed, value-shaped) on first access.
  Tensor& mutable_grad(Var v);

  bool requires_grad(Var v) const;
  bool training() const { return training_; }
  size_t num_nodes() const { return nodes_.size(); }

  /// Optional compute pool consulted by the op kernels (ops.cc) for row-level
  /// parallelism in forward and backward passes. Null means sequential. The
  /// kernels partition work so that every floating-point accumulation order
  /// matches the sequential path — results are bit-identical for any pool
  /// size. The pool is borrowed, not owned; it must outlive the graph.
  void set_pool(core::ThreadPool* pool) { pool_ = pool; }
  core::ThreadPool* pool() const { return pool_; }

  /// Optional span sink consulted by the op kernels for per-kernel timing
  /// (matmul, gather-rows, scatter-add-rows, segment-softmax) and by
  /// Backward() for the whole reverse pass. Null disables at the cost of
  /// one pointer test per instrumented kernel. Borrowed, not owned.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

 private:
  struct Node {
    Tensor value;
    Tensor grad;  // empty until needed
    std::vector<Var> inputs;
    BackwardFn backward;
    Tensor* grad_sink = nullptr;  // leaves only
    bool requires_grad = false;
  };

  Node& node(Var v) {
    FEDDA_CHECK(v.valid() && v.id < static_cast<int32_t>(nodes_.size()));
    return nodes_[static_cast<size_t>(v.id)];
  }
  const Node& node(Var v) const {
    FEDDA_CHECK(v.valid() && v.id < static_cast<int32_t>(nodes_.size()));
    return nodes_[static_cast<size_t>(v.id)];
  }

  std::vector<Node> nodes_;
  bool training_;
  bool backward_done_ = false;
  core::ThreadPool* pool_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace fedda::tensor

#endif  // FEDDA_TENSOR_AUTOGRAD_H_
