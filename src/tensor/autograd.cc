#include "tensor/autograd.h"

#include <utility>

#include "obs/trace.h"

namespace fedda::tensor {

Var Graph::Constant(Tensor value) {
  Node n;
  n.value = std::move(value);
  n.requires_grad = false;
  nodes_.push_back(std::move(n));
  return Var{static_cast<int32_t>(nodes_.size() - 1)};
}

Var Graph::Leaf(const Tensor& value, Tensor* grad_sink) {
  if (!training_) return Constant(value);
  FEDDA_CHECK(grad_sink != nullptr);
  FEDDA_CHECK(grad_sink->SameShape(value))
      << "grad sink shape mismatch for leaf";
  Node n;
  n.value = value;
  n.grad_sink = grad_sink;
  n.requires_grad = true;
  nodes_.push_back(std::move(n));
  return Var{static_cast<int32_t>(nodes_.size() - 1)};
}

Var Graph::AddNode(Tensor value, std::vector<Var> inputs, BackwardFn backward,
                   bool requires_grad) {
  Node n;
  n.value = std::move(value);
  if (training_ && requires_grad) {
    n.inputs = std::move(inputs);
    n.backward = std::move(backward);
    n.requires_grad = true;
  }
  nodes_.push_back(std::move(n));
  return Var{static_cast<int32_t>(nodes_.size() - 1)};
}

void Graph::Backward(Var loss) {
  obs::ScopedSpan span(tracer_, "backward");
  FEDDA_CHECK(training_) << "Backward on an inference graph";
  FEDDA_CHECK(!backward_done_) << "Backward called twice on one tape";
  backward_done_ = true;
  Node& loss_node = node(loss);
  FEDDA_CHECK_EQ(loss_node.value.rows(), 1);
  FEDDA_CHECK_EQ(loss_node.value.cols(), 1);
  FEDDA_CHECK(loss_node.requires_grad)
      << "loss does not depend on any differentiable leaf";
  loss_node.grad = Tensor::Ones(1, 1);

  for (int32_t id = loss.id; id >= 0; --id) {
    Node& n = nodes_[static_cast<size_t>(id)];
    if (!n.requires_grad || n.grad.empty()) continue;
    if (n.backward) n.backward(this, Var{id});
    if (n.grad_sink != nullptr) n.grad_sink->Add(n.grad);
  }
}

const Tensor& Graph::value(Var v) const { return node(v).value; }

const Tensor& Graph::grad(Var v) const { return node(v).grad; }

Tensor& Graph::mutable_grad(Var v) {
  Node& n = node(v);
  if (n.grad.empty() && n.value.size() > 0) {
    n.grad = Tensor::Zeros(n.value.rows(), n.value.cols());
  }
  return n.grad;
}

bool Graph::requires_grad(Var v) const { return node(v).requires_grad; }

}  // namespace fedda::tensor
