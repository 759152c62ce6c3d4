#include "hgn/node_classification.h"

#include <algorithm>

#include "tensor/ops.h"

namespace fedda::hgn {

using graph::NodeId;
using tensor::ParameterStore;
using tensor::Tensor;
using tensor::Var;

NodeClassificationTask::NodeClassificationTask(
    const SimpleHgn* model, const graph::HeteroGraph* graph,
    std::vector<int32_t> labels, std::vector<NodeId> train_nodes,
    int num_classes)
    : model_(model), graph_(graph), labels_(std::move(labels)),
      train_nodes_(std::move(train_nodes)), num_classes_(num_classes),
      mp_(model->BuildStructure(*graph)) {
  FEDDA_CHECK_GT(num_classes, 1);
  FEDDA_CHECK_EQ(static_cast<int64_t>(labels_.size()), graph->num_nodes());
  for (int32_t label : labels_) {
    FEDDA_CHECK(label >= 0 && label < num_classes) << "label out of range";
  }
  for (NodeId v : train_nodes_) {
    FEDDA_CHECK(v >= 0 && v < graph->num_nodes()) << "train node out of range";
  }
}

void NodeClassificationTask::InitHeadParameters(ParameterStore* store,
                                                core::Rng* rng) {
  const int existing = store->FindByName("head/W");
  if (existing >= 0) {
    // Store already carries a head (e.g. copied from a reference store);
    // just record the ids.
    head_w_id_ = existing;
    head_b_id_ = store->FindByName("head/b");
    FEDDA_CHECK_GE(head_b_id_, 0);
    return;
  }
  head_w_id_ = store->Register(
      "head/W",
      Tensor::GlorotUniform(model_->out_dim(), num_classes_, rng));
  head_b_id_ = store->Register("head/b", Tensor::Zeros(1, num_classes_));
}

Var NodeClassificationTask::Logits(tensor::Graph* g, Var embeddings,
                                   const std::vector<int32_t>& nodes,
                                   ParameterStore* store) const {
  FEDDA_CHECK_GE(head_w_id_, 0) << "InitHeadParameters not called";
  auto param = [&](int id) {
    return g->training() ? g->Leaf(store->value(id), &store->grad(id))
                         : g->Constant(store->value(id));
  };
  Var gathered =
      tensor::GatherRows(g, embeddings, tensor::MakeIndices(
                                            std::vector<int32_t>(nodes)));
  return tensor::AddBias(g, tensor::MatMul(g, gathered, param(head_w_id_)),
                         param(head_b_id_));
}

double NodeClassificationTask::TrainRound(ParameterStore* store,
                                          const TrainOptions& options,
                                          core::Rng* rng) const {
  if (train_nodes_.empty()) return 0.0;
  FEDDA_CHECK_GT(options.local_epochs, 0);
  const std::unique_ptr<tensor::Optimizer> optimizer = MakeOptimizer(options);

  double total_loss = 0.0;
  int64_t num_batches = 0;
  for (int epoch = 0; epoch < options.local_epochs; ++epoch) {
    // Reuse the edge batcher over node ids.
    std::vector<graph::EdgeId> ids(train_nodes_.begin(), train_nodes_.end());
    for (const auto& batch :
         graph::MakeBatches(ids, options.batch_size, rng)) {
      std::vector<int32_t> nodes;
      auto batch_labels = std::make_shared<std::vector<int32_t>>();
      nodes.reserve(batch.size());
      batch_labels->reserve(batch.size());
      for (graph::EdgeId v : batch) {
        nodes.push_back(static_cast<int32_t>(v));
        batch_labels->push_back(labels_[static_cast<size_t>(v)]);
      }

      store->ZeroGrads();
      tensor::Graph g(/*training=*/true);
      g.set_pool(options.pool);
      g.set_tracer(options.tracer);
      Var embeddings = model_->Encode(&g, *graph_, mp_, store);
      Var logits = Logits(&g, embeddings, nodes, store);
      Var loss = tensor::SoftmaxCrossEntropy(&g, logits, batch_labels);
      g.Backward(loss);
      optimizer->Step(store);

      total_loss += g.value(loss).at(0, 0);
      ++num_batches;
    }
  }
  return num_batches == 0 ? 0.0
                          : total_loss / static_cast<double>(num_batches);
}

NodeClassificationTask::Result NodeClassificationTask::Evaluate(
    ParameterStore* store, const std::vector<NodeId>& eval_nodes) const {
  Result result;
  if (eval_nodes.empty()) return result;
  FEDDA_CHECK_GE(head_w_id_, 0) << "InitHeadParameters not called";

  tensor::Graph g(/*training=*/false);
  const Tensor& embeddings =
      g.value(model_->Encode(&g, *graph_, mp_, store));
  const Tensor& w = store->value(head_w_id_);
  const Tensor& b = store->value(head_b_id_);

  const size_t c = static_cast<size_t>(num_classes_);
  std::vector<int64_t> true_positive(c, 0), false_positive(c, 0),
      false_negative(c, 0), support(c, 0);
  int64_t correct = 0;
  for (NodeId v : eval_nodes) {
    // argmax over emb[v] * W + b.
    int best = 0;
    double best_score = -1e30;
    for (int j = 0; j < num_classes_; ++j) {
      double score = b.at(0, j);
      for (int64_t d = 0; d < embeddings.cols(); ++d) {
        score += static_cast<double>(embeddings.at(v, d)) * w.at(d, j);
      }
      if (score > best_score) {
        best_score = score;
        best = j;
      }
    }
    const int truth = labels_[static_cast<size_t>(v)];
    ++support[static_cast<size_t>(truth)];
    if (best == truth) {
      ++correct;
      ++true_positive[static_cast<size_t>(truth)];
    } else {
      ++false_positive[static_cast<size_t>(best)];
      ++false_negative[static_cast<size_t>(truth)];
    }
  }
  result.accuracy =
      static_cast<double>(correct) / static_cast<double>(eval_nodes.size());

  double f1_sum = 0.0;
  int64_t f1_classes = 0;
  for (size_t j = 0; j < c; ++j) {
    if (support[j] == 0) continue;
    const double tp = static_cast<double>(true_positive[j]);
    const double precision_denominator =
        tp + static_cast<double>(false_positive[j]);
    const double recall_denominator =
        tp + static_cast<double>(false_negative[j]);
    const double precision =
        precision_denominator > 0 ? tp / precision_denominator : 0.0;
    const double recall =
        recall_denominator > 0 ? tp / recall_denominator : 0.0;
    f1_sum += precision + recall > 0
                  ? 2.0 * precision * recall / (precision + recall)
                  : 0.0;
    ++f1_classes;
  }
  result.macro_f1 =
      f1_classes > 0 ? f1_sum / static_cast<double>(f1_classes) : 0.0;
  return result;
}

NodeSplit SplitNodes(int64_t num_nodes, double eval_fraction,
                     core::Rng* rng) {
  FEDDA_CHECK(eval_fraction >= 0.0 && eval_fraction < 1.0);
  std::vector<NodeId> ids(static_cast<size_t>(num_nodes));
  for (int64_t v = 0; v < num_nodes; ++v) {
    ids[static_cast<size_t>(v)] = static_cast<NodeId>(v);
  }
  rng->Shuffle(&ids);
  const size_t num_eval = static_cast<size_t>(
      eval_fraction * static_cast<double>(num_nodes) + 0.5);
  NodeSplit split;
  split.eval.assign(ids.begin(), ids.begin() + static_cast<long>(num_eval));
  split.train.assign(ids.begin() + static_cast<long>(num_eval), ids.end());
  std::sort(split.train.begin(), split.train.end());
  std::sort(split.eval.begin(), split.eval.end());
  return split;
}

}  // namespace fedda::hgn
