#ifndef FEDDA_HGN_LINK_PREDICTION_H_
#define FEDDA_HGN_LINK_PREDICTION_H_

#include <memory>
#include <vector>

#include "core/rng.h"
#include "graph/hetero_graph.h"
#include "graph/sampling.h"
#include "hgn/simple_hgn.h"
#include "hgn/task.h"
#include "tensor/optimizer.h"

namespace fedda::core {
class ThreadPool;
}  // namespace fedda::core

namespace fedda::obs {
class Tracer;
}  // namespace fedda::obs

namespace fedda::hgn {

/// Local-training hyper-parameters (the paper's E, B, eta).
struct TrainOptions {
  /// Local epochs per round (paper E).
  int local_epochs = 1;
  /// Mini-batch size over target edges (paper B); 0 = full batch.
  int64_t batch_size = 0;
  /// Paper Sec. 6.1: learning rate 0.0005.
  float learning_rate = 5e-4f;
  float weight_decay = 0.0f;
  /// Ego-graph training (paper Sec. 3's H_i(v) formulation): when > 0,
  /// every mini-batch encodes only the sampled `ego_hops`-hop neighborhood
  /// of the batch's endpoints instead of the whole local graph — the
  /// GraphSAGE-style path to graphs too large for full-graph message
  /// passing. Set it to the model's layer count for exactness (with
  /// ego_fanout = 0) or fewer/capped for speed.
  int ego_hops = 0;
  /// Neighbors sampled per node per hop in ego mode (0 = all).
  int ego_fanout = 0;
  /// Optional borrowed compute pool for row-level kernel parallelism inside
  /// the forward/backward passes. Null = sequential. Results are
  /// bit-identical either way (see tensor::Graph::set_pool).
  core::ThreadPool* pool = nullptr;
  /// Optional span sink for per-kernel timing (forwarded to
  /// tensor::Graph::set_tracer). Null disables; tracing never perturbs
  /// numeric results.
  obs::Tracer* tracer = nullptr;
};

/// The local optimizer: Adam (beta1 0.9, beta2 0.999, eps 1e-8) with
/// `options.learning_rate` and `options.weight_decay`.
std::unique_ptr<tensor::Optimizer> MakeOptimizer(const TrainOptions& options);

/// Evaluation protocol knobs.
struct EvalOptions {
  /// Candidate negatives per query for MRR ranking.
  int mrr_negatives = 10;
  /// Cap on evaluated test edges (0 = all); evaluation subsamples
  /// deterministically from `rng` when capped.
  int64_t max_edges = 0;
  /// Optional borrowed compute pool for the inference forward pass; same
  /// contract as TrainOptions::pool.
  core::ThreadPool* pool = nullptr;
  /// Same contract as TrainOptions::tracer.
  obs::Tracer* tracer = nullptr;
};

struct EvalResult {
  double auc = 0.5;
  double mrr = 0.0;
  /// Fraction of test edges ranked in the top half of their candidate list
  /// (k = max(1, mrr_negatives / 2)); shares the MRR candidate sets.
  double hits_at_half = 0.0;
  /// ROC-AUC restricted to test edges of each edge type (index = type id);
  /// -1 marks types with no evaluated edges. This is the diagnostic that
  /// exposes the Non-IID pathology: a model trained on one link type scores
  /// near 0.5 on the others.
  std::vector<double> per_type_auc;
};

/// Link prediction over one graph: binds a SimpleHgn to a (local or global)
/// graph and a set of target edges, and runs local training rounds against
/// any structurally matching ParameterStore. One instance per FL client and
/// one for centralized baselines.
class LinkPredictionTask : public TrainableTask {
 public:
  /// `model` and `graph` must outlive the task. `target_edges` are edge ids
  /// in `graph`'s edge space that serve as positive training examples
  /// (Non-IID clients pass only their specialized types).
  LinkPredictionTask(const SimpleHgn* model, const graph::HeteroGraph* graph,
                     std::vector<graph::EdgeId> target_edges);

  /// Runs `options.local_epochs` epochs of mini-batch training with a fresh
  /// optimizer (FedAvg semantics: optimizer state does not persist across
  /// rounds). Returns the mean batch loss, or 0 with no updates when the
  /// task has no target edges.
  double TrainRound(tensor::ParameterStore* store, const TrainOptions& options,
                    core::Rng* rng) const override;

  /// As above with a caller-managed optimizer (centralized training keeps
  /// Adam moments across epochs).
  double TrainRound(tensor::ParameterStore* store, const TrainOptions& options,
                    core::Rng* rng, tensor::Optimizer* optimizer) const;

  const MpStructure& mp() const { return mp_; }
  const graph::HeteroGraph& graph() const { return *graph_; }
  int64_t num_targets() const {
    return static_cast<int64_t>(target_edges_.size());
  }
  int64_t num_examples() const override { return num_targets(); }

 private:
  const SimpleHgn* model_;
  const graph::HeteroGraph* graph_;
  std::vector<graph::EdgeId> target_edges_;
  MpStructure mp_;
  graph::NegativeSampler sampler_;
};

/// Evaluates link prediction (ROC-AUC over pos/neg pairs, MRR over ranked
/// candidate lists) of the parameters in `store` on `test_edges` of
/// `graph`. Runs one inference forward pass; `store` is not modified.
EvalResult EvaluateLinkPrediction(const SimpleHgn& model,
                                  const graph::HeteroGraph& graph,
                                  const MpStructure& mp,
                                  const std::vector<graph::EdgeId>& test_edges,
                                  tensor::ParameterStore* store,
                                  const EvalOptions& options, core::Rng* rng);

}  // namespace fedda::hgn

#endif  // FEDDA_HGN_LINK_PREDICTION_H_
