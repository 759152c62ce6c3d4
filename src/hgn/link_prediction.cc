#include "hgn/link_prediction.h"

#include <algorithm>

#include "hgn/ego_sampling.h"
#include "metrics/metrics.h"
#include "tensor/ops.h"

namespace fedda::hgn {

using graph::EdgeId;
using tensor::ParameterStore;
using tensor::Tensor;
using tensor::Var;

std::unique_ptr<tensor::Optimizer> MakeOptimizer(const TrainOptions& options) {
  return std::make_unique<tensor::Adam>(options.learning_rate, 0.9f, 0.999f,
                                        1e-8f, options.weight_decay);
}

LinkPredictionTask::LinkPredictionTask(const SimpleHgn* model,
                                       const graph::HeteroGraph* graph,
                                       std::vector<EdgeId> target_edges)
    : model_(model), graph_(graph), target_edges_(std::move(target_edges)),
      mp_(model->BuildStructure(*graph)), sampler_(graph) {
  FEDDA_CHECK(model != nullptr);
  for (EdgeId e : target_edges_) {
    FEDDA_CHECK(e >= 0 && e < graph->num_edges())
        << "target edge outside graph";
  }
}

double LinkPredictionTask::TrainRound(ParameterStore* store,
                                      const TrainOptions& options,
                                      core::Rng* rng) const {
  return TrainRound(store, options, rng, MakeOptimizer(options).get());
}

double LinkPredictionTask::TrainRound(ParameterStore* store,
                                      const TrainOptions& options,
                                      core::Rng* rng,
                                      tensor::Optimizer* optimizer) const {
  if (target_edges_.empty()) return 0.0;
  FEDDA_CHECK_GT(options.local_epochs, 0);

  double total_loss = 0.0;
  int64_t num_batches = 0;
  for (int epoch = 0; epoch < options.local_epochs; ++epoch) {
    for (const auto& batch :
         graph::MakeBatches(target_edges_, options.batch_size, rng)) {
      // Each positive is followed by one corrupted-destination negative.
      std::vector<int32_t> us, vs, ets;
      const size_t total = 2 * batch.size();
      us.reserve(total);
      vs.reserve(total);
      ets.reserve(total);
      Tensor labels(static_cast<int64_t>(total), 1);
      size_t row = 0;
      for (EdgeId e : batch) {
        const int32_t u = graph_->edge_src(e);
        const int32_t v = graph_->edge_dst(e);
        const int32_t t = graph_->edge_type(e);
        us.push_back(u);
        vs.push_back(v);
        ets.push_back(t);
        labels.at(static_cast<int64_t>(row++), 0) = 1.0f;
        us.push_back(u);
        vs.push_back(sampler_.CorruptDst(u, v, static_cast<int16_t>(t), rng));
        ets.push_back(t);
        labels.at(static_cast<int64_t>(row++), 0) = 0.0f;
      }

      store->ZeroGrads();
      tensor::Graph g(/*training=*/true);
      g.set_pool(options.pool);
      g.set_tracer(options.tracer);
      Var embeddings;
      if (options.ego_hops > 0) {
        // Ego-graph path: encode only the sampled neighborhoods of the
        // batch endpoints, then rewrite pair indices into the local space.
        std::vector<graph::NodeId> targets;
        targets.reserve(us.size() * 2);
        for (size_t i = 0; i < us.size(); ++i) {
          targets.push_back(us[i]);
          targets.push_back(vs[i]);
        }
        const EgoSubgraph sub =
            SampleEgoSubgraph(*graph_, *model_, targets, options.ego_hops,
                              options.ego_fanout, rng);
        const std::vector<Tensor> blocks = GatherEgoFeatures(*graph_, sub);
        std::vector<const Tensor*> block_ptrs;
        block_ptrs.reserve(blocks.size());
        for (const Tensor& b : blocks) block_ptrs.push_back(&b);
        embeddings = model_->EncodeBlocks(&g, block_ptrs, sub.mp, store, rng);
        for (size_t i = 0; i < us.size(); ++i) {
          us[i] = sub.target_locals[2 * i];
          vs[i] = sub.target_locals[2 * i + 1];
        }
      } else {
        embeddings = model_->Encode(&g, *graph_, mp_, store, rng);
      }
      Var logits = model_->ScorePairs(&g, embeddings, us, vs, ets, store);
      Var loss = tensor::BceWithLogits(&g, logits, labels);
      g.Backward(loss);
      optimizer->Step(store);

      total_loss += g.value(loss).at(0, 0);
      ++num_batches;
    }
  }
  return num_batches == 0 ? 0.0 : total_loss / static_cast<double>(num_batches);
}

EvalResult EvaluateLinkPrediction(const SimpleHgn& model,
                                  const graph::HeteroGraph& graph,
                                  const MpStructure& mp,
                                  const std::vector<EdgeId>& test_edges,
                                  ParameterStore* store,
                                  const EvalOptions& options, core::Rng* rng) {
  EvalResult result;
  if (test_edges.empty()) return result;

  // One inference forward pass; all scores come from the embedding matrix.
  tensor::Graph g(/*training=*/false);
  g.set_pool(options.pool);
  g.set_tracer(options.tracer);
  Var embeddings_var = model.Encode(&g, graph, mp, store);
  const Tensor& embeddings = g.value(embeddings_var);

  std::vector<EdgeId> eval_edges = test_edges;
  if (options.max_edges > 0 &&
      static_cast<int64_t>(eval_edges.size()) > options.max_edges) {
    std::vector<EdgeId> sampled;
    sampled.reserve(static_cast<size_t>(options.max_edges));
    for (size_t idx : rng->SampleWithoutReplacement(
             eval_edges.size(), static_cast<size_t>(options.max_edges))) {
      sampled.push_back(eval_edges[idx]);
    }
    eval_edges = std::move(sampled);
  }

  graph::NegativeSampler sampler(&graph);
  std::vector<double> scores;
  std::vector<int> labels;
  std::vector<double> reciprocal_ranks;
  std::vector<double> positives_for_hits;
  std::vector<std::vector<double>> candidates_for_hits;
  const size_t num_types = static_cast<size_t>(graph.num_edge_types());
  std::vector<std::vector<double>> type_scores(num_types);
  std::vector<std::vector<int>> type_labels(num_types);
  scores.reserve(2 * eval_edges.size());
  reciprocal_ranks.reserve(eval_edges.size());

  for (EdgeId e : eval_edges) {
    const int32_t u = graph.edge_src(e);
    const int32_t v = graph.edge_dst(e);
    const int32_t t = graph.edge_type(e);
    const size_t ts = static_cast<size_t>(t);
    const double pos = model.ScorePair(embeddings, u, v, t, *store);
    scores.push_back(pos);
    labels.push_back(1);
    type_scores[ts].push_back(pos);
    type_labels[ts].push_back(1);
    // One corrupted-destination negative per positive for ROC-AUC.
    const int32_t auc_neg =
        sampler.CorruptDst(u, v, static_cast<int16_t>(t), rng);
    const double score = model.ScorePair(embeddings, u, auc_neg, t, *store);
    scores.push_back(score);
    labels.push_back(0);
    type_scores[ts].push_back(score);
    type_labels[ts].push_back(0);
    std::vector<double> candidates;
    candidates.reserve(static_cast<size_t>(options.mrr_negatives));
    for (int k = 0; k < options.mrr_negatives; ++k) {
      const int32_t neg =
          sampler.CorruptDst(u, v, static_cast<int16_t>(t), rng);
      candidates.push_back(model.ScorePair(embeddings, u, neg, t, *store));
    }
    reciprocal_ranks.push_back(metrics::ReciprocalRank(pos, candidates));
    positives_for_hits.push_back(pos);
    candidates_for_hits.push_back(std::move(candidates));
  }

  result.auc = metrics::RocAuc(scores, labels);
  result.mrr = metrics::MeanReciprocalRank(reciprocal_ranks);
  result.hits_at_half = metrics::MeanHitsAtK(
      positives_for_hits, candidates_for_hits,
      std::max(1, options.mrr_negatives / 2));
  result.per_type_auc.assign(num_types, -1.0);
  for (size_t t = 0; t < num_types; ++t) {
    const bool has_pos = std::find(type_labels[t].begin(),
                                   type_labels[t].end(), 1) !=
                         type_labels[t].end();
    const bool has_neg = std::find(type_labels[t].begin(),
                                   type_labels[t].end(), 0) !=
                         type_labels[t].end();
    if (has_pos && has_neg) {
      result.per_type_auc[t] = metrics::RocAuc(type_scores[t],
                                               type_labels[t]);
    }
  }
  return result;
}

}  // namespace fedda::hgn
