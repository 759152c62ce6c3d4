#include "fl/baselines.h"

namespace fedda::fl {

BaselineResult RunGlobalBaseline(const hgn::SimpleHgn* model,
                                 const graph::HeteroGraph* global_graph,
                                 const std::vector<graph::EdgeId>& train_edges,
                                 const std::vector<graph::EdgeId>& test_edges,
                                 int rounds, const hgn::TrainOptions& options,
                                 const hgn::EvalOptions& eval_options,
                                 tensor::ParameterStore* store, core::Rng* rng,
                                 bool eval_every_round) {
  FEDDA_CHECK_GT(rounds, 0);
  hgn::LinkPredictionTask task(model, global_graph, train_edges);
  core::Rng eval_rng = rng->Split();

  // Centralized training keeps one optimizer across all rounds.
  const std::unique_ptr<tensor::Optimizer> optimizer =
      hgn::MakeOptimizer(options);

  BaselineResult result;
  for (int round = 0; round < rounds; ++round) {
    core::Rng round_rng = rng->Split();
    const double loss =
        task.TrainRound(store, options, &round_rng, optimizer.get());
    if (eval_every_round || round == rounds - 1) {
      const hgn::EvalResult eval = hgn::EvaluateLinkPrediction(
          *model, *global_graph, task.mp(), test_edges, store, eval_options,
          &eval_rng);
      RoundRecord record;
      record.round = round;
      record.auc = eval.auc;
      record.mrr = eval.mrr;
      record.mean_local_loss = loss;
      record.participants = 1;
      result.history.push_back(record);
      result.auc = eval.auc;
      result.mrr = eval.mrr;
    }
  }
  return result;
}

BaselineResult RunLocalBaseline(
    const hgn::SimpleHgn* model, const graph::HeteroGraph* global_graph,
    const std::vector<graph::EdgeId>& test_edges,
    std::vector<std::unique_ptr<Client>>* clients, int rounds,
    const hgn::TrainOptions& options, const hgn::EvalOptions& eval_options,
    core::Rng* rng) {
  FEDDA_CHECK(clients != nullptr && !clients->empty());
  FEDDA_CHECK_GT(rounds, 0);
  const hgn::MpStructure global_mp = model->BuildStructure(*global_graph);
  core::Rng eval_rng = rng->Split();

  BaselineResult result;
  double auc_sum = 0.0, mrr_sum = 0.0;
  for (auto& client : *clients) {
    core::Rng client_rng = rng->Split();
    for (int round = 0; round < rounds; ++round) {
      client->TrainLocalOnly(options, &client_rng);
    }
    const hgn::EvalResult eval = hgn::EvaluateLinkPrediction(
        *model, *global_graph, global_mp, test_edges,
        client->mutable_params(), eval_options, &eval_rng);
    auc_sum += eval.auc;
    mrr_sum += eval.mrr;
  }
  result.auc = auc_sum / static_cast<double>(clients->size());
  result.mrr = mrr_sum / static_cast<double>(clients->size());
  return result;
}

}  // namespace fedda::fl
