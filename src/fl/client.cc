#include "fl/client.h"

#include <utility>

namespace fedda::fl {

Client::Client(int id, const hgn::SimpleHgn* model,
               graph::HeteroGraph local_graph,
               std::vector<graph::EdgeId> local_task_edges,
               const tensor::ParameterStore& reference_store)
    : id_(id),
      local_graph_(
          std::make_unique<graph::HeteroGraph>(std::move(local_graph))),
      store_(reference_store) {
  task_ = std::make_unique<hgn::LinkPredictionTask>(
      model, local_graph_.get(), std::move(local_task_edges));
  store_.ZeroGrads();
}

Client::Client(int id, std::unique_ptr<hgn::TrainableTask> task,
               const tensor::ParameterStore& reference_store)
    : id_(id), task_(std::move(task)), store_(reference_store) {
  FEDDA_CHECK(task_ != nullptr);
  store_.ZeroGrads();
}

double Client::Update(const tensor::ParameterStore& global,
                      const hgn::TrainOptions& options, core::Rng* rng) {
  if (store_.num_groups() == 0) {
    // Re-materialize after TakeUpdate(): a full copy carries the same
    // values CopyValuesFrom would have written, and ZeroGrads restores the
    // constructor's gradient state.
    store_ = global;
    store_.ZeroGrads();
  } else {
    store_.CopyValuesFrom(global);
  }
  return TrainLocalOnly(options, rng);
}

tensor::ParameterStore Client::TakeUpdate() {
  FEDDA_CHECK_GT(store_.num_groups(), 0) << "update already taken";
  tensor::ParameterStore update = std::move(store_);
  store_ = tensor::ParameterStore();
  return update;
}

void Client::PerturbParams(double noise_std, core::Rng* rng) {
  if (!(noise_std > 0.0)) return;
  for (int gid = 0; gid < store_.num_groups(); ++gid) {
    tensor::Tensor& value = store_.value(gid);
    for (int64_t k = 0; k < value.size(); ++k) {
      value.data()[k] += static_cast<float>(rng->Gaussian(0.0, noise_std));
    }
  }
}

double Client::TrainLocalOnly(const hgn::TrainOptions& options,
                              core::Rng* rng) {
  return task_->TrainRound(&store_, options, rng);
}

}  // namespace fedda::fl
