#include "fl/client.h"

#include <utility>

#include "fl/wire.h"

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

TransportReply Client::RunRound(const tensor::ParameterStore& global,
                                const hgn::TrainOptions& options,
                                double dp_noise_std,
                                const ActivationState* fedda_state,
                                const std::vector<int>& selected_groups,
                                int round, core::Rng* rng) {
  TransportReply reply;
  reply.ok = true;
  reply.loss = Update(global, options, rng);
  PerturbParams(dp_noise_std, rng);
  reply.uplink =
      fedda_state != nullptr
          ? BuildUplinkPayload(*fedda_state, id_, round, store_)
          : BuildDenseUplinkPayload(selected_groups, id_, round, store_);
  return reply;
}

double Client::Update(const tensor::ParameterStore& global,
                      const hgn::TrainOptions& options, core::Rng* rng) {
  store_.CopyValuesFrom(global);
  return TrainLocalOnly(options, rng);
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
