#ifndef FEDDA_FL_CLIENT_H_
#define FEDDA_FL_CLIENT_H_

#include <memory>
#include <vector>

#include "fl/activation.h"
#include "fl/transport.h"
#include "graph/hetero_graph.h"
#include "hgn/link_prediction.h"
#include "tensor/parameter_store.h"

namespace fedda::fl {

/// One federated client: owns its local sub-heterograph, its task edges
/// (link-prediction targets restricted to its specialized types), and its
/// local copy of the model parameters.
///
/// Clients never expose raw graph data to the runner; the only things that
/// cross the "network" are parameter values (down) and the uplink payload
/// RunRound returns (up).
class Client {
 public:
  /// Link-prediction client (the paper's setting). `model` must outlive the
  /// client; `reference_store` provides the parameter structure.
  /// `local_task_edges` are edge ids in `local_graph`'s own edge space.
  Client(int id, const hgn::SimpleHgn* model, graph::HeteroGraph local_graph,
         std::vector<graph::EdgeId> local_task_edges,
         const tensor::ParameterStore& reference_store);

  /// Generic client over any local objective (e.g. node classification):
  /// the FL protocol only needs a TrainableTask. The task owns whatever
  /// graph/state it trains on.
  Client(int id, std::unique_ptr<hgn::TrainableTask> task,
         const tensor::ParameterStore& reference_store);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// ClientUpdate of Algorithm 1, end to end: Update() on the broadcast
  /// `global`, PerturbParams(`dp_noise_std`), then the uplink payload the
  /// server folds in, encoded under this client's id — masked by
  /// `fedda_state`'s masks for this client (FedDA), or dense over the
  /// ascending `selected_groups` when `fedda_state` is null (FedAvg). The
  /// runner's in-process dispatch and net::RemoteClient both call this, so
  /// a remote reply carries the in-process reply's bytes. The reply is
  /// `ok`; its `rtt_sec` is 0.
  TransportReply RunRound(const tensor::ParameterStore& global,
                          const hgn::TrainOptions& options,
                          double dp_noise_std,
                          const ActivationState* fedda_state,
                          const std::vector<int>& selected_groups, int round,
                          core::Rng* rng);

  /// Replaces local weights with the broadcast global weights, runs E local
  /// epochs of mini-batch training, and leaves the result in params().
  /// Returns the mean local training loss.
  double Update(const tensor::ParameterStore& global,
                const hgn::TrainOptions& options, core::Rng* rng);

  /// Continues training from the current local weights without a broadcast
  /// (used by the Local baseline).
  double TrainLocalOnly(const hgn::TrainOptions& options, core::Rng* rng);

  int id() const { return id_; }
  const tensor::ParameterStore& params() const { return store_; }
  tensor::ParameterStore* mutable_params() { return &store_; }
  /// Only valid for link-prediction clients built from a local graph.
  const graph::HeteroGraph& local_graph() const {
    FEDDA_CHECK(local_graph_ != nullptr) << "client has no owned graph";
    return *local_graph_;
  }
  /// Local training examples (edges or labeled nodes).
  int64_t num_task_edges() const { return task_->num_examples(); }

 private:
  /// Local-DP-style perturbation of the outgoing weights: adds
  /// Gaussian(0, noise_std) to every scalar, drawing from `rng` in group
  /// then scalar order. Draws nothing unless noise_std > 0, so runs without
  /// noise keep their RNG stream.
  void PerturbParams(double noise_std, core::Rng* rng);

  int id_;
  /// Heap-allocated so the task's pointer stays valid (LP clients only).
  std::unique_ptr<graph::HeteroGraph> local_graph_;
  std::unique_ptr<hgn::TrainableTask> task_;
  tensor::ParameterStore store_;
};

}  // namespace fedda::fl

#endif  // FEDDA_FL_CLIENT_H_
