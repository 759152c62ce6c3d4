// Microbenchmarks for Simple-HGN forward/backward and federated rounds.
// The encode and train-round benchmarks carry a dispatch column: the same
// workload under forced-scalar kernels and under the best-available SIMD
// path, so the end-to-end win of the dispatched kernel layer is measured
// where it matters, not just in isolated kernel loops.

#include <benchmark/benchmark.h>

#include "fl/experiment.h"
#include "tensor/kernels/kernels.h"

namespace fedda::hgn {
namespace {

namespace k = ::fedda::tensor::kernels;

/// Forces the dispatch mode for one benchmark run.
class ScopedDispatch {
 public:
  explicit ScopedDispatch(k::DispatchMode mode) : saved_(k::dispatch_mode()) {
    k::SetDispatchMode(mode);
  }
  ~ScopedDispatch() { k::SetDispatchMode(saved_); }

 private:
  k::DispatchMode saved_;
};

fl::FederatedSystem* BuildSystem(int clients) {
  fl::SystemConfig config;
  config.data = data::AmazonSpec(0.03);
  config.partition.num_clients = clients;
  config.model.hidden_dim = 16;
  config.seed = 3;
  return new fl::FederatedSystem(fl::FederatedSystem::Build(config));
}

void BM_EncodeForward(benchmark::State& state, k::DispatchMode mode) {
  ScopedDispatch dispatch(mode);
  static fl::FederatedSystem* system = BuildSystem(4);
  tensor::ParameterStore store = system->MakeInitialStore(1);
  const MpStructure mp = system->model().BuildStructure(system->global());
  for (auto _ : state) {
    tensor::Graph g(false);
    benchmark::DoNotOptimize(
        system->model().Encode(&g, system->global(), mp, &store));
  }
  state.SetItemsProcessed(state.iterations() * system->global().num_edges());
}
BENCHMARK_CAPTURE(BM_EncodeForward, dispatch_scalar,
                  k::DispatchMode::kScalar);
BENCHMARK_CAPTURE(BM_EncodeForward, dispatch_auto, k::DispatchMode::kAuto);

void BM_TrainRoundFullBatch(benchmark::State& state, k::DispatchMode mode) {
  ScopedDispatch dispatch(mode);
  static fl::FederatedSystem* system = BuildSystem(4);
  tensor::ParameterStore store = system->MakeInitialStore(1);
  LinkPredictionTask task(&system->model(), &system->global(),
                          system->train_edges());
  TrainOptions options;
  options.local_epochs = 1;
  core::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(task.TrainRound(&store, options, &rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(system->train_edges().size()));
}
BENCHMARK_CAPTURE(BM_TrainRoundFullBatch, dispatch_scalar,
                  k::DispatchMode::kScalar);
BENCHMARK_CAPTURE(BM_TrainRoundFullBatch, dispatch_auto,
                  k::DispatchMode::kAuto);

void BM_Evaluate(benchmark::State& state) {
  static fl::FederatedSystem* system = BuildSystem(4);
  tensor::ParameterStore store = system->MakeInitialStore(1);
  const MpStructure mp = system->model().BuildStructure(system->global());
  EvalOptions options;
  options.max_edges = 256;
  core::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EvaluateLinkPrediction(system->model(), system->global(), mp,
                               system->test_edges(), &store, options, &rng));
  }
}
BENCHMARK(BM_Evaluate);

void BM_FederatedRound(benchmark::State& state) {
  // One full FedDA round (broadcast + M local updates + aggregation),
  // amortized: run 1-round experiments.
  static fl::FederatedSystem* system = BuildSystem(
      static_cast<int>(4));
  fl::FlOptions options;
  options.algorithm = fl::FlAlgorithm::kFedDaExplore;
  options.rounds = 1;
  options.eval_every_round = false;
  options.eval.max_edges = 1;
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fl::RunFederated(*system, options, seed++));
  }
}
BENCHMARK(BM_FederatedRound);

}  // namespace
}  // namespace fedda::hgn

BENCHMARK_MAIN();
