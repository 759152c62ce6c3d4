// Microbenchmarks for the tensor/autograd substrate, plus the dispatched
// kernel speed grid: every kernel × {scalar, auto} dispatch × {1, N}
// threads, registered under "kernel/<kernel>/dispatch:<d>/threads:<n>"
// names and timed on the wall clock (google-benchmark appends "/real_time"
// to each name). google-benchmark's own JSON output records the grid's
// timings: CI
// runs --benchmark_filter='kernel/'
// --benchmark_out=bench_results/kernel_speed.json
// --benchmark_out_format=json and uploads that file as an artifact, so
// scalar-vs-SIMD speedups are tracked per commit.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"
#include "tensor/parameter_store.h"

namespace fedda::tensor {
namespace {

namespace k = ::fedda::tensor::kernels;

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  core::Rng rng(1);
  const Tensor a = Tensor::RandomNormal(n, n, &rng);
  const Tensor b = Tensor::RandomNormal(n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulValue(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_GatherRows(benchmark::State& state) {
  const int64_t rows = state.range(0);
  core::Rng rng(2);
  Graph g(false);
  Var a = g.Constant(Tensor::RandomNormal(rows, 32, &rng));
  std::vector<int32_t> idx(static_cast<size_t>(rows) * 2);
  for (auto& i : idx) {
    i = static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(rows)));
  }
  auto indices = MakeIndices(std::move(idx));
  for (auto _ : state) {
    Graph local(false);
    Var v = local.Constant(g.value(a));
    benchmark::DoNotOptimize(GatherRows(&local, v, indices));
  }
}
BENCHMARK(BM_GatherRows)->Arg(1024)->Arg(8192);

void BM_EdgeSoftmax(benchmark::State& state) {
  const int64_t edges = state.range(0);
  const int64_t nodes = edges / 8;
  constexpr int64_t kTypes = 6;
  core::Rng rng(3);
  const Tensor s_src = Tensor::RandomNormal(nodes, 1, &rng);
  const Tensor s_dst = Tensor::RandomNormal(nodes, 1, &rng);
  const Tensor s_edge = Tensor::RandomNormal(kTypes, 1, &rng);
  std::vector<int32_t> src(static_cast<size_t>(edges));
  std::vector<int32_t> dst(static_cast<size_t>(edges));
  std::vector<int32_t> etype(static_cast<size_t>(edges));
  for (size_t e = 0; e < src.size(); ++e) {
    src[e] = static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(nodes)));
    dst[e] = static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(nodes)));
    etype[e] = static_cast<int32_t>(rng.UniformInt(uint64_t{kTypes}));
  }
  auto srcs = MakeIndices(std::move(src));
  auto dsts = MakeIndices(std::move(dst));
  auto etypes = MakeIndices(std::move(etype));
  for (auto _ : state) {
    Graph g(false);
    benchmark::DoNotOptimize(EdgeSoftmax(
        &g, g.Constant(s_src), g.Constant(s_dst), g.Constant(s_edge), srcs,
        dsts, etypes, 0.2f, nodes));
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_EdgeSoftmax)->Arg(4096)->Arg(32768);

void BM_ForwardBackwardMlp(benchmark::State& state) {
  // Two-layer MLP forward+backward through the tape: measures the autograd
  // overhead relative to raw matmuls.
  const int64_t n = state.range(0);
  core::Rng rng(4);
  ParameterStore store;
  const int w1 = store.Register("w1", Tensor::GlorotUniform(64, 64, &rng));
  const int w2 = store.Register("w2", Tensor::GlorotUniform(64, 1, &rng));
  const Tensor x = Tensor::RandomNormal(n, 64, &rng);
  const Tensor y = Tensor::RandomNormal(n, 1, &rng);
  for (auto _ : state) {
    store.ZeroGrads();
    Graph g(true);
    Var h = Tanh(&g, MatMul(&g, g.Constant(x),
                            g.Leaf(store.value(w1), &store.grad(w1))));
    Var pred = MatMul(&g, h, g.Leaf(store.value(w2), &store.grad(w2)));
    Var err = Sub(&g, pred, g.Constant(y));
    Var loss = Mean(&g, Mul(&g, err, err));
    g.Backward(loss);
    benchmark::DoNotOptimize(store.grad(w1).data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ForwardBackwardMlp)->Arg(256)->Arg(2048);

void BM_RowL2Normalize(benchmark::State& state) {
  const int64_t rows = state.range(0);
  core::Rng rng(5);
  const Tensor x = Tensor::RandomNormal(rows, 64, &rng);
  for (auto _ : state) {
    Graph g(false);
    benchmark::DoNotOptimize(RowL2Normalize(&g, g.Constant(x)));
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_RowL2Normalize)->Arg(4096);

// ---------------------------------------------------------------------------
// Dispatched kernel speed grid ("kernel/..." names)
// ---------------------------------------------------------------------------

constexpr int kGridThreads = 4;  // the "N-thread" row of the grid

/// Forces one dispatch mode for the duration of a benchmark run.
class ScopedDispatch {
 public:
  explicit ScopedDispatch(k::DispatchMode mode) : saved_(k::dispatch_mode()) {
    k::SetDispatchMode(mode);
  }
  ~ScopedDispatch() { k::SetDispatchMode(saved_); }

 private:
  k::DispatchMode saved_;
};

/// MatMul of an M x K by a K x N matrix.
template <int64_t M, int64_t K, int64_t N>
void KernelMatMul(benchmark::State& state, k::DispatchMode mode,
                  int threads) {
  ScopedDispatch dispatch(mode);
  std::unique_ptr<core::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<core::ThreadPool>(threads);
  core::Rng rng(11);
  const Tensor a = Tensor::RandomNormal(M, K, &rng);
  const Tensor b = Tensor::RandomNormal(K, N, &rng);
  Tensor out(M, N);
  for (auto _ : state) {
    out.Fill(0.0f);
    k::MatMul(a.data(), b.data(), out.data(), M, K, N, pool.get());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * M * K * N);
}

// A DBLP client of the benchmark's Simple-HGN (hidden 16, 3 heads, scale
// 0.008) has 925 node rows. Its forward runs 925x48x16 projections and
// 925x16x1 attention scores, and its MatMul backward the matching weight
// gradients hᵀ·dY (48x925x16) and input gradients dY·Wᵀ. The 4096-row
// backward cases predate those shapes and keep their names, so the grid's
// history stays comparable; so does 128³, the only case 64 or more
// columns wide.
constexpr int64_t kBackwardNodes = 4096, kBackwardIn = 48, kBackwardOut = 16;

/// MatMulAtB: out (M x N) = hᵀ·dY with h stored K x M.
template <int64_t M, int64_t K, int64_t N>
void KernelMatMulAtB(benchmark::State& state, k::DispatchMode mode,
                     int threads) {
  ScopedDispatch dispatch(mode);
  std::unique_ptr<core::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<core::ThreadPool>(threads);
  core::Rng rng(14);
  const Tensor h = Tensor::RandomNormal(K, M, &rng);
  const Tensor dy = Tensor::RandomNormal(K, N, &rng);
  Tensor out(M, N);
  for (auto _ : state) {
    out.Fill(0.0f);
    k::MatMulAtB(h.data(), dy.data(), out.data(), M, K, N, pool.get());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * M * K * N);
}

void KernelMatMulABt(benchmark::State& state, k::DispatchMode mode,
                     int threads) {
  ScopedDispatch dispatch(mode);
  std::unique_ptr<core::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<core::ThreadPool>(threads);
  core::Rng rng(15);
  const Tensor dy = Tensor::RandomNormal(kBackwardNodes, kBackwardOut, &rng);
  const Tensor w = Tensor::RandomNormal(kBackwardIn, kBackwardOut, &rng);
  Tensor out(kBackwardNodes, kBackwardIn);
  for (auto _ : state) {
    out.Fill(0.0f);
    k::MatMulABt(dy.data(), w.data(), out.data(), kBackwardNodes,
                 kBackwardOut, kBackwardIn, pool.get());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBackwardNodes * kBackwardIn *
                          kBackwardOut);
}

// EdgeAggregate at one client head's shape in the benchmark's Simple-HGN:
// 925 node rows, 8192 edges, 16 columns.
constexpr int64_t kAggRows = 925, kAggEdges = 8192, kAggCols = 16;

/// Seeded edge endpoints in [0, kAggRows).
std::vector<int32_t> AggEndpoints(core::Rng* rng) {
  std::vector<int32_t> ids(static_cast<size_t>(kAggEdges));
  for (auto& i : ids) {
    i = static_cast<int32_t>(rng->UniformInt(static_cast<uint64_t>(kAggRows)));
  }
  return ids;
}

/// The EdgeAggregate forward: a weighted gather-sum grouped by destination.
void KernelEdgeAggregate(benchmark::State& state, k::DispatchMode mode,
                         int threads) {
  ScopedDispatch dispatch(mode);
  std::unique_ptr<core::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<core::ThreadPool>(threads);
  core::Rng rng(16);
  const Tensor x = Tensor::RandomNormal(kAggRows, kAggCols, &rng);
  const Tensor w = Tensor::RandomNormal(kAggEdges, 1, &rng);
  const std::vector<int32_t> src = AggEndpoints(&rng);
  const std::vector<int32_t> dst = AggEndpoints(&rng);
  const k::Csr by_dst = k::BuildCsr(dst, kAggRows);
  Tensor out(kAggRows, kAggCols);
  for (auto _ : state) {
    out.Fill(0.0f);
    k::WeightedGatherSum(x.data(), src.data(), w.data(), by_dst, kAggCols,
                         out.data(), pool.get());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kAggEdges * kAggCols);
}

/// The EdgeAggregate backward: the input gradient (a weighted gather-sum
/// grouped by source) and the weight gradient (IndexedRowDot).
void KernelEdgeAggregateGrad(benchmark::State& state, k::DispatchMode mode,
                             int threads) {
  ScopedDispatch dispatch(mode);
  std::unique_ptr<core::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<core::ThreadPool>(threads);
  core::Rng rng(17);
  const Tensor x = Tensor::RandomNormal(kAggRows, kAggCols, &rng);
  const Tensor w = Tensor::RandomNormal(kAggEdges, 1, &rng);
  const Tensor dy = Tensor::RandomNormal(kAggRows, kAggCols, &rng);
  const std::vector<int32_t> src = AggEndpoints(&rng);
  const std::vector<int32_t> dst = AggEndpoints(&rng);
  const k::Csr by_src = k::BuildCsr(src, kAggRows);
  Tensor dx(kAggRows, kAggCols);
  Tensor dw(kAggEdges, 1);
  for (auto _ : state) {
    dx.Fill(0.0f);
    dw.Fill(0.0f);
    k::WeightedGatherSum(dy.data(), dst.data(), w.data(), by_src, kAggCols,
                         dx.data(), pool.get());
    k::IndexedRowDot(x.data(), src.data(), dy.data(), dst.data(), dw.data(),
                     kAggEdges, kAggCols, pool.get());
    benchmark::DoNotOptimize(dx.data());
    benchmark::DoNotOptimize(dw.data());
  }
  state.SetItemsProcessed(state.iterations() * kAggEdges * kAggCols);
}

void KernelGather(benchmark::State& state, k::DispatchMode mode,
                  int threads) {
  ScopedDispatch dispatch(mode);
  std::unique_ptr<core::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<core::ThreadPool>(threads);
  const int64_t rows = 8192, cols = 64, n_idx = 16384;
  core::Rng rng(12);
  const Tensor src = Tensor::RandomNormal(rows, cols, &rng);
  std::vector<int32_t> idx(static_cast<size_t>(n_idx));
  for (auto& i : idx) {
    i = static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(rows)));
  }
  Tensor out(n_idx, cols);
  for (auto _ : state) {
    k::GatherRows(src.data(), idx.data(), n_idx, cols, out.data(),
                  pool.get());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n_idx * cols);
}

// EdgeSoftmax at the same client head's shape, over the 6 edge types of
// the DBLP schema (5 relations plus the self loop).
constexpr int64_t kAttnTypes = 6;

/// The EdgeSoftmax forward: the attention logits, then their per-
/// destination softmax.
void KernelEdgeSoftmax(benchmark::State& state, k::DispatchMode mode,
                       int threads) {
  ScopedDispatch dispatch(mode);
  std::unique_ptr<core::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<core::ThreadPool>(threads);
  core::Rng rng(13);
  const Tensor s_src = Tensor::RandomNormal(kAggRows, 1, &rng);
  const Tensor s_dst = Tensor::RandomNormal(kAggRows, 1, &rng);
  const Tensor s_edge = Tensor::RandomNormal(kAttnTypes, 1, &rng);
  const std::vector<int32_t> src = AggEndpoints(&rng);
  const std::vector<int32_t> dst = AggEndpoints(&rng);
  std::vector<int32_t> etype(static_cast<size_t>(kAggEdges));
  for (auto& t : etype) {
    t = static_cast<int32_t>(rng.UniformInt(uint64_t{kAttnTypes}));
  }
  const k::Csr by_dst = k::BuildCsr(dst, kAggRows);
  std::vector<float> pre(static_cast<size_t>(kAggEdges));
  std::vector<float> logits(static_cast<size_t>(kAggEdges));
  Tensor alpha(kAggEdges, 1);
  for (auto _ : state) {
    k::EdgeAttentionLogits(s_src.data(), s_dst.data(), s_edge.data(),
                           src.data(), dst.data(), etype.data(), 0.2f,
                           pre.data(), logits.data(), kAggEdges, pool.get());
    k::SegmentSoftmax(logits.data(), by_dst, alpha.data(), pool.get());
    benchmark::DoNotOptimize(pre.data());
    benchmark::DoNotOptimize(alpha.data());
  }
  state.SetItemsProcessed(state.iterations() * kAggEdges);
}

/// The EdgeSoftmax backward: the softmax gradient, the LeakyReLU
/// derivative (an elementwise loop in the op), and one scatter into each
/// score column.
void KernelEdgeSoftmaxGrad(benchmark::State& state, k::DispatchMode mode,
                           int threads) {
  ScopedDispatch dispatch(mode);
  std::unique_ptr<core::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<core::ThreadPool>(threads);
  core::Rng rng(18);
  const Tensor pre = Tensor::RandomNormal(kAggEdges, 1, &rng);
  const Tensor dy = Tensor::RandomNormal(kAggEdges, 1, &rng);
  const std::vector<int32_t> src = AggEndpoints(&rng);
  const std::vector<int32_t> dst = AggEndpoints(&rng);
  std::vector<int32_t> etype(static_cast<size_t>(kAggEdges));
  for (auto& t : etype) {
    t = static_cast<int32_t>(rng.UniformInt(uint64_t{kAttnTypes}));
  }
  const k::Csr by_src = k::BuildCsr(src, kAggRows);
  const k::Csr by_dst = k::BuildCsr(dst, kAggRows);
  const k::Csr by_type = k::BuildCsr(etype, kAttnTypes);
  Tensor alpha(kAggEdges, 1);
  k::SegmentSoftmax(pre.data(), by_dst, alpha.data(), nullptr);
  std::vector<float> dl(static_cast<size_t>(kAggEdges));
  Tensor ds_src(kAggRows, 1), ds_dst(kAggRows, 1), ds_edge(kAttnTypes, 1);
  for (auto _ : state) {
    std::fill(dl.begin(), dl.end(), 0.0f);
    ds_src.Fill(0.0f);
    ds_dst.Fill(0.0f);
    ds_edge.Fill(0.0f);
    k::SegmentSoftmaxGrad(alpha.data(), dy.data(), by_dst, dl.data(),
                          pool.get());
    for (int64_t e = 0; e < kAggEdges; ++e) {
      dl[e] *= pre.data()[e] > 0.0f ? 1.0f : 0.2f;
    }
    k::ScatterAddRows(dl.data(), by_type, 1, ds_edge.data(), pool.get());
    k::ScatterAddRows(dl.data(), by_dst, 1, ds_dst.data(), pool.get());
    k::ScatterAddRows(dl.data(), by_src, 1, ds_src.data(), pool.get());
    benchmark::DoNotOptimize(ds_src.data());
    benchmark::DoNotOptimize(ds_dst.data());
    benchmark::DoNotOptimize(ds_edge.data());
  }
  state.SetItemsProcessed(state.iterations() * kAggEdges);
}

void RegisterKernelGrid() {
  const struct {
    const char* name;
    void (*fn)(benchmark::State&, k::DispatchMode, int);
  } kernels[] = {
      {"matmul", KernelMatMul<128, 128, 128>},
      {"matmul_925x48x16", KernelMatMul<925, 48, 16>},
      {"matmul_925x16x1", KernelMatMul<925, 16, 1>},
      {"matmul_at_b",
       KernelMatMulAtB<kBackwardIn, kBackwardNodes, kBackwardOut>},
      {"matmul_at_b_48x925x16", KernelMatMulAtB<48, 925, 16>},
      {"matmul_a_bt", KernelMatMulABt},
      {"edge_aggregate", KernelEdgeAggregate},
      {"edge_aggregate_grad", KernelEdgeAggregateGrad},
      {"edge_softmax", KernelEdgeSoftmax},
      {"edge_softmax_grad", KernelEdgeSoftmaxGrad},
      {"gather", KernelGather}};
  const struct {
    const char* name;
    k::DispatchMode mode;
  } dispatches[] = {{"scalar", k::DispatchMode::kScalar},
                    {"auto", k::DispatchMode::kAuto}};
  for (const auto& kernel : kernels) {
    for (const auto& dispatch : dispatches) {
      for (int threads : {1, kGridThreads}) {
        const std::string name = std::string("kernel/") + kernel.name +
                                 "/dispatch:" + dispatch.name +
                                 "/threads:" + std::to_string(threads);
        auto* fn = kernel.fn;
        const k::DispatchMode mode = dispatch.mode;
        // Wall time: the main thread's CPU time leaves out the pool
        // helpers' work, so it would overstate every pooled rate.
        benchmark::RegisterBenchmark(
            name.c_str(), [fn, mode, threads](benchmark::State& state) {
              fn(state, mode, threads);
            })->UseRealTime();
      }
    }
  }
}

}  // namespace
}  // namespace fedda::tensor

int main(int argc, char** argv) {
  fedda::tensor::RegisterKernelGrid();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
