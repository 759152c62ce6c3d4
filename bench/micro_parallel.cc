// Measures what the shared thread pool buys: sequential (worker_threads=0)
// vs pooled (--threads, default 4) wall-clock for the parallelized kernels
// and for a full federated round, at the bench-default system size. Every
// pooled kernel is bit-identical to its sequential counterpart (asserted by
// tests), so this bench reports pure wall-clock, not a quality trade-off.
//
// A fixed-work pool round trip comes first: one ParallelForRange over 12
// one-index chunks of dependent arithmetic (tens of microseconds each, a
// kernel chunk's size), timed per call, with the number of calls whose
// chunks all ran on one thread. It shows whether waking the workers spreads
// the work at all on the machine it runs on, before any kernel's grain
// comes into it.
//
// Note: on a single-core machine the pooled numbers include scheduling
// overhead with no parallel speedup; run on >= --threads physical cores to
// see the intended effect.

#include <algorithm>
#include <functional>
#include <iostream>
#include <thread>

#include "bench/bench_common.h"
#include "core/csv_writer.h"
#include "core/string_util.h"
#include "core/table_printer.h"
#include "core/thread_pool.h"
#include "core/timer.h"

namespace fedda::bench {
namespace {

/// Best-of-`reps` milliseconds for `fn` after one warmup call.
double BestMillis(int reps, const std::function<void()>& fn) {
  fn();  // warmup: first call pays allocation / page-fault costs
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    core::WallTimer timer;
    fn();
    const double ms = timer.ElapsedMillis();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

/// Dependent multiply-adds: fixed work the compiler cannot vectorize or
/// drop, since the result is stored.
double Spin(int64_t iters, double x) {
  for (int64_t i = 0; i < iters; ++i) x = x * 0.9999999 + 1e-7;
  return x;
}

struct RoundTrip {
  double median_us = 0.0;
  int single_thread_calls = 0;
};

/// `calls` timed calls (after one warmup) of ParallelForRange over 12
/// one-index chunks of Spin; a null pool runs them inline.
RoundTrip MeasureRoundTrip(core::ThreadPool* pool, int calls) {
  constexpr int64_t kChunks = 12;
  constexpr int64_t kSpinIters = 8192;
  std::vector<double> out(kChunks);
  std::vector<std::thread::id> ran_on(kChunks);
  std::vector<double> micros;
  RoundTrip result;
  for (int call = 0; call <= calls; ++call) {
    core::WallTimer timer;
    core::ParallelForRange(pool, kChunks, 1, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        const auto slot = static_cast<size_t>(i);
        out[slot] = Spin(kSpinIters, static_cast<double>(i));
        ran_on[slot] = std::this_thread::get_id();
      }
    });
    const double us = timer.ElapsedSeconds() * 1e6;
    if (call == 0) continue;
    micros.push_back(us);
    if (std::all_of(ran_on.begin(), ran_on.end(),
                    [&](std::thread::id id) { return id == ran_on[0]; })) {
      ++result.single_thread_calls;
    }
  }
  FEDDA_CHECK_GT(out[kChunks - 1], 0.0);
  std::nth_element(micros.begin(), micros.begin() + calls / 2, micros.end());
  result.median_us = micros[static_cast<size_t>(calls / 2)];
  return result;
}

int Main(int argc, char** argv) {
  // The bench-default system (Amazon 0.03, hidden 16, M=4) used by the
  // micro_hgn suite, so numbers are comparable; --dataset overrides it.
  CommonFlags flags;
  flags.dataset = "amazon";
  flags.threads = 4;
  int reps = 5;
  core::FlagParser parser;
  parser.AddInt("reps", &reps, "timed repetitions per kernel (best-of)");
  flags.Register(&parser);
  const core::Status status = parser.Parse(argc, argv);
  if (!status.ok()) {
    return status.code() == core::StatusCode::kFailedPrecondition ? 0 : 1;
  }
  FEDDA_CHECK_GT(flags.threads, 0) << "--threads must be positive here";

  core::ThreadPool pool(flags.threads);

  constexpr int kRoundTripCalls = 500;
  const RoundTrip seq_trip = MeasureRoundTrip(nullptr, kRoundTripCalls);
  const RoundTrip pool_trip = MeasureRoundTrip(&pool, kRoundTripCalls);
  std::cout << "=== Pool round trip: 12 fixed-work chunks, median of "
            << kRoundTripCalls << " calls ===\n";
  core::TablePrinter trip_table(
      {"1 thread (us)", core::StrFormat("%d threads (us)", flags.threads),
       "Pooled calls on one thread"});
  trip_table.AddRow({core::FormatDouble(seq_trip.median_us, 1),
                     core::FormatDouble(pool_trip.median_us, 1),
                     core::StrFormat("%d of %d", pool_trip.single_thread_calls,
                                     kRoundTripCalls)});
  trip_table.Print();

  const fl::FederatedSystem system =
      fl::FederatedSystem::Build(MakeSystemConfig(flags, 4));
  tensor::ParameterStore store = system.MakeInitialStore(1);
  const hgn::MpStructure mp = system.model().BuildStructure(system.global());

  struct Case {
    std::string name;
    std::function<void(core::ThreadPool*)> run;
  };
  std::vector<Case> cases;

  // Dense matmul: the dominant cost of the Simple-HGN forward pass.
  core::Rng mm_rng(11);
  const tensor::Tensor mm_a =
      tensor::Tensor::RandomUniform(2048, 128, &mm_rng, -1.0f, 1.0f);
  const tensor::Tensor mm_b =
      tensor::Tensor::RandomUniform(128, 128, &mm_rng, -1.0f, 1.0f);
  cases.push_back({"matmul 2048x128x128", [&](core::ThreadPool* p) {
                     tensor::Tensor c = tensor::MatMulValue(mm_a, mm_b, p);
                     FEDDA_CHECK_EQ(c.rows(), 2048);
                   }});

  // Edge softmax over many small destination segments: the attention
  // logits and their normalizer.
  constexpr int64_t kEdges = 200000;
  constexpr int kNodes = 50000;
  core::Rng attn_rng(12);
  const tensor::Tensor s_src =
      tensor::Tensor::RandomUniform(kNodes, 1, &attn_rng, -2.0f, 2.0f);
  const tensor::Tensor s_dst =
      tensor::Tensor::RandomUniform(kNodes, 1, &attn_rng, -2.0f, 2.0f);
  std::vector<int32_t> src_ids(kEdges), dst_ids(kEdges);
  for (int64_t e = 0; e < kEdges; ++e) {
    src_ids[static_cast<size_t>(e)] =
        static_cast<int32_t>(attn_rng.UniformInt(uint64_t{kNodes}));
    dst_ids[static_cast<size_t>(e)] =
        static_cast<int32_t>(attn_rng.UniformInt(uint64_t{kNodes}));
  }
  auto srcs = tensor::MakeIndices(src_ids);
  auto dsts = tensor::MakeIndices(dst_ids);
  cases.push_back({"edge softmax 200k/50k", [&](core::ThreadPool* p) {
                     tensor::Graph g(false);
                     g.set_pool(p);
                     tensor::Var alpha = tensor::EdgeSoftmax(
                         &g, g.Constant(s_src), g.Constant(s_dst),
                         tensor::Var{}, srcs, dsts, nullptr, 0.2f, kNodes);
                     FEDDA_CHECK_EQ(g.value(alpha).rows(), kEdges);
                   }});

  // Full Simple-HGN encoder forward on the global graph.
  cases.push_back({"simple-hgn forward", [&](core::ThreadPool* p) {
                     tensor::Graph g(false);
                     g.set_pool(p);
                     system.model().Encode(&g, system.global(), mp, &store);
                   }});

  // One complete federated round: broadcast + M local updates + aggregation.
  cases.push_back({"federated round (M=4)", [&](core::ThreadPool* p) {
                     fl::FlOptions options = MakeFlOptions(flags);
                     options.algorithm = fl::FlAlgorithm::kFedDaExplore;
                     options.rounds = 1;
                     options.eval_every_round = false;
                     options.eval.max_edges = 1;
                     options.worker_threads =
                         p == nullptr ? 0 : flags.threads;
                     fl::RunFederated(system, options, 42);
                   }});

  core::TablePrinter table({"Kernel", "1 thread (ms)",
                            core::StrFormat("%d threads (ms)", flags.threads),
                            "Speedup"});
  core::CsvWriter csv;
  FEDDA_CHECK_OK(csv.Open(OutputPath(flags, "micro_parallel.csv"),
                          {"kernel", "threads", "sequential_ms", "pooled_ms",
                           "speedup"}));
  for (const Case& c : cases) {
    const double seq_ms = BestMillis(reps, [&] { c.run(nullptr); });
    const double par_ms = BestMillis(reps, [&] { c.run(&pool); });
    const double speedup = seq_ms / par_ms;
    table.AddRow({c.name, core::FormatDouble(seq_ms, 2),
                  core::FormatDouble(par_ms, 2),
                  core::StrFormat("%.2fx", speedup)});
    csv.WriteRow(std::vector<std::string>{
        c.name, std::to_string(flags.threads),
        core::FormatDouble(seq_ms, 3), core::FormatDouble(par_ms, 3),
        core::FormatDouble(speedup, 3)});
    std::cout << "." << std::flush;
  }
  std::cout << "\n\n=== Sequential vs pooled kernels (best of " << reps
            << " reps, " << flags.threads << " workers) ===\n";
  table.Print();
  return 0;
}

}  // namespace
}  // namespace fedda::bench

int main(int argc, char** argv) { return fedda::bench::Main(argc, argv); }
