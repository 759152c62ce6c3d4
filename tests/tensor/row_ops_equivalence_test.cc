// Op-level equivalence for the row ops whose loops moved from per-element
// Tensor::at() indexing to kernels and raw pointers behind one shape check:
// RowDot, RowL2Normalize and BceWithLogits. The reference below is the
// earlier op bodies, kept as bounds-checked at() loops. EdgeAggregate is
// held to the gather -> row-scale -> scatter-add chain it replaced in the
// Simple-HGN layer, replayed op by op through its (E x cols) message
// tensors, and EdgeSoftmax to the gather -> add -> LeakyReLU -> segment
// softmax chain of the attention logits, replayed through its (E x 1)
// columns. Each op's forward value and every input gradient must match its
// reference bit for bit (memcmp) on random shapes, including 1-column and
// 0-row inputs, inline and on 1- and 4-thread pools, on every dispatch
// path.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "gtest/gtest.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"

namespace fedda::tensor {
namespace {

namespace k = ::fedda::tensor::kernels;

// ---------------------------------------------------------------------------
// Reference: the at()-based loops the ops used to run.
// ---------------------------------------------------------------------------

struct EdgeAggregateRef {
  Tensor y, dx, dw;
};

/// The three ops EdgeAggregate replaced, each as its at()-loop body:
/// m = GatherRows(x, src), ms = RowScale(m, w), y = ScatterAddRows(ms, dst)
/// forward, and their backward closures in reverse tape order. Scatter and
/// the gather backward add in increasing edge order per row, as the CSR
/// kernels did.
EdgeAggregateRef EdgeAggregateReference(const Tensor& xv, const Tensor& wv,
                                        const std::vector<int32_t>& src,
                                        const std::vector<int32_t>& dst,
                                        int64_t num_rows, const Tensor& dy) {
  const int64_t edges = static_cast<int64_t>(src.size());
  const int64_t cols = xv.cols();
  auto at = [](const std::vector<int32_t>& v, int64_t e) {
    return static_cast<int64_t>(v.at(static_cast<size_t>(e)));
  };
  EdgeAggregateRef ref{Tensor(num_rows, cols), Tensor(xv.rows(), cols),
                       Tensor(edges, 1)};
  Tensor m(edges, cols), ms(edges, cols);
  for (int64_t e = 0; e < edges; ++e) {
    for (int64_t c = 0; c < cols; ++c) m.at(e, c) = xv.at(at(src, e), c);
  }
  for (int64_t e = 0; e < edges; ++e) {
    const float f = wv.at(e, 0);
    for (int64_t c = 0; c < cols; ++c) ms.at(e, c) = f * m.at(e, c);
  }
  for (int64_t e = 0; e < edges; ++e) {
    for (int64_t c = 0; c < cols; ++c) ref.y.at(at(dst, e), c) += ms.at(e, c);
  }
  // ScatterAddRows backward: d ms = gather of dy by destination.
  Tensor dms(edges, cols), dm(edges, cols);
  for (int64_t e = 0; e < edges; ++e) {
    for (int64_t c = 0; c < cols; ++c) dms.at(e, c) += dy.at(at(dst, e), c);
  }
  // RowScale backward: d m, then d w as a row dot.
  for (int64_t e = 0; e < edges; ++e) {
    const float f = wv.at(e, 0);
    for (int64_t c = 0; c < cols; ++c) dm.at(e, c) += f * dms.at(e, c);
  }
  for (int64_t e = 0; e < edges; ++e) {
    float dot = 0.0f;
    for (int64_t c = 0; c < cols; ++c) dot += m.at(e, c) * dms.at(e, c);
    ref.dw.at(e, 0) += dot;
  }
  // GatherRows backward: d x = scatter of d m by source.
  for (int64_t e = 0; e < edges; ++e) {
    for (int64_t c = 0; c < cols; ++c) ref.dx.at(at(src, e), c) += dm.at(e, c);
  }
  return ref;
}

struct EdgeSoftmaxRef {
  Tensor y, ds_src, ds_dst, ds_edge;
};

/// The chain EdgeSoftmax replaced, each op as its at()-loop body: the
/// gathers of s_src by src and s_dst by dst and their Add, then (with
/// `ev`) the gather of s_edge by etype and a second Add, LeakyRelu, and
/// SegmentSoftmax by dst; then their backward closures in reverse tape
/// order into zeroed gradient slots. Each destination's max, sum and dot
/// run over its edges in increasing e, as the CSR kernels did. With
/// `shared` the two node scores are one column `sv` (dv unused). The
/// chain's Add took the two gathers as arguments, which GCC evaluates
/// right to left, so the destination gather came first on the tape and
/// the shared gradient adds the by-source terms before the by-destination
/// ones.
EdgeSoftmaxRef EdgeSoftmaxReference(const Tensor& sv, const Tensor& dv,
                                    const Tensor* ev,
                                    const std::vector<int32_t>& src,
                                    const std::vector<int32_t>& dst,
                                    const std::vector<int32_t>& etype,
                                    float slope, int64_t num_nodes,
                                    bool shared, const Tensor& dy) {
  const int64_t edges = static_cast<int64_t>(src.size());
  auto at = [](const std::vector<int32_t>& v, int64_t e) {
    return static_cast<int64_t>(v.at(static_cast<size_t>(e)));
  };
  const Tensor& dst_scores = shared ? sv : dv;
  EdgeSoftmaxRef ref{Tensor(edges, 1), Tensor(sv.rows(), 1),
                     Tensor(dst_scores.rows(), 1),
                     Tensor(ev != nullptr ? ev->rows() : 0, 1)};
  Tensor gs(edges, 1), gd(edges, 1), sum(edges, 1);
  for (int64_t e = 0; e < edges; ++e) gs.at(e, 0) = sv.at(at(src, e), 0);
  for (int64_t e = 0; e < edges; ++e) {
    gd.at(e, 0) = dst_scores.at(at(dst, e), 0);
  }
  for (int64_t e = 0; e < edges; ++e) sum.at(e, 0) = gs.at(e, 0) + gd.at(e, 0);
  Tensor pre = sum;
  if (ev != nullptr) {
    Tensor ge(edges, 1);
    for (int64_t e = 0; e < edges; ++e) ge.at(e, 0) = ev->at(at(etype, e), 0);
    for (int64_t e = 0; e < edges; ++e) {
      pre.at(e, 0) = sum.at(e, 0) + ge.at(e, 0);
    }
  }
  Tensor act(edges, 1);
  for (int64_t e = 0; e < edges; ++e) {
    const float x = pre.at(e, 0);
    act.at(e, 0) = x > 0.0f ? x : slope * x;
  }
  const auto nodes = static_cast<size_t>(num_nodes);
  std::vector<float> seg_max(nodes, -std::numeric_limits<float>::infinity());
  std::vector<float> seg_sum(nodes, 0.0f), seg_dot(nodes, 0.0f);
  auto seg = [&](int64_t e) { return static_cast<size_t>(at(dst, e)); };
  for (int64_t e = 0; e < edges; ++e) {
    seg_max[seg(e)] = std::max(seg_max[seg(e)], act.at(e, 0));
  }
  for (int64_t e = 0; e < edges; ++e) {
    const float ex = std::exp(act.at(e, 0) - seg_max[seg(e)]);
    ref.y.at(e, 0) = ex;
    seg_sum[seg(e)] += ex;
  }
  for (int64_t e = 0; e < edges; ++e) ref.y.at(e, 0) /= seg_sum[seg(e)];
  // SegmentSoftmax backward, then LeakyRelu's.
  Tensor dact(edges, 1), dpre(edges, 1);
  for (int64_t e = 0; e < edges; ++e) {
    seg_dot[seg(e)] += ref.y.at(e, 0) * dy.at(e, 0);
  }
  for (int64_t e = 0; e < edges; ++e) {
    dact.at(e, 0) += ref.y.at(e, 0) * (dy.at(e, 0) - seg_dot[seg(e)]);
  }
  for (int64_t e = 0; e < edges; ++e) {
    dpre.at(e, 0) += dact.at(e, 0) * (pre.at(e, 0) > 0.0f ? 1.0f : slope);
  }
  // The second Add and the s_edge gather's scatter.
  Tensor dsum = dpre;
  if (ev != nullptr) {
    Tensor dge(edges, 1);
    dsum = Tensor(edges, 1);
    for (int64_t e = 0; e < edges; ++e) dsum.at(e, 0) += dpre.at(e, 0);
    for (int64_t e = 0; e < edges; ++e) dge.at(e, 0) += dpre.at(e, 0);
    for (int64_t e = 0; e < edges; ++e) {
      ref.ds_edge.at(at(etype, e), 0) += dge.at(e, 0);
    }
  }
  // The first Add, then the s_src and s_dst gathers' scatters.
  Tensor dgs(edges, 1), dgd(edges, 1);
  for (int64_t e = 0; e < edges; ++e) dgs.at(e, 0) += dsum.at(e, 0);
  for (int64_t e = 0; e < edges; ++e) dgd.at(e, 0) += dsum.at(e, 0);
  for (int64_t e = 0; e < edges; ++e) {
    ref.ds_src.at(at(src, e), 0) += dgs.at(e, 0);
  }
  Tensor& dst_grad = shared ? ref.ds_src : ref.ds_dst;
  for (int64_t e = 0; e < edges; ++e) {
    dst_grad.at(at(dst, e), 0) += dgd.at(e, 0);
  }
  return ref;
}

struct RowDotRef {
  Tensor y, da, db;
};

RowDotRef RowDotReference(const Tensor& av, const Tensor& bv,
                          const Tensor& dy) {
  RowDotRef ref{Tensor(av.rows(), 1), Tensor(av.rows(), av.cols()),
                Tensor(av.rows(), av.cols())};
  for (int64_t r = 0; r < av.rows(); ++r) {
    float dot = 0.0f;
    for (int64_t c = 0; c < av.cols(); ++c) dot += av.at(r, c) * bv.at(r, c);
    ref.y.at(r, 0) = dot;
  }
  for (int64_t r = 0; r < av.rows(); ++r) {
    const float d = dy.at(r, 0);
    for (int64_t c = 0; c < av.cols(); ++c) ref.da.at(r, c) += d * bv.at(r, c);
  }
  for (int64_t r = 0; r < av.rows(); ++r) {
    const float d = dy.at(r, 0);
    for (int64_t c = 0; c < av.cols(); ++c) ref.db.at(r, c) += d * av.at(r, c);
  }
  return ref;
}

struct RowL2NormalizeRef {
  Tensor y, da;
};

RowL2NormalizeRef RowL2NormalizeReference(const Tensor& av, const Tensor& dy,
                                          float eps) {
  const int64_t rows = av.rows(), cols = av.cols();
  RowL2NormalizeRef ref{Tensor(rows, cols), Tensor(rows, cols)};
  std::vector<float> norms(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    double sq = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      const float x = av.at(r, c);
      sq += static_cast<double>(x) * x;
    }
    const float n = std::max(static_cast<float>(std::sqrt(sq)), eps);
    norms[static_cast<size_t>(r)] = n;
    for (int64_t c = 0; c < cols; ++c) ref.y.at(r, c) = av.at(r, c) / n;
  }
  for (int64_t r = 0; r < rows; ++r) {
    float dot = 0.0f;
    for (int64_t c = 0; c < cols; ++c) dot += ref.y.at(r, c) * dy.at(r, c);
    const float inv_n = 1.0f / norms[static_cast<size_t>(r)];
    for (int64_t c = 0; c < cols; ++c) {
      ref.da.at(r, c) += (dy.at(r, c) - ref.y.at(r, c) * dot) * inv_n;
    }
  }
  return ref;
}

struct BceRef {
  Tensor loss, dz;
};

BceRef BceWithLogitsReference(const Tensor& zv, const Tensor& labels,
                              float dy) {
  double total = 0.0;
  for (int64_t i = 0; i < zv.rows(); ++i) {
    const float z = zv.at(i, 0);
    const float y = labels.at(i, 0);
    total += std::max(z, 0.0f) - z * y + std::log1p(std::exp(-std::fabs(z)));
  }
  BceRef ref{Tensor(1, 1), Tensor(zv.rows(), 1)};
  ref.loss.at(0, 0) = static_cast<float>(total / zv.rows());
  const float inv_n = 1.0f / static_cast<float>(zv.rows());
  for (int64_t i = 0; i < zv.rows(); ++i) {
    const float sig = 1.0f / (1.0f + std::exp(-zv.at(i, 0)));
    ref.dz.at(i, 0) += dy * (sig - labels.at(i, 0)) * inv_n;
  }
  return ref;
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

k::DispatchMode ModeFor(k::Path path) {
  switch (path) {
    case k::Path::kScalar:
      return k::DispatchMode::kScalar;
    case k::Path::kAvx2:
      return k::DispatchMode::kAvx2;
  }
  return k::DispatchMode::kScalar;
}

void ExpectSameBits(const std::string& what, const Tensor& want,
                    const Tensor& got) {
  // The tape leaves the gradient slot of a zero-size value as 0x0.
  if (want.empty() && got.empty()) return;
  ASSERT_EQ(want.rows(), got.rows()) << what;
  ASSERT_EQ(want.cols(), got.cols()) << what;
  EXPECT_EQ(std::memcmp(want.data(), got.data(),
                        static_cast<size_t>(want.size()) * sizeof(float)),
            0)
      << what << " differs from the at()-loop reference";
}

/// Random values with exact and negative zeros mixed in.
Tensor RandomTensor(int64_t rows, int64_t cols, core::Rng* rng) {
  Tensor t(rows, cols);
  for (int64_t i = 0; i < t.size(); ++i) {
    const double roll = rng->Uniform();
    t.data()[i] = roll < 0.05   ? 0.0f
                  : roll < 0.08 ? -0.0f
                                : static_cast<float>(rng->Uniform(-3.0, 3.0));
  }
  return t;
}

/// RandomTensor plus NaN and both infinities. The NaN is the one this
/// machine's arithmetic makes (inf - inf), so no result depends on which
/// NaN operand an add or multiply propagates.
Tensor RandomTensorWithSpecials(int64_t rows, int64_t cols, core::Rng* rng) {
  volatile float inf = std::numeric_limits<float>::infinity();
  const float nan = inf - inf;
  Tensor t = RandomTensor(rows, cols, rng);
  for (int64_t i = 0; i < t.size(); ++i) {
    const double roll = rng->Uniform();
    if (roll < 0.03) {
      t.data()[i] = nan;
    } else if (roll < 0.045) {
      t.data()[i] = inf;
    } else if (roll < 0.06) {
      t.data()[i] = -inf;
    }
  }
  return t;
}

class RowOpsEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<k::Path, int>> {
 protected:
  void SetUp() override {
    saved_mode_ = k::dispatch_mode();
    k::SetDispatchMode(ModeFor(std::get<0>(GetParam())));
    const int threads = std::get<1>(GetParam());
    if (threads > 0) pool_ = std::make_unique<core::ThreadPool>(threads);
  }
  void TearDown() override { k::SetDispatchMode(saved_mode_); }

  /// A training graph on the test's pool.
  std::unique_ptr<Graph> NewGraph() {
    auto g = std::make_unique<Graph>(true);
    g->set_pool(pool_.get());
    return g;
  }

  /// Backpropagates sum(y * weights) so that y's upstream gradient is
  /// `weights` (read back from the tape, which is what the op saw).
  static const Tensor& BackwardWith(Graph* g, Var y, const Tensor& weights) {
    g->Backward(Sum(g, Mul(g, y, g->Constant(weights))));
    return g->grad(y);
  }

  k::DispatchMode saved_mode_ = k::DispatchMode::kAuto;
  std::unique_ptr<core::ThreadPool> pool_;
};

struct Shape {
  int64_t rows, cols;
};
const Shape kShapes[] = {{0, 4},  {0, 1},   {6, 0},   {1, 1},
                         {5, 1},  {9, 1},   {3, 16},  {17, 7},
                         {33, 16}, {40, 19}, {8, 1000}};

std::string Tag(const Shape& s) {
  return " " + std::to_string(s.rows) + "x" + std::to_string(s.cols);
}

/// One edge list for the EdgeAggregate case.
struct EdgeCase {
  std::string name;
  int64_t x_rows, num_rows;
  std::vector<int32_t> src, dst;
};

std::vector<EdgeCase> EdgeCases(core::Rng* rng) {
  std::vector<EdgeCase> cases = {
      {"no edges", 4, 3, {}, {}},
      {"no edges, 0-row x", 0, 2, {}, {}},
      {"all into one row", 5, 4, {0, 1, 2, 3, 4, 2}, {1, 1, 1, 1, 1, 1}},
      // 2 -> 1 three times, 0 -> 0 twice; 0, 1 and 3 loop on themselves.
      {"duplicates and self loops",
       4,
       4,
       {0, 2, 2, 3, 0, 2, 1},
       {0, 1, 1, 3, 0, 1, 1}},
      // One edge into each of rows 0, 1, 2, 3 and 5; row 4 stays empty.
      {"singleton destination rows", 5, 6, {4, 0, 2, 2, 1}, {3, 0, 5, 1, 2}},
  };
  // Random sources into even destinations only: the odd rows stay empty.
  EdgeCase sparse{"empty destination rows", 9, 10, {}, {}};
  for (int e = 0; e < 40; ++e) {
    sparse.src.push_back(static_cast<int32_t>(rng->UniformInt(uint64_t{9})));
    sparse.dst.push_back(
        static_cast<int32_t>(2 * rng->UniformInt(uint64_t{5})));
  }
  cases.push_back(sparse);
  return cases;
}

TEST_P(RowOpsEquivalenceTest, EdgeAggregate) {
  core::Rng rng(7);
  for (const EdgeCase& ec : EdgeCases(&rng)) {
    for (int64_t cols : {1LL, 7LL, 8LL, 9LL, 16LL, 17LL, 48LL}) {
      const int64_t n_edges = static_cast<int64_t>(ec.src.size());
      const Tensor xv = RandomTensor(ec.x_rows, cols, &rng);
      const Tensor wv = RandomTensor(n_edges, 1, &rng);
      const Tensor weights = RandomTensor(ec.num_rows, cols, &rng);
      Tensor sink_x(ec.x_rows, cols), sink_w(n_edges, 1);
      auto g = NewGraph();
      Var x = g->Leaf(xv, &sink_x);
      Var w = g->Leaf(wv, &sink_w);
      Var y = EdgeAggregate(g.get(), x, w, MakeIndices(ec.src),
                            MakeIndices(ec.dst), ec.num_rows);
      const Tensor dy = BackwardWith(g.get(), y, weights);
      const EdgeAggregateRef ref = EdgeAggregateReference(
          xv, wv, ec.src, ec.dst, ec.num_rows, dy);
      const std::string tag = " " + ec.name + " cols=" + std::to_string(cols);
      ExpectSameBits("EdgeAggregate y" + tag, ref.y, g->value(y));
      if (n_edges == 0) {  // the chain's empty messages sent nothing back
        EXPECT_TRUE(g->grad(x).empty() && g->grad(w).empty()) << tag;
        continue;
      }
      ExpectSameBits("EdgeAggregate dx" + tag, ref.dx, g->grad(x));
      ExpectSameBits("EdgeAggregate dw" + tag, ref.dw, g->grad(w));
    }
  }
}

TEST_P(RowOpsEquivalenceTest, EdgeSoftmax) {
  constexpr int64_t kEdgeTypes = 3;
  core::Rng rng(12);
  for (const EdgeCase& ec : EdgeCases(&rng)) {
    const int64_t n_edges = static_cast<int64_t>(ec.src.size());
    std::vector<int32_t> etype;
    for (int64_t e = 0; e < n_edges; ++e) {
      etype.push_back(static_cast<int32_t>(
          rng.UniformInt(static_cast<uint64_t>(kEdgeTypes))));
    }
    for (bool specials : {false, true}) {
      for (bool with_edge : {false, true}) {
        for (float slope : {0.2f, 0.0f, -0.5f}) {
          for (bool shared : {false, true}) {
            auto draw = [&](int64_t rows) {
              return specials ? RandomTensorWithSpecials(rows, 1, &rng)
                              : RandomTensor(rows, 1, &rng);
            };
            // A shared column serves both endpoints' indices.
            const Tensor sv =
                draw(shared ? std::max(ec.x_rows, ec.num_rows) : ec.x_rows);
            const Tensor dv = draw(ec.num_rows);
            const Tensor ev = draw(kEdgeTypes);
            const Tensor weights = draw(n_edges);
            Tensor sink_s(sv.rows(), 1), sink_d(dv.rows(), 1),
                sink_e(kEdgeTypes, 1);
            auto g = NewGraph();
            Var s_src = g->Leaf(sv, &sink_s);
            Var s_dst = shared ? s_src : g->Leaf(dv, &sink_d);
            Var s_edge = with_edge ? g->Leaf(ev, &sink_e) : Var{};
            Var y = EdgeSoftmax(g.get(), s_src, s_dst, s_edge,
                                MakeIndices(ec.src), MakeIndices(ec.dst),
                                with_edge ? MakeIndices(etype) : nullptr,
                                slope, ec.num_rows);
            const Tensor dy = BackwardWith(g.get(), y, weights);
            const EdgeSoftmaxRef ref = EdgeSoftmaxReference(
                sv, dv, with_edge ? &ev : nullptr, ec.src, ec.dst, etype,
                slope, ec.num_rows, shared, dy);
            const std::string tag =
                " " + ec.name + (specials ? " specials" : "") +
                (with_edge ? " edge term" : "") + (shared ? " shared" : "") +
                " slope=" + std::to_string(slope);
            ExpectSameBits("EdgeSoftmax y" + tag, ref.y, g->value(y));
            if (n_edges == 0) {  // the chain's empty columns sent nothing back
              EXPECT_TRUE(g->grad(s_src).empty() && g->grad(s_dst).empty())
                  << tag;
              continue;
            }
            ExpectSameBits("EdgeSoftmax d s_src" + tag, ref.ds_src,
                           g->grad(s_src));
            if (!shared) {
              ExpectSameBits("EdgeSoftmax d s_dst" + tag, ref.ds_dst,
                             g->grad(s_dst));
            }
            if (with_edge) {
              ExpectSameBits("EdgeSoftmax d s_edge" + tag, ref.ds_edge,
                             g->grad(s_edge));
            }
          }
        }
      }
    }
  }
}

TEST_P(RowOpsEquivalenceTest, RowDot) {
  core::Rng rng(8);
  for (const Shape& s : kShapes) {
    const Tensor av = RandomTensor(s.rows, s.cols, &rng);
    const Tensor bv = RandomTensor(s.rows, s.cols, &rng);
    const Tensor w = RandomTensor(s.rows, 1, &rng);
    Tensor sink_a(s.rows, s.cols), sink_b(s.rows, s.cols);
    auto g = NewGraph();
    Var a = g->Leaf(av, &sink_a);
    Var b = g->Leaf(bv, &sink_b);
    Var y = RowDot(g.get(), a, b);
    const Tensor dy = BackwardWith(g.get(), y, w);
    const RowDotRef ref = RowDotReference(av, bv, dy);
    ExpectSameBits("RowDot y" + Tag(s), ref.y, g->value(y));
    ExpectSameBits("RowDot da" + Tag(s), ref.da, g->grad(a));
    ExpectSameBits("RowDot db" + Tag(s), ref.db, g->grad(b));
  }
}

TEST_P(RowOpsEquivalenceTest, RowDotOfAVarWithItself) {
  // Both gradients land in one slot, da's contribution first.
  core::Rng rng(9);
  const Tensor av = RandomTensor(12, 5, &rng);
  const Tensor w = RandomTensor(12, 1, &rng);
  Tensor sink(12, 5);
  auto g = NewGraph();
  Var a = g->Leaf(av, &sink);
  Var y = RowDot(g.get(), a, a);
  const Tensor dy = BackwardWith(g.get(), y, w);
  const RowDotRef ref = RowDotReference(av, av, dy);
  Tensor both = ref.da;
  for (int64_t r = 0; r < av.rows(); ++r) {
    for (int64_t c = 0; c < av.cols(); ++c) {
      both.at(r, c) += dy.at(r, 0) * av.at(r, c);
    }
  }
  ExpectSameBits("RowDot(a, a) y", ref.y, g->value(y));
  ExpectSameBits("RowDot(a, a) da", both, g->grad(a));
}

TEST_P(RowOpsEquivalenceTest, RowL2Normalize) {
  core::Rng rng(10);
  for (const Shape& s : kShapes) {
    Tensor av = RandomTensor(s.rows, s.cols, &rng);
    // One all-zero row takes the eps branch.
    if (s.rows > 2) {
      for (int64_t c = 0; c < s.cols; ++c) av.at(2, c) = 0.0f;
    }
    const Tensor w = RandomTensor(s.rows, s.cols, &rng);
    Tensor sink(s.rows, s.cols);
    auto g = NewGraph();
    Var a = g->Leaf(av, &sink);
    Var y = RowL2Normalize(g.get(), a, 1e-12f);
    const Tensor dy = BackwardWith(g.get(), y, w);
    const RowL2NormalizeRef ref = RowL2NormalizeReference(av, dy, 1e-12f);
    ExpectSameBits("RowL2Normalize y" + Tag(s), ref.y, g->value(y));
    if (dy.empty()) {
      EXPECT_TRUE(g->grad(a).empty()) << Tag(s);
      continue;
    }
    ExpectSameBits("RowL2Normalize da" + Tag(s), ref.da, g->grad(a));
  }
}

TEST_P(RowOpsEquivalenceTest, BceWithLogits) {
  core::Rng rng(11);
  for (int64_t rows : {1LL, 2LL, 9LL, 64LL, 257LL}) {
    const Tensor zv = RandomTensor(rows, 1, &rng);
    Tensor labels(rows, 1);
    for (int64_t i = 0; i < rows; ++i) {
      labels.at(i, 0) = rng.Uniform() < 0.5 ? 1.0f : 0.0f;
    }
    Tensor sink(rows, 1);
    auto g = NewGraph();
    Var z = g->Leaf(zv, &sink);
    Var loss = BceWithLogits(g.get(), z, labels);
    g->Backward(loss);
    const BceRef ref =
        BceWithLogitsReference(zv, labels, g->grad(loss).at(0, 0));
    const std::string tag = " rows=" + std::to_string(rows);
    ExpectSameBits("BceWithLogits loss" + tag, ref.loss, g->value(loss));
    ExpectSameBits("BceWithLogits dz" + tag, ref.dz, g->grad(z));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPathsAllThreads, RowOpsEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(k::SupportedPaths()),
                       ::testing::Values(0, 1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<k::Path, int>>& param) {
      return std::string(k::PathName(std::get<0>(param.param))) + "_threads" +
             std::to_string(std::get<1>(param.param));
    });

}  // namespace
}  // namespace fedda::tensor
