#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "core/thread_pool.h"
#include "obs/trace.h"
#include "tensor/kernels/kernels.h"

namespace fedda::tensor {

namespace {

/// The shape check behind a raw-pointer gradient loop. The gradient slot of
/// a zero-size value stays an empty 0x0 tensor (Graph::mutable_grad); the
/// loop then touches no element of it.
bool GradFits(const Tensor& grad, const Tensor& value) {
  return grad.SameShape(value) || (grad.empty() && value.empty());
}

using kernels::kElementGrain;
using kernels::RowGrain;

}  // namespace

std::shared_ptr<const std::vector<int32_t>> MakeIndices(
    std::vector<int32_t> indices) {
  return std::make_shared<const std::vector<int32_t>>(std::move(indices));
}

Var Add(Graph* g, Var a, Var b) {
  const Tensor& av = g->value(a);
  const Tensor& bv = g->value(b);
  FEDDA_CHECK(av.SameShape(bv));
  Tensor out(av.rows(), av.cols());
  kernels::EwAdd(av.data(), bv.data(), out.data(), av.size(), g->pool());
  return g->AddNode(
      std::move(out), {a, b},
      [a, b](Graph* bg, Var self) {
        const Tensor& dy = bg->grad(self);
        if (bg->requires_grad(a)) {
          kernels::AccumulateAdd(bg->mutable_grad(a).data(), dy.data(),
                                 dy.size(), bg->pool());
        }
        if (bg->requires_grad(b)) {
          kernels::AccumulateAdd(bg->mutable_grad(b).data(), dy.data(),
                                 dy.size(), bg->pool());
        }
      });
}

Var Sub(Graph* g, Var a, Var b) {
  const Tensor& av = g->value(a);
  const Tensor& bv = g->value(b);
  FEDDA_CHECK(av.SameShape(bv));
  Tensor out(av.rows(), av.cols());
  kernels::EwSub(av.data(), bv.data(), out.data(), av.size(), g->pool());
  return g->AddNode(
      std::move(out), {a, b},
      [a, b](Graph* bg, Var self) {
        const Tensor& dy = bg->grad(self);
        if (bg->requires_grad(a)) {
          kernels::AccumulateAdd(bg->mutable_grad(a).data(), dy.data(),
                                 dy.size(), bg->pool());
        }
        if (bg->requires_grad(b)) {
          kernels::AccumulateAxpy(bg->mutable_grad(b).data(), -1.0f,
                                  dy.data(), dy.size(), bg->pool());
        }
      });
}

Var Mul(Graph* g, Var a, Var b) {
  const Tensor& av = g->value(a);
  const Tensor& bv = g->value(b);
  FEDDA_CHECK(av.SameShape(bv));
  Tensor out(av.rows(), av.cols());
  kernels::EwMul(av.data(), bv.data(), out.data(), av.size(), g->pool());
  return g->AddNode(
      std::move(out), {a, b},
      [a, b](Graph* bg, Var self) {
        const Tensor& dy = bg->grad(self);
        if (bg->requires_grad(a)) {
          Tensor& da = bg->mutable_grad(a);
          const Tensor& b_in = bg->value(b);
          kernels::AccumulateMul(da.data(), dy.data(), b_in.data(), dy.size(),
                                 bg->pool());
        }
        if (bg->requires_grad(b)) {
          Tensor& db = bg->mutable_grad(b);
          const Tensor& a_in = bg->value(a);
          kernels::AccumulateMul(db.data(), dy.data(), a_in.data(), dy.size(),
                                 bg->pool());
        }
      });
}

Var Scale(Graph* g, Var a, float alpha) {
  Tensor out = g->value(a);
  out.Scale(alpha);
  return g->AddNode(std::move(out), {a},
                    [a, alpha](Graph* bg, Var self) {
                      if (bg->requires_grad(a)) {
                        bg->mutable_grad(a).Axpy(alpha, bg->grad(self));
                      }
                    });
}

Var AddScalar(Graph* g, Var a, float alpha) {
  Tensor out = g->value(a);
  for (int64_t i = 0; i < out.size(); ++i) out.data()[i] += alpha;
  return g->AddNode(std::move(out), {a},
                    [a](Graph* bg, Var self) {
                      if (bg->requires_grad(a)) {
                        bg->mutable_grad(a).Add(bg->grad(self));
                      }
                    });
}

Var MatMul(Graph* g, Var a, Var b) {
  obs::ScopedSpan span(g->tracer(), "matmul");
  const Tensor& av = g->value(a);
  const Tensor& bv = g->value(b);
  Tensor out = MatMulValue(av, bv, g->pool());
  return g->AddNode(
      std::move(out), {a, b},
      [a, b](Graph* bg, Var self) {
        const Tensor& dy = bg->grad(self);
        const Tensor& a_in = bg->value(a);
        const Tensor& b_in = bg->value(b);
        const int64_t m = a_in.rows(), k = a_in.cols(), n = b_in.cols();
        FEDDA_CHECK(b_in.rows() == k && dy.rows() == m && dy.cols() == n);
        // The transposed kernels read a and b in place. Each product is
        // formed in full before it is added, as the gradient may already
        // hold other consumers' contributions.
        if (bg->requires_grad(a)) {
          Tensor da(m, k);
          kernels::MatMulABt(dy.data(), b_in.data(), da.data(), m, n, k,
                             bg->pool());
          bg->mutable_grad(a).Add(da);
        }
        if (bg->requires_grad(b)) {
          Tensor db(k, n);
          kernels::MatMulAtB(a_in.data(), dy.data(), db.data(), k, m, n,
                             bg->pool());
          bg->mutable_grad(b).Add(db);
        }
      });
}

Var AddBias(Graph* g, Var a, Var bias) {
  const Tensor& av = g->value(a);
  const Tensor& bv = g->value(bias);
  FEDDA_CHECK_EQ(bv.rows(), 1);
  FEDDA_CHECK_EQ(bv.cols(), av.cols());
  Tensor out(av.rows(), av.cols());
  kernels::BiasAdd(av.data(), bv.data(), out.data(), av.rows(), av.cols(),
                   g->pool());
  return g->AddNode(
      std::move(out), {a, bias},
      [a, bias](Graph* bg, Var self) {
        const Tensor& dy = bg->grad(self);
        if (bg->requires_grad(a)) {
          kernels::AccumulateAdd(bg->mutable_grad(a).data(), dy.data(),
                                 dy.size(), bg->pool());
        }
        if (bg->requires_grad(bias)) {
          Tensor& db = bg->mutable_grad(bias);
          for (int64_t r = 0; r < dy.rows(); ++r) {
            for (int64_t c = 0; c < dy.cols(); ++c) {
              db.at(0, c) += dy.at(r, c);
            }
          }
        }
      });
}

Var Elu(Graph* g, Var a, float alpha) {
  const Tensor& av = g->value(a);
  Tensor out(av.rows(), av.cols());
  core::ParallelForRange(
      g->pool(), av.size(), kElementGrain,
      [&out, &av, alpha](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          const float x = av.data()[i];
          out.data()[i] =
              x > 0.0f ? x : alpha * (std::exp(x) - 1.0f);
        }
      });
  return g->AddNode(
      std::move(out), {a},
      [a, alpha](Graph* bg, Var self) {
        if (!bg->requires_grad(a)) return;
        const Tensor& dy = bg->grad(self);
        const Tensor& a_in = bg->value(a);
        const Tensor& yv = bg->value(self);
        Tensor& da = bg->mutable_grad(a);
        core::ParallelForRange(
            bg->pool(), dy.size(), kElementGrain,
            [&da, &dy, &a_in, &yv, alpha](int64_t begin, int64_t end) {
              for (int64_t i = begin; i < end; ++i) {
                // d/dx elu = 1 for x > 0, else elu(x) + alpha.
                const float d =
                    a_in.data()[i] > 0.0f ? 1.0f : yv.data()[i] + alpha;
                da.data()[i] += dy.data()[i] * d;
              }
            });
      });
}

Var Sigmoid(Graph* g, Var a) {
  const Tensor& av = g->value(a);
  Tensor out(av.rows(), av.cols());
  core::ParallelForRange(
      g->pool(), av.size(), kElementGrain,
      [&out, &av](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          out.data()[i] = 1.0f / (1.0f + std::exp(-av.data()[i]));
        }
      });
  return g->AddNode(
      std::move(out), {a},
      [a](Graph* bg, Var self) {
        if (!bg->requires_grad(a)) return;
        const Tensor& dy = bg->grad(self);
        const Tensor& yv = bg->value(self);
        Tensor& da = bg->mutable_grad(a);
        core::ParallelForRange(
            bg->pool(), dy.size(), kElementGrain,
            [&da, &dy, &yv](int64_t begin, int64_t end) {
              for (int64_t i = begin; i < end; ++i) {
                const float s = yv.data()[i];
                da.data()[i] += dy.data()[i] * s * (1.0f - s);
              }
            });
      });
}

Var Tanh(Graph* g, Var a) {
  const Tensor& av = g->value(a);
  Tensor out(av.rows(), av.cols());
  core::ParallelForRange(
      g->pool(), av.size(), kElementGrain,
      [&out, &av](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          out.data()[i] = std::tanh(av.data()[i]);
        }
      });
  return g->AddNode(
      std::move(out), {a},
      [a](Graph* bg, Var self) {
        if (!bg->requires_grad(a)) return;
        const Tensor& dy = bg->grad(self);
        const Tensor& yv = bg->value(self);
        Tensor& da = bg->mutable_grad(a);
        core::ParallelForRange(
            bg->pool(), dy.size(), kElementGrain,
            [&da, &dy, &yv](int64_t begin, int64_t end) {
              for (int64_t i = begin; i < end; ++i) {
                const float t = yv.data()[i];
                da.data()[i] += dy.data()[i] * (1.0f - t * t);
              }
            });
      });
}

Var Exp(Graph* g, Var a) {
  const Tensor& av = g->value(a);
  Tensor out(av.rows(), av.cols());
  core::ParallelForRange(
      g->pool(), av.size(), kElementGrain,
      [&out, &av](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          out.data()[i] = std::exp(av.data()[i]);
        }
      });
  return g->AddNode(
      std::move(out), {a},
      [a](Graph* bg, Var self) {
        if (!bg->requires_grad(a)) return;
        const Tensor& dy = bg->grad(self);
        const Tensor& yv = bg->value(self);
        Tensor& da = bg->mutable_grad(a);
        core::ParallelForRange(
            bg->pool(), dy.size(), kElementGrain,
            [&da, &dy, &yv](int64_t begin, int64_t end) {
              for (int64_t i = begin; i < end; ++i) {
                da.data()[i] += dy.data()[i] * yv.data()[i];
              }
            });
      });
}

Var Log(Graph* g, Var a) {
  const Tensor& av = g->value(a);
  Tensor out(av.rows(), av.cols());
  for (int64_t i = 0; i < av.size(); ++i) {
    FEDDA_CHECK_GT(av.data()[i], 0.0f);
    out.data()[i] = std::log(av.data()[i]);
  }
  return g->AddNode(
      std::move(out), {a},
      [a](Graph* bg, Var self) {
        if (!bg->requires_grad(a)) return;
        const Tensor& dy = bg->grad(self);
        const Tensor& a_in = bg->value(a);
        Tensor& da = bg->mutable_grad(a);
        core::ParallelForRange(
            bg->pool(), dy.size(), kElementGrain,
            [&da, &dy, &a_in](int64_t begin, int64_t end) {
              for (int64_t i = begin; i < end; ++i) {
                da.data()[i] += dy.data()[i] / a_in.data()[i];
              }
            });
      });
}

Var Sum(Graph* g, Var a) {
  const Tensor& av = g->value(a);
  Tensor out(1, 1);
  out.at(0, 0) = static_cast<float>(av.Sum());
  return g->AddNode(
      std::move(out), {a},
      [a](Graph* bg, Var self) {
        if (!bg->requires_grad(a)) return;
        const float dy = bg->grad(self).at(0, 0);
        Tensor& da = bg->mutable_grad(a);
        for (int64_t i = 0; i < da.size(); ++i) da.data()[i] += dy;
      });
}

Var Mean(Graph* g, Var a) {
  const Tensor& av = g->value(a);
  FEDDA_CHECK_GT(av.size(), 0);
  Tensor out(1, 1);
  out.at(0, 0) = static_cast<float>(av.Mean());
  const float inv = 1.0f / static_cast<float>(av.size());
  return g->AddNode(
      std::move(out), {a},
      [a, inv](Graph* bg, Var self) {
        if (!bg->requires_grad(a)) return;
        const float dy = bg->grad(self).at(0, 0) * inv;
        Tensor& da = bg->mutable_grad(a);
        for (int64_t i = 0; i < da.size(); ++i) da.data()[i] += dy;
      });
}

Var GatherRows(Graph* g, Var a,
               std::shared_ptr<const std::vector<int32_t>> indices) {
  obs::ScopedSpan span(g->tracer(), "gather-rows");
  const Tensor& av = g->value(a);
  const int64_t cols = av.cols();
  const int64_t n_idx = static_cast<int64_t>(indices->size());
  for (int32_t r : *indices) {
    FEDDA_CHECK(r >= 0 && r < av.rows()) << "gather index out of range";
  }
  Tensor out(n_idx, cols);
  kernels::GatherRows(av.data(), indices->data(), n_idx, cols, out.data(),
                      g->pool());
  return g->AddNode(
      std::move(out), {a},
      [a, indices](Graph* bg, Var self) {
        if (!bg->requires_grad(a)) return;
        const Tensor& dy = bg->grad(self);
        Tensor& da = bg->mutable_grad(a);
        // Scatter-add via the cached CSR grouping: each destination row
        // accumulates its contributions in increasing position order — the
        // sequential loop's order — so the result is bit-identical at any
        // thread count, and a static graph pays the regroup once per epoch
        // set, not once per batch.
        const auto csr = kernels::GetCsr(indices, da.rows());
        kernels::ScatterAddRows(dy.data(), *csr, dy.cols(), da.data(),
                                bg->pool());
      });
}

Var EdgeAggregate(Graph* g, Var x, Var w,
                  std::shared_ptr<const std::vector<int32_t>> src,
                  std::shared_ptr<const std::vector<int32_t>> dst,
                  int64_t num_rows) {
  // Recorded as the scatter it is, with the gather and the scale folded
  // into its loads; perfbench's span table maps this name to a row.
  obs::ScopedSpan span(g->tracer(), "scatter-add-rows");
  const Tensor& xv = g->value(x);
  const Tensor& wv = g->value(w);
  const int64_t num_edges = static_cast<int64_t>(src->size());
  FEDDA_CHECK_EQ(static_cast<int64_t>(dst->size()), num_edges);
  FEDDA_CHECK_EQ(wv.rows(), num_edges);
  FEDDA_CHECK_EQ(wv.cols(), 1);
  for (int32_t r : *src) {
    FEDDA_CHECK(r >= 0 && r < xv.rows()) << "edge source out of range";
  }
  for (int32_t r : *dst) {
    FEDDA_CHECK(r >= 0 && r < num_rows) << "edge destination out of range";
  }
  const int64_t cols = xv.cols();
  Tensor out(num_rows, cols);
  const auto by_dst = kernels::GetCsr(dst, num_rows);
  kernels::WeightedGatherSum(xv.data(), src->data(), wv.data(), *by_dst, cols,
                             out.data(), g->pool());
  return g->AddNode(
      std::move(out), {x, w},
      [x, w, src, dst](Graph* bg, Var self) {
        // No edges send nothing back. Allocating zero gradients here would
        // run the producers of x and w backward on all-zero inputs.
        const int64_t n_edges = static_cast<int64_t>(src->size());
        if (n_edges == 0) return;
        const Tensor& dy = bg->grad(self);
        const Tensor& x_in = bg->value(x);
        const Tensor& w_in = bg->value(w);
        FEDDA_CHECK(dy.cols() == x_in.cols() && w_in.rows() == n_edges);
        if (bg->requires_grad(w)) {
          Tensor& dw = bg->mutable_grad(w);
          FEDDA_CHECK(GradFits(dw, w_in));
          kernels::IndexedRowDot(x_in.data(), src->data(), dy.data(),
                                 dst->data(), dw.data(), n_edges, dy.cols(),
                                 bg->pool());
        }
        if (bg->requires_grad(x)) {
          Tensor& dx = bg->mutable_grad(x);
          FEDDA_CHECK(GradFits(dx, x_in));
          // Grouped by source: each dx row adds its edges' terms in
          // increasing e, the pinned summation order.
          const auto by_src = kernels::GetCsr(src, x_in.rows());
          kernels::WeightedGatherSum(dy.data(), dst->data(), w_in.data(),
                                     *by_src, dy.cols(), dx.data(),
                                     bg->pool());
        }
      });
}

Var EdgeSoftmax(Graph* g, Var s_src, Var s_dst, Var s_edge,
                std::shared_ptr<const std::vector<int32_t>> src,
                std::shared_ptr<const std::vector<int32_t>> dst,
                std::shared_ptr<const std::vector<int32_t>> etype,
                float slope, int64_t num_nodes) {
  // Recorded as the softmax it ends in, with the gathers, adds and
  // LeakyReLU folded into its loads; perfbench's span table maps this name
  // to a row.
  obs::ScopedSpan span(g->tracer(), "segment-softmax");
  const bool has_edge = s_edge.valid();
  const Tensor& sv = g->value(s_src);
  const Tensor& dv = g->value(s_dst);
  const int64_t num_edges = static_cast<int64_t>(src->size());
  FEDDA_CHECK_EQ(sv.cols(), 1);
  FEDDA_CHECK_EQ(dv.cols(), 1);
  FEDDA_CHECK_EQ(static_cast<int64_t>(dst->size()), num_edges);
  for (int32_t r : *src) {
    FEDDA_CHECK(r >= 0 && r < sv.rows()) << "edge source out of range";
  }
  for (int32_t r : *dst) {
    FEDDA_CHECK(r >= 0 && r < dv.rows()) << "edge destination out of range";
    FEDDA_CHECK(r < num_nodes) << "segment id out of range";
  }
  const float* edge_scores = nullptr;
  if (has_edge) {
    const Tensor& ev = g->value(s_edge);
    FEDDA_CHECK_EQ(ev.cols(), 1);
    FEDDA_CHECK(etype != nullptr);
    FEDDA_CHECK_EQ(static_cast<int64_t>(etype->size()), num_edges);
    for (int32_t t : *etype) {
      FEDDA_CHECK(t >= 0 && t < ev.rows()) << "edge type out of range";
    }
    edge_scores = ev.data();
  }
  // The pre-activations live as long as the backward closure that reads
  // their signs; the logits only until the softmax has read them.
  auto pre = std::make_shared<std::vector<float>>(
      static_cast<size_t>(num_edges));
  std::vector<float> logits(static_cast<size_t>(num_edges));
  kernels::EdgeAttentionLogits(sv.data(), dv.data(), edge_scores, src->data(),
                               dst->data(),
                               has_edge ? etype->data() : nullptr, slope,
                               pre->data(), logits.data(), num_edges,
                               g->pool());
  Tensor out(num_edges, 1);
  // Each destination's max and sum run over its edges in increasing e,
  // exactly as the historical sequential loop.
  const auto by_dst = kernels::GetCsr(dst, num_nodes);
  kernels::SegmentSoftmax(logits.data(), *by_dst, out.data(), g->pool());

  std::vector<Var> inputs = {s_src, s_dst};
  if (has_edge) inputs.push_back(s_edge);
  return g->AddNode(
      std::move(out), inputs,
      [s_src, s_dst, s_edge, src, dst, etype, slope, num_nodes,
       pre](Graph* bg, Var self) {
        const Tensor& dy = bg->grad(self);
        const Tensor& yv = bg->value(self);
        const int64_t n_edges = yv.rows();
        FEDDA_CHECK(dy.SameShape(yv) &&
                    static_cast<int64_t>(pre->size()) == n_edges);
        std::vector<float> dl(static_cast<size_t>(n_edges), 0.0f);
        const auto seg_csr = kernels::GetCsr(dst, num_nodes);
        kernels::SegmentSoftmaxGrad(yv.data(), dy.data(), *seg_csr, dl.data(),
                                    bg->pool());
        // LeakyReLU's derivative from the pre-activation's sign. The chain
        // added this product into zeroed gradients (0 + x), which only
        // turns a -0 into +0; every score gradient it reaches is a sum
        // that starts at +0, where adding either zero gives the same bits.
        const float* pre_p = pre->data();
        float* dl_p = dl.data();
        core::ParallelForRange(
            bg->pool(), n_edges, kElementGrain,
            [pre_p, dl_p, slope](int64_t begin, int64_t end) {
              for (int64_t i = begin; i < end; ++i) {
                dl_p[i] *= pre_p[i] > 0.0f ? 1.0f : slope;
              }
            });
        // Scatter into the scores in the chain's reverse tape order: edge
        // type, source, destination (the chain's Add evaluated its
        // destination gather first). A score column that serves as both
        // s_src and s_dst then adds its terms in the chain's order.
        auto scatter = [bg, dl_p](
                           Var score,
                           const std::shared_ptr<const std::vector<int32_t>>&
                               ids) {
          if (!bg->requires_grad(score)) return;
          Tensor& ds = bg->mutable_grad(score);
          const auto csr = kernels::GetCsr(ids, ds.rows());
          kernels::ScatterAddRows(dl_p, *csr, 1, ds.data(), bg->pool());
        };
        if (s_edge.valid()) scatter(s_edge, etype);
        scatter(s_src, src);
        scatter(s_dst, dst);
      });
}

Var ConcatCols(Graph* g, const std::vector<Var>& parts) {
  FEDDA_CHECK(!parts.empty());
  const int64_t rows = g->value(parts[0]).rows();
  int64_t total_cols = 0;
  for (Var p : parts) {
    FEDDA_CHECK_EQ(g->value(p).rows(), rows);
    total_cols += g->value(p).cols();
  }
  Tensor out(rows, total_cols);
  int64_t offset = 0;
  for (Var p : parts) {
    const Tensor& pv = g->value(p);
    for (int64_t r = 0; r < rows; ++r) {
      std::copy(pv.data() + r * pv.cols(), pv.data() + (r + 1) * pv.cols(),
                out.data() + r * total_cols + offset);
    }
    offset += pv.cols();
  }
  return g->AddNode(
      std::move(out), parts,
      [inputs = parts](Graph* bg, Var self) {
        const Tensor& dy = bg->grad(self);
        const int64_t n_cols_total = dy.cols();
        int64_t col_off = 0;
        for (Var p : inputs) {
          const int64_t pc = bg->value(p).cols();
          if (bg->requires_grad(p)) {
            Tensor& dp = bg->mutable_grad(p);
            for (int64_t r = 0; r < dy.rows(); ++r) {
              const float* src = dy.data() + r * n_cols_total + col_off;
              float* dst = dp.data() + r * pc;
              for (int64_t c = 0; c < pc; ++c) dst[c] += src[c];
            }
          }
          col_off += pc;
        }
      });
}

Var ConcatRows(Graph* g, const std::vector<Var>& parts) {
  FEDDA_CHECK(!parts.empty());
  const int64_t cols = g->value(parts[0]).cols();
  int64_t total_rows = 0;
  for (Var p : parts) {
    FEDDA_CHECK_EQ(g->value(p).cols(), cols);
    total_rows += g->value(p).rows();
  }
  Tensor out(total_rows, cols);
  int64_t offset = 0;
  for (Var p : parts) {
    const Tensor& pv = g->value(p);
    std::copy(pv.data(), pv.data() + pv.size(), out.data() + offset * cols);
    offset += pv.rows();
  }
  return g->AddNode(
      std::move(out), parts,
      [inputs = parts](Graph* bg, Var self) {
        const Tensor& dy = bg->grad(self);
        const int64_t n_cols = dy.cols();
        int64_t col_off = 0;
        for (Var p : inputs) {
          const int64_t pr = bg->value(p).rows();
          if (bg->requires_grad(p)) {
            Tensor& dp = bg->mutable_grad(p);
            const float* src = dy.data() + col_off * n_cols;
            for (int64_t i = 0; i < pr * n_cols; ++i) dp.data()[i] += src[i];
          }
          col_off += pr;
        }
      });
}

Var RowL2Normalize(Graph* g, Var a, float eps) {
  const Tensor& av = g->value(a);
  const int64_t rows = av.rows(), cols = av.cols();
  Tensor out(rows, cols);
  // Per-row norms live as long as the backward closure that reads them.
  auto norms_keep =
      std::make_shared<std::vector<float>>(static_cast<size_t>(rows), 0.0f);
  float* norms = norms_keep->data();
  // The sqrt and divide keep this loop scalar on every path; raw row
  // pointers only drop the per-element index checks (out is av-shaped).
  const float* x = av.data();
  float* y = out.data();
  core::ParallelForRange(
      g->pool(), rows, RowGrain(cols),
      [x, y, norms, cols, eps](int64_t begin, int64_t end) {
        for (int64_t r = begin; r < end; ++r) {
          const float* xrow = x + r * cols;
          float* yrow = y + r * cols;
          double sq = 0.0;
          for (int64_t c = 0; c < cols; ++c) {
            sq += static_cast<double>(xrow[c]) * xrow[c];
          }
          const float n = std::max(static_cast<float>(std::sqrt(sq)), eps);
          norms[r] = n;
          for (int64_t c = 0; c < cols; ++c) yrow[c] = xrow[c] / n;
        }
      });
  return g->AddNode(
      std::move(out), {a},
      [a, norms, norms_keep](Graph* bg, Var self) {
        if (!bg->requires_grad(a)) return;
        const Tensor& dy = bg->grad(self);
        const Tensor& yv = bg->value(self);
        Tensor& da = bg->mutable_grad(a);
        FEDDA_CHECK(dy.SameShape(yv) && da.SameShape(yv));
        const int64_t n_rows = dy.rows(), n_cols = dy.cols();
        const float* dyp = dy.data();
        const float* yp = yv.data();
        float* dap = da.data();
        core::ParallelForRange(
            bg->pool(), n_rows, RowGrain(n_cols),
            [dyp, yp, dap, norms, n_cols](int64_t begin, int64_t end) {
              for (int64_t r = begin; r < end; ++r) {
                const float* dyrow = dyp + r * n_cols;
                const float* yrow = yp + r * n_cols;
                float* darow = dap + r * n_cols;
                // da_r = (dy_r - y_r * (y_r . dy_r)) / ||a_r||
                float dot = 0.0f;
                for (int64_t c = 0; c < n_cols; ++c) dot += yrow[c] * dyrow[c];
                const float inv_n = 1.0f / norms[r];
                for (int64_t c = 0; c < n_cols; ++c) {
                  darow[c] += (dyrow[c] - yrow[c] * dot) * inv_n;
                }
              }
            });
      });
}

Var RowDot(Graph* g, Var a, Var b) {
  const Tensor& av = g->value(a);
  const Tensor& bv = g->value(b);
  FEDDA_CHECK(av.SameShape(bv));
  Tensor out(av.rows(), 1);
  kernels::RowDot(av.data(), bv.data(), out.data(), av.rows(), av.cols(),
                  g->pool());
  return g->AddNode(
      std::move(out), {a, b},
      [a, b](Graph* bg, Var self) {
        const Tensor& dy = bg->grad(self);
        const Tensor& a_in = bg->value(a);
        const Tensor& b_in = bg->value(b);
        const int64_t rows = a_in.rows(), cols = a_in.cols();
        FEDDA_CHECK(b_in.SameShape(a_in) && dy.rows() == rows &&
                    dy.cols() == 1);
        if (bg->requires_grad(a)) {
          Tensor& da = bg->mutable_grad(a);
          FEDDA_CHECK(GradFits(da, a_in));
          kernels::RowScaleAccumulate(dy.data(), b_in.data(), da.data(), rows,
                                      cols, bg->pool());
        }
        if (bg->requires_grad(b)) {
          Tensor& db = bg->mutable_grad(b);
          FEDDA_CHECK(GradFits(db, a_in));
          kernels::RowScaleAccumulate(dy.data(), a_in.data(), db.data(), rows,
                                      cols, bg->pool());
        }
      });
}

Var BceWithLogits(Graph* g, Var logits, const Tensor& labels) {
  const Tensor& zv = g->value(logits);
  FEDDA_CHECK_EQ(zv.cols(), 1);
  FEDDA_CHECK(zv.SameShape(labels));
  FEDDA_CHECK_GT(zv.rows(), 0);
  // Stable form: loss_i = max(z,0) - z*y + log(1 + exp(-|z|)). The exp and
  // log keep this scalar on every path.
  double total = 0.0;
  for (int64_t i = 0; i < zv.rows(); ++i) {
    const float z = zv.data()[i];
    const float y = labels.data()[i];
    total += std::max(z, 0.0f) - z * y + std::log1p(std::exp(-std::fabs(z)));
  }
  Tensor out(1, 1);
  out.at(0, 0) = static_cast<float>(total / zv.rows());
  auto labels_copy = std::make_shared<Tensor>(labels);
  return g->AddNode(
      std::move(out), {logits},
      [logits, labels_copy](Graph* bg, Var self) {
        if (!bg->requires_grad(logits)) return;
        const float dy = bg->grad(self).at(0, 0);
        const Tensor& z_in = bg->value(logits);
        Tensor& dz = bg->mutable_grad(logits);
        FEDDA_CHECK(z_in.SameShape(*labels_copy) && dz.SameShape(z_in));
        const float* zp = z_in.data();
        const float* yp = labels_copy->data();
        float* dzp = dz.data();
        const float inv_n = 1.0f / static_cast<float>(z_in.rows());
        for (int64_t i = 0; i < z_in.rows(); ++i) {
          const float sig = 1.0f / (1.0f + std::exp(-zp[i]));
          dzp[i] += dy * (sig - yp[i]) * inv_n;
        }
      });
}

Var SoftmaxCrossEntropy(Graph* g, Var logits,
                        std::shared_ptr<const std::vector<int32_t>> labels) {
  const Tensor& zv = g->value(logits);
  const int64_t n = zv.rows(), c = zv.cols();
  FEDDA_CHECK_GT(n, 0);
  FEDDA_CHECK_GT(c, 0);
  FEDDA_CHECK_EQ(static_cast<int64_t>(labels->size()), n);

  // Cache the row-wise softmax for the backward pass.
  auto softmax = std::make_shared<Tensor>(n, c);
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const int32_t label = (*labels)[static_cast<size_t>(i)];
    FEDDA_CHECK(label >= 0 && label < c) << "label out of range";
    float row_max = zv.at(i, 0);
    for (int64_t j = 1; j < c; ++j) row_max = std::max(row_max, zv.at(i, j));
    double sum_exp = 0.0;
    for (int64_t j = 0; j < c; ++j) {
      const float e = std::exp(zv.at(i, j) - row_max);
      softmax->at(i, j) = e;
      sum_exp += e;
    }
    for (int64_t j = 0; j < c; ++j) {
      softmax->at(i, j) = static_cast<float>(softmax->at(i, j) / sum_exp);
    }
    // -log softmax[label] in the shifted form.
    total += std::log(sum_exp) - (zv.at(i, label) - row_max);
  }
  Tensor out(1, 1);
  out.at(0, 0) = static_cast<float>(total / static_cast<double>(n));
  return g->AddNode(
      std::move(out), {logits},
      [logits, labels, softmax](Graph* bg, Var self) {
        if (!bg->requires_grad(logits)) return;
        const float dy = bg->grad(self).at(0, 0);
        Tensor& dz = bg->mutable_grad(logits);
        const int64_t n_rows = softmax->rows(), n_classes = softmax->cols();
        const float inv_n = 1.0f / static_cast<float>(n_rows);
        for (int64_t i = 0; i < n_rows; ++i) {
          const int32_t label = (*labels)[static_cast<size_t>(i)];
          for (int64_t j = 0; j < n_classes; ++j) {
            const float onehot = j == label ? 1.0f : 0.0f;
            dz.at(i, j) += dy * (softmax->at(i, j) - onehot) * inv_n;
          }
        }
      });
}

}  // namespace fedda::tensor
