// Kernel-equivalence harness (DESIGN.md §13): every dispatched kernel must
// produce *byte-identical* output on every available dispatch path at every
// thread count. The reference for each case is the scalar path executed
// inline (null pool); the battery re-runs the same case under the
// parameterized (path, threads) pair and compares with memcmp, so negative
// zeros, NaN payloads and denormals all count.
//
// Shapes are adversarial on purpose: empty, singleton, every tail residue
// n ≡ 1..7 (mod 8) around the AVX2 vector width, row counts around the
// matmul's 4-row register blocks and 8-row lane groups at widths around its
// 8-, 16- and 64-column tiles, empty outputs with many rows, zeros over inf
// and NaN inside one register block, aliased outputs for the elementwise
// kernels, and gather/scatter/edge index patterns with heavy duplication. The transposed matmuls are also
// pinned to the MatMul-of-a-Transposed()-copy form they replace in the
// MatMul backward.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "gtest/gtest.h"
#include "tensor/kernels/kernels.h"
#include "tensor/tensor.h"

namespace fedda::tensor {
namespace {

namespace k = ::fedda::tensor::kernels;

k::DispatchMode ModeFor(k::Path path) {
  switch (path) {
    case k::Path::kScalar:
      return k::DispatchMode::kScalar;
    case k::Path::kAvx2:
      return k::DispatchMode::kAvx2;
  }
  return k::DispatchMode::kScalar;
}

/// Saves and restores the process-wide dispatch mode around each test.
class DispatchGuard {
 public:
  DispatchGuard() : saved_(k::dispatch_mode()) {}
  ~DispatchGuard() { k::SetDispatchMode(saved_); }

 private:
  k::DispatchMode saved_;
};

uint32_t Bits(float v) {
  uint32_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

/// Deterministic data with the hostile cases mixed in: exact zeros (the
/// matmul zero-skip), negative zeros, and magnitudes spread over several
/// orders so reassociated accumulation would actually change bits.
std::vector<float> RandomData(int64_t n, core::Rng* rng) {
  std::vector<float> out(static_cast<size_t>(n));
  for (auto& v : out) {
    const double roll = rng->Uniform();
    if (roll < 0.05) {
      v = 0.0f;
    } else if (roll < 0.08) {
      v = -0.0f;
    } else if (roll < 0.12) {
      v = static_cast<float>(rng->Uniform(-1e-6, 1e-6));
    } else {
      v = static_cast<float>(rng->Uniform(-8.0, 8.0));
    }
  }
  return out;
}

class KernelEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<k::Path, int>> {
 protected:
  void SetUp() override {
    path_ = std::get<0>(GetParam());
    const int threads = std::get<1>(GetParam());
    if (threads > 0) pool_ = std::make_unique<core::ThreadPool>(threads);
  }

  core::ThreadPool* pool() { return pool_.get(); }

  /// Runs `make_output` twice — scalar reference inline, then the
  /// parameterized path on the test's pool — and requires byte equality.
  /// `make_output` must regenerate any in/out buffers itself so the two
  /// runs start from identical state.
  template <typename Fn>
  void RunCase(const std::string& what, Fn&& make_output) {
    k::SetDispatchMode(k::DispatchMode::kScalar);
    ASSERT_EQ(k::ActivePath(), k::Path::kScalar);
    const std::vector<float> expected = make_output(nullptr);
    k::SetDispatchMode(ModeFor(path_));
    ASSERT_EQ(k::ActivePath(), path_);
    const std::vector<float> actual = make_output(pool());
    ASSERT_EQ(expected.size(), actual.size()) << what;
    if (expected.empty()) return;
    if (std::memcmp(expected.data(), actual.data(),
                    expected.size() * sizeof(float)) == 0) {
      return;
    }
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(Bits(expected[i]), Bits(actual[i]))
          << what << ": first bit mismatch at flat index " << i << " ("
          << expected[i] << " vs " << actual[i] << ") on path "
          << k::PathName(path_);
    }
  }

  DispatchGuard guard_;
  k::Path path_ = k::Path::kScalar;
  std::unique_ptr<core::ThreadPool> pool_;
};

// Tail residues around the 8-lane vector width, explicit per the harness
// contract: n ≡ 0..7 (mod 8) both below and above one full vector.
const int64_t kTailSizes[] = {0,  1,  2,  3,  4,  5,  6,  7,  8,  9,
                              15, 16, 17, 33, 34, 35, 36, 37, 38, 39,
                              63, 64, 65, 1000};

// Widths for the row kernels and the transposed matmuls: every residue
// around the 8-lane vector and one wide case.
const int64_t kRowWidths[] = {0,  1,  2,  3,  4,  5,  6,  7,  8,  9,
                              10, 11, 12, 13, 14, 15, 16, 17, 1000};

/// RandomData plus NaN entries (the same quiet NaN everywhere, so the
/// payload a path propagates cannot depend on operand order).
std::vector<float> RandomDataWithNan(int64_t n, core::Rng* rng) {
  std::vector<float> out = RandomData(n, rng);
  for (auto& v : out) {
    if (rng->Uniform() < 0.03) v = std::numeric_limits<float>::quiet_NaN();
  }
  return out;
}

/// RandomData plus NaN and both infinities. Inf times zero and inf minus
/// inf make NaNs of their own, so the planted NaN is the one this machine's
/// arithmetic produces: every NaN in a case then has the same bits, and the
/// payload a path propagates cannot depend on operand order.
std::vector<float> RandomDataWithSpecials(int64_t n, core::Rng* rng) {
  volatile float inf = std::numeric_limits<float>::infinity();
  const float nan = inf - inf;
  std::vector<float> out = RandomData(n, rng);
  for (auto& v : out) {
    const double roll = rng->Uniform();
    if (roll < 0.02) {
      v = nan;
    } else if (roll < 0.03) {
      v = inf;
    } else if (roll < 0.04) {
      v = -inf;
    }
  }
  return out;
}

void ExpectSameBits(const std::string& what, const std::vector<float>& want,
                    const std::vector<float>& got) {
  ASSERT_EQ(want.size(), got.size()) << what;
  if (want.empty() ||
      std::memcmp(want.data(), got.data(), want.size() * sizeof(float)) ==
          0) {
    return;
  }
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(Bits(want[i]), Bits(got[i]))
        << what << ": first bit mismatch at flat index " << i;
  }
}

TEST_P(KernelEquivalenceTest, MatMul) {
  // Corner shapes, then row counts around the AVX2 bodies' 4-row blocks
  // and 8- and 16-row lane groups at widths on both sides of every column
  // tile (n == 0 included: no body may touch an empty output), and
  // reduction lengths around the lane body's 8-step tiles at one output
  // column. A and B hold zeros and specials, so a dropped zero-skip turns
  // 0 * inf into NaN.
  std::vector<std::tuple<int64_t, int64_t, int64_t>> shapes = {
      {0, 0, 0},  {0, 3, 2},  {1, 1, 1},  {3, 5, 7},   {2, 8, 8},
      {4, 3, 64}, {2, 2, 65}, {1, 9, 71}, {5, 17, 130}, {3, 257, 1},
      {7, 1, 9},  {9, 3, 0},  {17, 5, 0}};
  for (int64_t n : {0, 1, 8, 16, 24, 40, 63, 64, 65, 71}) {
    for (int64_t m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 33}) {
      shapes.emplace_back(m, 7, n);
    }
  }
  for (int64_t kd : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 17}) {
    shapes.emplace_back(27, kd, 1);
  }
  core::Rng rng(1234);
  for (const auto& shape : shapes) {
    // Plain copies, not structured bindings: the lambda below captures them.
    const int64_t m = std::get<0>(shape);
    const int64_t kd = std::get<1>(shape);
    const int64_t n = std::get<2>(shape);
    const std::vector<float> a = RandomDataWithSpecials(m * kd, &rng);
    const std::vector<float> b = RandomDataWithSpecials(kd * n, &rng);
    RunCase("matmul " + std::to_string(m) + "x" + std::to_string(kd) + "x" +
                std::to_string(n),
            [&](core::ThreadPool* p) {
              std::vector<float> out(static_cast<size_t>(m * n), 0.0f);
              k::MatMul(a.data(), b.data(), out.data(), m, kd, n, p);
              return out;
            });
  }
}

TEST_P(KernelEquivalenceTest, MatMulZeroSkipIsSemantic) {
  // Rows of B reached only through zero A entries hold inf/NaN; the
  // zero-skip means they must never be touched, on any path. If a path
  // dropped the skip, 0 * inf = NaN would leak into the output. Over every
  // odd B row (all +inf), some rows of A have an exact zero (either sign)
  // and the others a positive entry, and B row kd - 3 (NaN) is reached
  // through zeros only. The 27 x 8 case puts both kinds of row in every
  // 4-row register block and 8-row lane group of the AVX2 bodies.
  const float inf = std::numeric_limits<float>::infinity();
  const struct {
    int64_t m, kd;
    std::vector<int64_t> widths;
  } cases[] = {{3, 4, {19}}, {27, 8, {1, 8, 16, 19}}};
  for (const auto& c : cases) {
    const int64_t m = c.m, kd = c.kd, nan_row = c.kd - 3;
    std::vector<float> a(static_cast<size_t>(m * kd));
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t kk = 0; kk < kd; ++kk) {
        const bool zero = kk == nan_row || (i + kk) % 3 == 0;
        a[static_cast<size_t>(i * kd + kk)] =
            zero ? (i % 2 == 0 ? 0.0f : -0.0f)
                 : 0.25f * static_cast<float>(1 + (i + kk) % 5);
      }
    }
    for (int64_t n : c.widths) {
      std::vector<float> b(static_cast<size_t>(kd * n));
      for (int64_t kk = 0; kk < kd; ++kk) {
        for (int64_t j = 0; j < n; ++j) {
          b[static_cast<size_t>(kk * n + j)] =
              kk == nan_row ? std::numeric_limits<float>::quiet_NaN()
              : kk % 2 == 1 ? inf
                            : 0.5f + static_cast<float>(j);
        }
      }
      RunCase("matmul-zero-skip " + std::to_string(m) + "x" +
                  std::to_string(kd) + "x" + std::to_string(n),
              [&](core::ThreadPool* p) {
                std::vector<float> out(static_cast<size_t>(m * n), 0.0f);
                k::MatMul(a.data(), b.data(), out.data(), m, kd, n, p);
                for (float v : out) EXPECT_FALSE(std::isnan(v));
                return out;
              });
    }
  }
}

/// The MatMul backward's historical form: MatMul on a Transposed() copy.
std::vector<float> MatMulOfTransposed(const std::vector<float>& a,
                                      int64_t a_rows, int64_t a_cols,
                                      const std::vector<float>& b,
                                      int64_t b_rows, int64_t b_cols,
                                      bool transpose_a) {
  DispatchGuard guard;
  k::SetDispatchMode(k::DispatchMode::kScalar);
  const Tensor at = Tensor::FromVector(a_rows, a_cols, a);
  const Tensor bt = Tensor::FromVector(b_rows, b_cols, b);
  return transpose_a ? MatMulValue(at.Transposed(), bt).vec()
                     : MatMulValue(at, bt.Transposed()).vec();
}

TEST_P(KernelEquivalenceTest, TransposedMatMuls) {
  // Each dimension sweeps kRowWidths with the other two held small, so
  // every vector tail of every loop (including the n == 1 lane-per-row
  // body of MatMulAtB) is hit on both kernels, and n == 0 meets every row
  // count.
  std::vector<std::tuple<int64_t, int64_t, int64_t>> shapes;
  for (int64_t w : kRowWidths) {
    shapes.emplace_back(w, 5, 3);
    shapes.emplace_back(4, w, 9);
    shapes.emplace_back(3, 9, w);
    shapes.emplace_back(w, 17, 1);
    shapes.emplace_back(w, 17, 0);
  }
  shapes.emplace_back(33, 48, 16);
  core::Rng rng(321);
  for (const auto& shape : shapes) {
    // Plain copies, not structured bindings: the lambdas below capture them.
    const int64_t m = std::get<0>(shape);
    const int64_t kd = std::get<1>(shape);
    const int64_t n = std::get<2>(shape);
    const std::string tag = " " + std::to_string(m) + "x" +
                            std::to_string(kd) + "x" + std::to_string(n);
    // MatMulAtB: out (m x n) = aᵀ b with a stored (k x m). RunCase runs
    // the parameterized path last, so at_out ends up holding its output.
    const std::vector<float> at_a = RandomDataWithNan(kd * m, &rng);
    const std::vector<float> at_b = RandomDataWithNan(kd * n, &rng);
    std::vector<float> at_out;
    RunCase("matmul-at-b" + tag, [&](core::ThreadPool* p) {
      std::vector<float> out(static_cast<size_t>(m * n), 0.0f);
      k::MatMulAtB(at_a.data(), at_b.data(), out.data(), m, kd, n, p);
      at_out = out;
      return out;
    });
    ExpectSameBits("matmul-at-b vs Transposed()" + tag,
                   MatMulOfTransposed(at_a, kd, m, at_b, kd, n, true), at_out);
    // MatMulABt: out (m x n) = a bᵀ with b stored (n x k).
    const std::vector<float> bt_a = RandomDataWithNan(m * kd, &rng);
    const std::vector<float> bt_b = RandomDataWithNan(n * kd, &rng);
    std::vector<float> bt_out;
    RunCase("matmul-a-bt" + tag, [&](core::ThreadPool* p) {
      std::vector<float> out(static_cast<size_t>(m * n), 0.0f);
      k::MatMulABt(bt_a.data(), bt_b.data(), out.data(), m, kd, n, p);
      bt_out = out;
      return out;
    });
    ExpectSameBits("matmul-a-bt vs Transposed()" + tag,
                   MatMulOfTransposed(bt_a, m, kd, bt_b, n, kd, false),
                   bt_out);
  }
}

TEST_P(KernelEquivalenceTest, TransposedMatMulZeroSkipIsSemantic) {
  // Every reduction term whose A entry is an exact zero (either sign)
  // multiplies an inf. A path that dropped the skip would turn 0 * inf
  // into NaN; the skipped terms must leave the output finite and equal to
  // the Transposed() reference bit for bit.
  const float inf = std::numeric_limits<float>::infinity();
  for (int64_t n : {1LL, 7LL, 16LL, 19LL}) {
    const int64_t m = 11, kd = 10;
    // AtB: a stored (k x m). Row kk of b is all inf wherever a[kk, i] is 0
    // for every i, and otherwise finite.
    std::vector<float> a(static_cast<size_t>(kd * m), 0.0f);
    std::vector<float> b(static_cast<size_t>(kd * n), inf);
    for (int64_t kk = 0; kk < kd; ++kk) {
      if (kk % 3 == 0) {  // an all-zero row of a (both signs): b row is inf
        for (int64_t i = 1; i < m; i += 2) {
          a[static_cast<size_t>(kk * m + i)] = -0.0f;
        }
        continue;
      }
      for (int64_t i = 0; i < m; ++i) {
        a[static_cast<size_t>(kk * m + i)] =
            (i + kk) % 4 == 0 ? -0.0f : 0.25f * static_cast<float>(i - kk);
      }
      for (int64_t j = 0; j < n; ++j) {
        b[static_cast<size_t>(kk * n + j)] = 0.5f + static_cast<float>(j);
      }
    }
    std::vector<float> at_out;
    RunCase("matmul-at-b zero-skip n=" + std::to_string(n),
            [&](core::ThreadPool* p) {
              std::vector<float> out(static_cast<size_t>(m * n), 0.0f);
              k::MatMulAtB(a.data(), b.data(), out.data(), m, kd, n, p);
              for (float v : out) EXPECT_FALSE(std::isnan(v));
              at_out = out;
              return out;
            });
    ExpectSameBits("matmul-at-b zero-skip vs Transposed()",
                   MatMulOfTransposed(a, kd, m, b, kd, n, true), at_out);

    // ABt: a (m x k), b stored (n x k). Column kk of b is inf wherever
    // column kk of a is all zero.
    std::vector<float> a2(static_cast<size_t>(m * kd), 0.0f);
    std::vector<float> b2(static_cast<size_t>(n * kd), inf);
    for (int64_t kk = 0; kk < kd; ++kk) {
      if (kk % 3 == 0) {
        for (int64_t i = 1; i < m; i += 2) {
          a2[static_cast<size_t>(i * kd + kk)] = -0.0f;
        }
        continue;
      }
      for (int64_t i = 0; i < m; ++i) {
        a2[static_cast<size_t>(i * kd + kk)] =
            (i + kk) % 4 == 0 ? -0.0f : 0.25f * static_cast<float>(i - kk);
      }
      for (int64_t j = 0; j < n; ++j) {
        b2[static_cast<size_t>(j * kd + kk)] = 0.5f + static_cast<float>(j);
      }
    }
    std::vector<float> bt_out;
    RunCase("matmul-a-bt zero-skip n=" + std::to_string(n),
            [&](core::ThreadPool* p) {
              std::vector<float> out(static_cast<size_t>(m * n), 0.0f);
              k::MatMulABt(a2.data(), b2.data(), out.data(), m, kd, n, p);
              for (float v : out) EXPECT_FALSE(std::isnan(v));
              bt_out = out;
              return out;
            });
    ExpectSameBits("matmul-a-bt zero-skip vs Transposed()",
                   MatMulOfTransposed(a2, m, kd, b2, n, kd, false), bt_out);
  }
}

TEST_P(KernelEquivalenceTest, RowKernels) {
  // Row counts straddle the 8-row lanes of the AVX2 RowDot body.
  core::Rng rng(55);
  for (int64_t cols : kRowWidths) {
    for (int64_t rows : {0LL, 1LL, 7LL, 8LL, 9LL, 17LL, 33LL}) {
      const std::vector<float> x = RandomDataWithNan(rows * cols, &rng);
      const std::vector<float> y = RandomDataWithNan(rows * cols, &rng);
      const std::vector<float> s = RandomDataWithNan(rows, &rng);
      const std::vector<float> seed = RandomData(rows * cols, &rng);
      const std::vector<float> col_seed = RandomData(rows, &rng);
      const std::string tag =
          " " + std::to_string(rows) + "x" + std::to_string(cols);
      RunCase("row-scale-accumulate" + tag, [&](core::ThreadPool* p) {
        std::vector<float> dst = seed;
        k::RowScaleAccumulate(s.data(), x.data(), dst.data(), rows, cols, p);
        return dst;
      });
      RunCase("row-dot" + tag, [&](core::ThreadPool* p) {
        std::vector<float> dst = col_seed;
        k::RowDot(x.data(), y.data(), dst.data(), rows, cols, p);
        return dst;
      });
    }
  }
}

TEST_P(KernelEquivalenceTest, ElementwiseAndAccumulate) {
  core::Rng rng(77);
  for (int64_t n : kTailSizes) {
    const std::vector<float> a = RandomData(n, &rng);
    const std::vector<float> b = RandomData(n, &rng);
    RandomData(n, &rng);  // unused draw; keeps `seed` on its stream position
    const std::vector<float> seed = RandomData(n, &rng);
    const std::string tag = " n=" + std::to_string(n);
    RunCase("ewmul" + tag, [&](core::ThreadPool* p) {
      std::vector<float> out(a.size());
      k::EwMul(a.data(), b.data(), out.data(), n, p);
      return out;
    });
    RunCase("ewadd" + tag, [&](core::ThreadPool* p) {
      std::vector<float> out(a.size());
      k::EwAdd(a.data(), b.data(), out.data(), n, p);
      return out;
    });
    RunCase("ewsub" + tag, [&](core::ThreadPool* p) {
      std::vector<float> out(a.size());
      k::EwSub(a.data(), b.data(), out.data(), n, p);
      return out;
    });
    RunCase("accumulate-add" + tag, [&](core::ThreadPool* p) {
      std::vector<float> dst = seed;
      k::AccumulateAdd(dst.data(), a.data(), n, p);
      return dst;
    });
    RunCase("accumulate-axpy" + tag, [&](core::ThreadPool* p) {
      std::vector<float> dst = seed;
      k::AccumulateAxpy(dst.data(), -0.625f, a.data(), n, p);
      return dst;
    });
    RunCase("accumulate-mul" + tag, [&](core::ThreadPool* p) {
      std::vector<float> dst = seed;
      k::AccumulateMul(dst.data(), a.data(), b.data(), n, p);
      return dst;
    });
    RunCase("scale" + tag, [&](core::ThreadPool* p) {
      std::vector<float> dst = seed;
      k::ScaleInPlace(dst.data(), 1.7f, n, p);
      return dst;
    });
  }
}

TEST_P(KernelEquivalenceTest, ElementwiseAliasedOutput) {
  // The elementwise kernels document that out may alias an input (lane i
  // reads only index i). Exercise out == a explicitly.
  core::Rng rng(99);
  for (int64_t n : {1LL, 7LL, 33LL, 100LL}) {
    const std::vector<float> a = RandomData(n, &rng);
    const std::vector<float> b = RandomData(n, &rng);
    const std::string tag = " aliased n=" + std::to_string(n);
    RunCase("ewmul" + tag, [&](core::ThreadPool* p) {
      std::vector<float> buf = a;
      k::EwMul(buf.data(), b.data(), buf.data(), n, p);
      return buf;
    });
    RunCase("ewadd" + tag, [&](core::ThreadPool* p) {
      std::vector<float> buf = a;
      k::EwAdd(buf.data(), b.data(), buf.data(), n, p);
      return buf;
    });
    RunCase("ewsub" + tag, [&](core::ThreadPool* p) {
      std::vector<float> buf = a;
      k::EwSub(b.data(), buf.data(), buf.data(), n, p);
      return buf;
    });
  }
}

/// EdgeAttentionLogits' two outputs, pre-activations then logits, in one
/// vector for RunCase.
std::vector<float> EdgeLogits(const std::vector<float>& s_src,
                              const std::vector<float>& s_dst,
                              const float* s_edge,
                              const std::vector<int32_t>& src,
                              const std::vector<int32_t>& dst,
                              const std::vector<int32_t>& etype, float slope,
                              core::ThreadPool* pool) {
  const int64_t n = static_cast<int64_t>(src.size());
  std::vector<float> out(2 * src.size());
  k::EdgeAttentionLogits(s_src.data(), s_dst.data(), s_edge, src.data(),
                         dst.data(), etype.data(), slope, out.data(),
                         out.data() + n, n, pool);
  return out;
}

TEST_P(KernelEquivalenceTest, EdgeAttentionLogitsSpecialValues) {
  // The compare+blend vector body must agree with the scalar ternary on
  // the awkward pre-activations: -0.0 (not > 0, takes the slope branch and
  // keeps its sign bit through the multiply) and NaN (not > 0, slope
  // branch). Edge e reads source score e and a -0 destination score, so
  // its pre-activation is exactly a[e]; nine edges fill one vector and
  // leave a scalar tail.
  const std::vector<float> a = {
      0.0f, -0.0f, std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      1.0f, -1.0f, std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min()};
  const std::vector<float> minus_zero = {-0.0f};
  std::vector<int32_t> src(a.size()), dst(a.size(), 0);
  for (size_t e = 0; e < a.size(); ++e) src[e] = static_cast<int32_t>(e);
  for (float slope : {0.25f, 0.0f, -0.5f}) {
    RunCase("edge-attention-logits special values slope=" +
                std::to_string(slope),
            [&](core::ThreadPool* p) {
              return EdgeLogits(a, minus_zero, nullptr, src, dst, {}, slope,
                                p);
            });
  }
}

TEST_P(KernelEquivalenceTest, BiasKernels) {
  core::Rng rng(11);
  const struct {
    int64_t rows, cols;
  } shapes[] = {{0, 5}, {1, 1}, {3, 9}, {4, 33}, {2, 130}, {5, 64}, {7, 3}};
  for (const auto& s : shapes) {
    const std::vector<float> x = RandomData(s.rows * s.cols, &rng);
    const std::vector<float> bias = RandomData(s.cols, &rng);
    const std::string tag = " " + std::to_string(s.rows) + "x" +
                            std::to_string(s.cols);
    const size_t out_size = static_cast<size_t>(s.rows * s.cols);
    RunCase("bias-add" + tag, [&](core::ThreadPool* p) {
      std::vector<float> out(out_size);
      k::BiasAdd(x.data(), bias.data(), out.data(), s.rows, s.cols, p);
      return out;
    });
  }
}

std::vector<int32_t> RandomIndices(int64_t n_idx, int64_t num_rows,
                                   core::Rng* rng) {
  std::vector<int32_t> idx(static_cast<size_t>(n_idx));
  for (auto& v : idx) {
    // Heavy duplication: half the draws land in the first two rows, so
    // scatter destinations see many contributions.
    v = static_cast<int32_t>(rng->Uniform() < 0.5
                                 ? rng->UniformInt(uint64_t{2})
                                 : rng->UniformInt(
                                       static_cast<uint64_t>(num_rows)));
  }
  return idx;
}

TEST_P(KernelEquivalenceTest, GatherScatterSegment) {
  core::Rng rng(42);
  const struct {
    int64_t n_idx, num_rows, cols;
  } shapes[] = {{0, 4, 3},  {1, 1, 1},   {5, 3, 7},  {64, 8, 33},
                {17, 5, 1}, {100, 4, 130}, {33, 33, 9}};
  for (const auto& s : shapes) {
    const std::vector<float> src = RandomData(s.num_rows * s.cols, &rng);
    const std::vector<float> contrib = RandomData(s.n_idx * s.cols, &rng);
    const std::vector<float> logits = RandomData(s.n_idx, &rng);
    const std::vector<float> dy = RandomData(s.n_idx, &rng);
    std::vector<int32_t> idx =
        s.num_rows > 0 ? RandomIndices(s.n_idx, s.num_rows, &rng)
                       : std::vector<int32_t>();
    const k::Csr csr = k::BuildCsr(idx, s.num_rows);
    const std::string tag = " n_idx=" + std::to_string(s.n_idx) +
                            " rows=" + std::to_string(s.num_rows) +
                            " cols=" + std::to_string(s.cols);
    RunCase("gather-rows" + tag, [&](core::ThreadPool* p) {
      std::vector<float> out(static_cast<size_t>(s.n_idx * s.cols));
      k::GatherRows(src.data(), idx.data(), s.n_idx, s.cols, out.data(), p);
      return out;
    });
    RunCase("scatter-add-rows" + tag, [&](core::ThreadPool* p) {
      std::vector<float> out(static_cast<size_t>(s.num_rows * s.cols), 0.0f);
      k::ScatterAddRows(contrib.data(), csr, s.cols, out.data(), p);
      return out;
    });
    RunCase("segment-softmax" + tag, [&](core::ThreadPool* p) {
      std::vector<float> out(static_cast<size_t>(s.n_idx));
      k::SegmentSoftmax(logits.data(), csr, out.data(), p);
      return out;
    });
    RunCase("segment-softmax-grad" + tag, [&](core::ThreadPool* p) {
      std::vector<float> y(static_cast<size_t>(s.n_idx));
      k::SegmentSoftmax(logits.data(), csr, y.data(), nullptr);
      std::vector<float> dl(static_cast<size_t>(s.n_idx), 0.0f);
      k::SegmentSoftmaxGrad(y.data(), dy.data(), csr, dl.data(), p);
      return dl;
    });
  }
}

TEST_P(KernelEquivalenceTest, EdgeAggregateKernels) {
  // Both EdgeAggregate kernels in each of their uses: the forward and the
  // input gradient of WeightedGatherSum (grouped by destination, then by
  // source) and the weight gradient of IndexedRowDot. Edge counts straddle
  // IndexedRowDot's 8-position lanes; widths hit every tail of both
  // bodies. Index draws duplicate heavily, so rows run empty, full, and
  // through self loops and repeated (src, dst) pairs. x, w and dy carry
  // NaN, +-0 and +-inf.
  core::Rng rng(66);
  for (int64_t cols : kRowWidths) {
    for (int64_t n_edges : {0LL, 1LL, 7LL, 8LL, 9LL, 17LL, 33LL, 100LL}) {
      const int64_t num_rows = 2 + n_edges / 4;  // RandomIndices needs 2
      const std::vector<float> x =
          RandomDataWithSpecials(num_rows * cols, &rng);
      const std::vector<float> dy =
          RandomDataWithSpecials(num_rows * cols, &rng);
      const std::vector<float> w = RandomDataWithSpecials(n_edges, &rng);
      const std::vector<float> seed = RandomData(num_rows * cols, &rng);
      const std::vector<float> col_seed = RandomData(n_edges, &rng);
      const std::vector<int32_t> src = RandomIndices(n_edges, num_rows, &rng);
      const std::vector<int32_t> dst = RandomIndices(n_edges, num_rows, &rng);
      const k::Csr by_dst = k::BuildCsr(dst, num_rows);
      const k::Csr by_src = k::BuildCsr(src, num_rows);
      const std::string tag = " edges=" + std::to_string(n_edges) +
                              " rows=" + std::to_string(num_rows) +
                              " cols=" + std::to_string(cols);
      RunCase("weighted-gather-sum" + tag, [&](core::ThreadPool* p) {
        std::vector<float> out(static_cast<size_t>(num_rows * cols), 0.0f);
        k::WeightedGatherSum(x.data(), src.data(), w.data(), by_dst, cols,
                             out.data(), p);
        return out;
      });
      RunCase("weighted-gather-sum by source" + tag,
              [&](core::ThreadPool* p) {
                std::vector<float> dx = seed;  // pre-seeded accumulator
                k::WeightedGatherSum(dy.data(), dst.data(), w.data(), by_src,
                                     cols, dx.data(), p);
                return dx;
              });
      RunCase("indexed-row-dot" + tag, [&](core::ThreadPool* p) {
        std::vector<float> dw = col_seed;
        k::IndexedRowDot(x.data(), src.data(), dy.data(), dst.data(),
                         dw.data(), n_edges, cols, p);
        return dw;
      });
    }
  }
}

TEST_P(KernelEquivalenceTest, EdgeAttentionLogits) {
  // Edge counts hit every tail of the 8-edge lanes and, at 5000, more than
  // one thread chunk. Index draws duplicate heavily and the scores carry
  // NaN, +-0 and +-inf; with and without the edge-type term, at the
  // model's slope, at 0 and at a negative slope.
  core::Rng rng(67);
  constexpr int64_t kEdgeTypes = 6;
  std::vector<int64_t> edge_counts(std::begin(kTailSizes),
                                   std::end(kTailSizes));
  edge_counts.push_back(5000);
  for (int64_t n_edges : edge_counts) {
    const int64_t num_rows = 2 + n_edges / 4;  // RandomIndices needs 2
    const std::vector<float> s_src = RandomDataWithSpecials(num_rows, &rng);
    const std::vector<float> s_dst = RandomDataWithSpecials(num_rows, &rng);
    const std::vector<float> s_edge = RandomDataWithSpecials(kEdgeTypes, &rng);
    const std::vector<int32_t> src = RandomIndices(n_edges, num_rows, &rng);
    const std::vector<int32_t> dst = RandomIndices(n_edges, num_rows, &rng);
    const std::vector<int32_t> etype =
        RandomIndices(n_edges, kEdgeTypes, &rng);
    for (float slope : {0.2f, 0.0f, -0.5f}) {
      const std::string tag = " edges=" + std::to_string(n_edges) +
                              " slope=" + std::to_string(slope);
      RunCase("edge-attention-logits" + tag, [&](core::ThreadPool* p) {
        return EdgeLogits(s_src, s_dst, nullptr, src, dst, etype, slope, p);
      });
      RunCase("edge-attention-logits with edge term" + tag,
              [&](core::ThreadPool* p) {
                return EdgeLogits(s_src, s_dst, s_edge.data(), src, dst,
                                  etype, slope, p);
              });
    }
  }
}

TEST_P(KernelEquivalenceTest, ScatterAddEmptyAndFullSegments) {
  // A CSR where some destinations receive nothing and one receives
  // everything — the degenerate segment shapes.
  const int64_t num_rows = 5, n_idx = 12, cols = 9;
  std::vector<int32_t> idx(static_cast<size_t>(n_idx), 2);  // all to row 2
  idx.back() = 4;                                           // one to row 4
  const k::Csr csr = k::BuildCsr(idx, num_rows);
  core::Rng rng(5);
  const std::vector<float> contrib = RandomData(n_idx * cols, &rng);
  const std::vector<float> logits = RandomData(n_idx, &rng);
  RunCase("scatter-add skewed", [&](core::ThreadPool* p) {
    std::vector<float> out(static_cast<size_t>(num_rows * cols), 0.0f);
    k::ScatterAddRows(contrib.data(), csr, cols, out.data(), p);
    return out;
  });
  RunCase("segment-softmax skewed", [&](core::ThreadPool* p) {
    std::vector<float> out(static_cast<size_t>(n_idx));
    k::SegmentSoftmax(logits.data(), csr, out.data(), p);
    return out;
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllPathsAllThreads, KernelEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(k::SupportedPaths()),
                       ::testing::Values(0, 1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<k::Path, int>>& param) {
      return std::string(k::PathName(std::get<0>(param.param))) + "_threads" +
             std::to_string(std::get<1>(param.param));
    });

// ---------------------------------------------------------------------------
// Dispatch policy unit tests (not parameterized).
// ---------------------------------------------------------------------------

TEST(DispatchPolicyTest, ParseDispatchMode) {
  EXPECT_EQ(k::ParseDispatchMode(nullptr), k::DispatchMode::kAuto);
  EXPECT_EQ(k::ParseDispatchMode(""), k::DispatchMode::kAuto);
  EXPECT_EQ(k::ParseDispatchMode("auto"), k::DispatchMode::kAuto);
  EXPECT_EQ(k::ParseDispatchMode("scalar"), k::DispatchMode::kScalar);
  EXPECT_EQ(k::ParseDispatchMode("avx2"), k::DispatchMode::kAvx2);
  EXPECT_EQ(k::ParseDispatchMode("neon"), k::DispatchMode::kAuto);
  EXPECT_EQ(k::ParseDispatchMode("bogus"), k::DispatchMode::kAuto);
}

TEST(DispatchPolicyTest, UnavailablePathFallsBackToScalar) {
  DispatchGuard guard;
  // Asking for AVX2 where it is unavailable degrades to scalar instead of
  // crashing.
  k::SetDispatchMode(k::DispatchMode::kAvx2);
  EXPECT_EQ(k::ActivePath(),
            k::Avx2Available() ? k::Path::kAvx2 : k::Path::kScalar);
}

TEST(DispatchPolicyTest, SupportedPathsAlwaysIncludesScalar) {
  const std::vector<k::Path> paths = k::SupportedPaths();
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths.front(), k::Path::kScalar);
  if (k::Avx2Available()) {
    bool has_avx2 = false;
    for (k::Path p : paths) has_avx2 |= (p == k::Path::kAvx2);
    EXPECT_TRUE(has_avx2);
  }
}

TEST(CsrCacheTest, HitsOnSharedVectorMissesOnFresh) {
  auto ids = std::make_shared<const std::vector<int32_t>>(
      std::vector<int32_t>{0, 2, 1, 2, 0});
  const int64_t hits_before = k::CsrCacheHits();
  const int64_t misses_before = k::CsrCacheMisses();
  auto csr1 = k::GetCsr(ids, 3);
  EXPECT_EQ(k::CsrCacheMisses(), misses_before + 1);
  auto csr2 = k::GetCsr(ids, 3);
  EXPECT_EQ(k::CsrCacheHits(), hits_before + 1);
  EXPECT_EQ(csr1.get(), csr2.get());  // literally the same grouping
  ASSERT_EQ(csr1->offsets.size(), 4u);
  EXPECT_EQ(csr1->offsets[3], 5);

  // A different num_rows for the same vector must rebuild, not serve the
  // 3-row grouping.
  auto csr3 = k::GetCsr(ids, 5);
  EXPECT_EQ(csr3->offsets.size(), 6u);
}

TEST(CsrCacheTest, ExpiredEntryIsRebuiltNotServedStale) {
  // Drop the owning shared_ptr, then allocate fresh vectors until one very
  // likely reuses the address. Whatever happens, GetCsr must return the
  // grouping for the *new* contents.
  auto ids = std::make_shared<const std::vector<int32_t>>(
      std::vector<int32_t>{1, 1, 1, 1});
  auto old_csr = k::GetCsr(ids, 2);
  EXPECT_EQ(old_csr->offsets[1], 0);  // row 0 empty
  ids.reset();
  for (int attempt = 0; attempt < 64; ++attempt) {
    auto fresh = std::make_shared<const std::vector<int32_t>>(
        std::vector<int32_t>{0, 0, 0, 0});
    auto csr = k::GetCsr(fresh, 2);
    ASSERT_EQ(csr->offsets[1], 4) << "stale CSR served on attempt "
                                  << attempt;
  }
}

TEST(CsrCacheTest, ExpiredEntryIsFreedAtTheNextInsertion) {
  auto ids = std::make_shared<const std::vector<int32_t>>(
      std::vector<int32_t>{0, 1, 1});
  const std::weak_ptr<const k::Csr> csr = k::GetCsr(ids, 2);
  // Allocated while `ids` is alive, so the two keys' addresses differ and
  // the second insertion cannot simply overwrite the first entry.
  auto other = std::make_shared<const std::vector<int32_t>>(
      std::vector<int32_t>{1, 0});
  ids.reset();
  EXPECT_FALSE(csr.expired());  // the cache still holds it
  const auto other_csr = k::GetCsr(other, 2);
  EXPECT_TRUE(csr.expired());
}

TEST(CsrCacheTest, BuildCsrGroupsInIncreasingPositionOrder) {
  const std::vector<int32_t> rows = {2, 0, 2, 1, 2, 0};
  const k::Csr csr = k::BuildCsr(rows, 3);
  ASSERT_EQ(csr.offsets.size(), 4u);
  EXPECT_EQ(csr.offsets[0], 0);
  EXPECT_EQ(csr.offsets[1], 2);
  EXPECT_EQ(csr.offsets[2], 3);
  EXPECT_EQ(csr.offsets[3], 6);
  // Within each destination, positions appear in increasing order — the
  // property that makes grouped scatter bit-identical to the sequential
  // loop.
  const std::vector<int32_t> expected_order = {1, 5, 3, 0, 2, 4};
  EXPECT_EQ(csr.order, expected_order);
}

}  // namespace
}  // namespace fedda::tensor
