// Randomized kernel-equivalence properties: for every supported dispatch
// path, random shapes and random seeds must reproduce the scalar reference
// bit for bit. Complements kernel_equivalence_test.cc's fixed adversarial
// battery with breadth — each iteration forces a different tail residue
// (n mod 8 cycles through 0..7) so no vector-width remainder goes untested.

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "gtest/gtest.h"
#include "tensor/kernels/kernels.h"

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

std::vector<float> RandomData(int64_t n, core::Rng* rng) {
  std::vector<float> out(static_cast<size_t>(n));
  for (auto& v : out) {
    const double roll = rng->Uniform();
    v = roll < 0.1 ? 0.0f : static_cast<float>(rng->Uniform(-4.0, 4.0));
  }
  return out;
}

/// RandomData plus -0, NaN and both infinities. The planted NaN is the one
/// this machine's arithmetic makes (inf - inf), so the NaNs that inf * 0
/// creates share its bits and no result depends on which NaN operand an
/// add or multiply propagates.
std::vector<float> RandomDataWithSpecials(int64_t n, core::Rng* rng) {
  volatile float inf = std::numeric_limits<float>::infinity();
  const float nan = inf - inf;
  std::vector<float> out = RandomData(n, rng);
  for (auto& v : out) {
    const double roll = rng->Uniform();
    if (roll < 0.03) {
      v = -0.0f;
    } else if (roll < 0.05) {
      v = nan;
    } else if (roll < 0.06) {
      v = inf;
    } else if (roll < 0.07) {
      v = -inf;
    }
  }
  return out;
}

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(float)) == 0);
}

class KernelPropertyTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = k::dispatch_mode(); }
  void TearDown() override { k::SetDispatchMode(saved_); }

  /// Checks `make_output` under every supported path × {inline, 1, 4
  /// threads} against the scalar inline reference.
  template <typename Fn>
  void CheckAllPaths(const std::string& what, Fn&& make_output) {
    k::SetDispatchMode(k::DispatchMode::kScalar);
    const std::vector<float> expected = make_output(nullptr);
    core::ThreadPool pool1(1);
    core::ThreadPool pool4(4);
    for (k::Path path : k::SupportedPaths()) {
      k::SetDispatchMode(ModeFor(path));
      ASSERT_TRUE(BitEqual(expected, make_output(nullptr)))
          << what << " diverged on " << k::PathName(path) << " (inline)";
      ASSERT_TRUE(BitEqual(expected, make_output(&pool1)))
          << what << " diverged on " << k::PathName(path) << " (1 thread)";
      ASSERT_TRUE(BitEqual(expected, make_output(&pool4)))
          << what << " diverged on " << k::PathName(path) << " (4 threads)";
    }
  }

 private:
  k::DispatchMode saved_ = k::DispatchMode::kAuto;
};

TEST_F(KernelPropertyTest, RandomizedElementwise) {
  core::Rng rng(2024);
  for (int iter = 0; iter < 24; ++iter) {
    // Force the tail residue to cycle 0..7 so every remainder is hit.
    const int64_t n =
        8 * static_cast<int64_t>(rng.UniformInt(uint64_t{12})) + (iter % 8);
    const std::vector<float> a = RandomData(n, &rng);
    const std::vector<float> b = RandomData(n, &rng);
    const std::vector<float> c = RandomData(n, &rng);
    const float alpha = static_cast<float>(rng.Uniform(-2.0, 2.0));
    const std::string tag = "iter " + std::to_string(iter) + " n=" +
                            std::to_string(n);
    CheckAllPaths("ewmul " + tag, [&](core::ThreadPool* p) {
      std::vector<float> out(a.size());
      k::EwMul(a.data(), b.data(), out.data(), n, p);
      return out;
    });
    CheckAllPaths("axpy " + tag, [&](core::ThreadPool* p) {
      std::vector<float> dst = c;
      k::AccumulateAxpy(dst.data(), alpha, a.data(), n, p);
      return dst;
    });
  }
}

TEST_F(KernelPropertyTest, RandomizedMatMul) {
  core::Rng rng(31337);
  for (int iter = 0; iter < 16; ++iter) {
    // Up to 20 rows spans several 4-row blocks and 8-row lane groups.
    const int64_t m = 1 + static_cast<int64_t>(rng.UniformInt(uint64_t{20}));
    const int64_t kd = 1 + static_cast<int64_t>(rng.UniformInt(uint64_t{40}));
    // Widths from 1 to 96 cover every column tile and tail residue.
    const int64_t n =
        1 + 8 * static_cast<int64_t>(rng.UniformInt(uint64_t{12})) +
        (iter % 8);
    const std::vector<float> a = RandomDataWithSpecials(m * kd, &rng);
    const std::vector<float> b = RandomDataWithSpecials(kd * n, &rng);
    CheckAllPaths("matmul " + std::to_string(m) + "x" + std::to_string(kd) +
                      "x" + std::to_string(n),
                  [&](core::ThreadPool* p) {
                    std::vector<float> out(static_cast<size_t>(m * n), 0.0f);
                    k::MatMul(a.data(), b.data(), out.data(), m, kd, n, p);
                    return out;
                  });
  }
}

TEST_F(KernelPropertyTest, RandomizedMatMulAtB) {
  core::Rng rng(4141);
  for (int iter = 0; iter < 16; ++iter) {
    const int64_t m = 1 + static_cast<int64_t>(rng.UniformInt(uint64_t{20}));
    const int64_t kd = 1 + static_cast<int64_t>(rng.UniformInt(uint64_t{40}));
    // Every fourth case has one output column (the lane body); the rest
    // cycle the tail residues of the column tiles.
    const int64_t n =
        iter % 4 == 0
            ? 1
            : 2 + 8 * static_cast<int64_t>(rng.UniformInt(uint64_t{6})) +
                  (iter % 8);
    const std::vector<float> a = RandomDataWithSpecials(kd * m, &rng);
    const std::vector<float> b = RandomDataWithSpecials(kd * n, &rng);
    CheckAllPaths("matmul-at-b " + std::to_string(m) + "x" +
                      std::to_string(kd) + "x" + std::to_string(n),
                  [&](core::ThreadPool* p) {
                    std::vector<float> out(static_cast<size_t>(m * n), 0.0f);
                    k::MatMulAtB(a.data(), b.data(), out.data(), m, kd, n, p);
                    return out;
                  });
  }
}

TEST_F(KernelPropertyTest, RandomizedBiasAndScatter) {
  core::Rng rng(555);
  for (int iter = 0; iter < 12; ++iter) {
    const int64_t rows = 1 + static_cast<int64_t>(rng.UniformInt(uint64_t{7}));
    const int64_t cols =
        1 + 8 * static_cast<int64_t>(rng.UniformInt(uint64_t{10})) +
        (iter % 8);
    const std::vector<float> x = RandomData(rows * cols, &rng);
    const std::vector<float> bias = RandomData(cols, &rng);
    const std::string tag = "iter " + std::to_string(iter);
    CheckAllPaths("bias-add " + tag, [&](core::ThreadPool* p) {
      std::vector<float> out(x.size());
      k::BiasAdd(x.data(), bias.data(), out.data(), rows, cols, p);
      return out;
    });

    const int64_t n_idx =
        static_cast<int64_t>(rng.UniformInt(uint64_t{50}));
    std::vector<int32_t> idx(static_cast<size_t>(n_idx));
    for (auto& v : idx) {
      v = static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(rows)));
    }
    const k::Csr csr = k::BuildCsr(idx, rows);
    const std::vector<float> contrib = RandomData(n_idx * cols, &rng);
    CheckAllPaths("scatter-add " + tag, [&](core::ThreadPool* p) {
      std::vector<float> out(static_cast<size_t>(rows * cols), 0.0f);
      k::ScatterAddRows(contrib.data(), csr, cols, out.data(), p);
      return out;
    });
    CheckAllPaths("gather " + tag, [&](core::ThreadPool* p) {
      std::vector<float> out(static_cast<size_t>(n_idx * cols));
      k::GatherRows(x.data(), idx.data(), n_idx, cols, out.data(), p);
      return out;
    });
  }
}

TEST_F(KernelPropertyTest, RandomizedEdgeAggregate) {
  // Random edge lists over few rows (so rows repeat, run empty and take
  // self loops), widths cycling every tail residue, and x, w and dy
  // carrying NaN, +-0 and +-inf: the forward and the input gradient of
  // WeightedGatherSum and the weight gradient of IndexedRowDot.
  core::Rng rng(4242);
  for (int iter = 0; iter < 16; ++iter) {
    const int64_t rows = 1 + static_cast<int64_t>(rng.UniformInt(uint64_t{9}));
    const int64_t cols =
        1 + 8 * static_cast<int64_t>(rng.UniformInt(uint64_t{6})) +
        (iter % 8);
    const int64_t n_edges =
        static_cast<int64_t>(rng.UniformInt(uint64_t{70}));
    std::vector<int32_t> src(static_cast<size_t>(n_edges));
    std::vector<int32_t> dst(static_cast<size_t>(n_edges));
    const auto row_count = static_cast<uint64_t>(rows);
    for (size_t e = 0; e < src.size(); ++e) {
      src[e] = static_cast<int32_t>(rng.UniformInt(row_count));
      dst[e] = static_cast<int32_t>(rng.UniformInt(row_count));
    }
    const k::Csr by_dst = k::BuildCsr(dst, rows);
    const k::Csr by_src = k::BuildCsr(src, rows);
    const std::vector<float> x = RandomDataWithSpecials(rows * cols, &rng);
    const std::vector<float> dy = RandomDataWithSpecials(rows * cols, &rng);
    const std::vector<float> w = RandomDataWithSpecials(n_edges, &rng);
    const std::string tag = "iter " + std::to_string(iter);
    CheckAllPaths("weighted-gather-sum " + tag, [&](core::ThreadPool* p) {
      std::vector<float> out(static_cast<size_t>(rows * cols), 0.0f);
      k::WeightedGatherSum(x.data(), src.data(), w.data(), by_dst, cols,
                           out.data(), p);
      return out;
    });
    CheckAllPaths("weighted-gather-sum by source " + tag,
                  [&](core::ThreadPool* p) {
                    std::vector<float> dx(static_cast<size_t>(rows * cols),
                                          0.0f);
                    k::WeightedGatherSum(dy.data(), dst.data(), w.data(),
                                         by_src, cols, dx.data(), p);
                    return dx;
                  });
    CheckAllPaths("indexed-row-dot " + tag, [&](core::ThreadPool* p) {
      std::vector<float> dw(static_cast<size_t>(n_edges), 0.0f);
      k::IndexedRowDot(x.data(), src.data(), dy.data(), dst.data(), dw.data(),
                       n_edges, cols, p);
      return dw;
    });
  }
}

TEST_F(KernelPropertyTest, RandomizedEdgeAttentionLogits) {
  // Random edge lists over few rows, edge counts cycling every tail
  // residue, scores carrying NaN, +-0 and +-inf, a random slope (negative
  // ones included), and the edge-type term on every other iteration: both
  // outputs, pre-activations then logits.
  core::Rng rng(4343);
  for (int iter = 0; iter < 16; ++iter) {
    const int64_t rows = 1 + static_cast<int64_t>(rng.UniformInt(uint64_t{9}));
    const int64_t types = 1 + static_cast<int64_t>(rng.UniformInt(uint64_t{6}));
    const int64_t n_edges =
        8 * static_cast<int64_t>(rng.UniformInt(uint64_t{12})) + (iter % 8);
    std::vector<int32_t> src(static_cast<size_t>(n_edges));
    std::vector<int32_t> dst(static_cast<size_t>(n_edges));
    std::vector<int32_t> etype(static_cast<size_t>(n_edges));
    const auto row_count = static_cast<uint64_t>(rows);
    for (size_t e = 0; e < src.size(); ++e) {
      src[e] = static_cast<int32_t>(rng.UniformInt(row_count));
      dst[e] = static_cast<int32_t>(rng.UniformInt(row_count));
      etype[e] =
          static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(types)));
    }
    const std::vector<float> s_src = RandomDataWithSpecials(rows, &rng);
    const std::vector<float> s_dst = RandomDataWithSpecials(rows, &rng);
    const std::vector<float> s_edge = RandomDataWithSpecials(types, &rng);
    const float slope = static_cast<float>(rng.Uniform(-1.0, 1.0));
    const float* edge_scores = iter % 2 == 1 ? s_edge.data() : nullptr;
    CheckAllPaths("edge-attention-logits iter " + std::to_string(iter),
                  [&](core::ThreadPool* p) {
                    std::vector<float> out(2 * src.size());
                    k::EdgeAttentionLogits(
                        s_src.data(), s_dst.data(), edge_scores, src.data(),
                        dst.data(), etype.data(), slope, out.data(),
                        out.data() + n_edges, n_edges, p);
                    return out;
                  });
  }
}

}  // namespace
}  // namespace fedda::tensor
