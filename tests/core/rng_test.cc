#include "core/rng.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace fedda::core {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 28);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double total = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    total += u;
  }
  EXPECT_NEAR(total / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntCoversSupport) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(uint64_t{7}));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(RngTest, UniformIntSignedRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(int64_t{-5}, int64_t{5});
    ASSERT_GE(v, -5);
    ASSERT_LT(v, 5);
  }
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(17);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, GaussianWithParams) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(23);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(41);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(RngTest, ShuffleEmptyAndSingleton) {
  Rng rng(41);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one = {9};
  rng.Shuffle(&one);
  EXPECT_EQ(one, std::vector<int>{9});
}

TEST(RngTest, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(43);
  const auto sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (size_t v : sample) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(43);
  const auto sample = rng.SampleWithoutReplacement(5, 5);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, SplitProducesIndependentStreams) {
  Rng parent(99);
  Rng child1 = parent.Split();
  Rng child2 = parent.Split();
  // Children differ from each other and from the parent's continuation.
  EXPECT_NE(child1.Next(), child2.Next());
}

TEST(RngTest, SplitIsDeterministic) {
  Rng a(55), b(55);
  Rng ca = a.Split();
  Rng cb = b.Split();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(ca.Next(), cb.Next());
}

TEST(RngTest, SaveStateRestoreContinuesStreamExactly) {
  // The transport ships a split child's engine state to a remote client
  // process; the restored stream must continue bit-for-bit where the
  // original would have, including after the stream has already advanced.
  Rng original(777);
  for (int i = 0; i < 13; ++i) original.Next();
  Rng restored = Rng::FromState(original.SaveState());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(restored.Next(), original.Next());
}

TEST(RngTest, SaveStateDoesNotPerturbTheStream) {
  Rng a(3), b(3);
  (void)a.SaveState();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, RestoredSplitMatchesInProcessSplit) {
  // Exactly the hand-off the runner's transport path performs: the child
  // stream crosses the process boundary as raw state and must draw the
  // same values the in-process child would.
  Rng parent_a(42), parent_b(42);
  Rng child = parent_a.Split();
  Rng shipped = Rng::FromState(parent_b.Split().SaveState());
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(child.Gaussian(), shipped.Gaussian());
  }
}

/// The O(n) scan DiscreteSampler replaced: accumulate the weights in index
/// order and stop at the first sum above the scaled draw. With Zipf weights
/// this is exactly the old per-draw Zipf sampler, which summed the same
/// pow terms for its total and rescanned them.
size_t ReferenceScan(const std::vector<double>& weights, Rng* rng) {
  double total = 0.0;
  for (double w : weights) total += w;
  const double r = rng->Uniform() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;
}

std::vector<double> ZipfWeights(size_t n, double exponent) {
  std::vector<double> weights(n);
  for (size_t k = 0; k < n; ++k) weights[k] = std::pow(k + 1.0, -exponent);
  return weights;
}

/// Draws from the sampler and the reference scan on two copies of one
/// stream; every index must agree, and the streams must stay in step.
void ExpectMatchesReference(const std::vector<double>& weights, int draws,
                            uint64_t seed) {
  const DiscreteSampler sampler(weights);
  Rng a(seed), b(seed);
  for (int i = 0; i < draws; ++i) {
    ASSERT_EQ(sampler.Sample(&a), ReferenceScan(weights, &b)) << "draw " << i;
  }
  EXPECT_EQ(a.Next(), b.Next());
}

TEST(DiscreteSamplerTest, ProportionalToWeights) {
  Rng rng(31);
  const DiscreteSampler sampler({1.0, 3.0, 0.0, 6.0});
  std::vector<int> counts(4, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[sampler.Sample(&rng)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.02);
}

TEST(DiscreteSamplerTest, ZipfWeightsSkewTowardSmallIndices) {
  Rng rng(37);
  const DiscreteSampler sampler(ZipfWeights(10, 1.2));
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[sampler.Sample(&rng)];
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[4], counts[9]);
}

TEST(DiscreteSamplerTest, EqualWeightsAreUniform) {
  Rng rng(37);
  const DiscreteSampler sampler(ZipfWeights(5, 0.0));
  std::vector<int> counts(5, 0);
  const int n = 25000;
  for (int i = 0; i < n; ++i) ++counts[sampler.Sample(&rng)];
  for (int c : counts) {
    EXPECT_NEAR(c / static_cast<double>(n), 0.2, 0.02);
  }
}

TEST(DiscreteSamplerTest, ZipfMatchesReferenceScanDrawForDraw) {
  for (size_t n : {1, 2, 13, 656, 82000}) {
    for (double exponent : {0.8, 1.0, 1.2}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " exponent=" + std::to_string(exponent));
      ExpectMatchesReference(ZipfWeights(n, exponent), n > 1000 ? 500 : 5000,
                             n * 31 + static_cast<uint64_t>(exponent * 10));
    }
  }
}

TEST(DiscreteSamplerTest, ZeroWeightsMatchReferenceAndAreNeverDrawn) {
  // Leading, inner, repeated and trailing zeros: the cumulative sums have
  // flat runs, and the first index past a run is the one returned.
  const std::vector<double> weights = {0.0, 0.0, 2.5, 0.0, 1.0, 0.0,
                                       0.0, 0.5, 3.0, 0.0, 0.0};
  ExpectMatchesReference(weights, 20000, 53);
  const DiscreteSampler sampler(weights);
  Rng rng(59);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_GT(weights[sampler.Sample(&rng)], 0.0);
  }
}

TEST(DiscreteSamplerTest, SubUlpTailMatchesReference) {
  // After the first weight, each 1e-17 term is below half an ulp of the
  // running sum (1.0), so adding it leaves the sum unchanged; the last term
  // is large enough to move it again. Both paths must skip the whole flat
  // tail the same way.
  std::vector<double> weights(1, 1.0);
  weights.resize(2000, 1e-17);
  weights.push_back(0.75);
  ExpectMatchesReference(weights, 20000, 61);
  // A Zipf tail at a steep exponent: late terms fall below the ulp of a
  // sum near zeta(3).
  ExpectMatchesReference(ZipfWeights(300000, 3.0), 300, 67);
}

TEST(DiscreteSamplerDeathTest, RejectsEmptyNegativeAndZeroTotalWeights) {
  EXPECT_DEATH(DiscreteSampler(std::vector<double>{}), "empty");
  EXPECT_DEATH(DiscreteSampler({1.0, -0.5}), "w >= 0");
  EXPECT_DEATH(DiscreteSampler({0.0, 0.0}), "total > 0");
}

}  // namespace
}  // namespace fedda::core
