#ifndef FEDDA_CORE_RNG_H_
#define FEDDA_CORE_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace fedda::core {

/// Deterministic, splittable pseudo-random number generator.
///
/// The engine is xoshiro256** seeded through SplitMix64, which gives
/// high-quality streams from arbitrary 64-bit seeds. Every stochastic
/// component of the library (data synthesis, client partitioning, negative
/// sampling, weight init, FL exploration) takes an `Rng` so whole experiments
/// are reproducible from a single seed. `Split()` derives an independent
/// child stream, which keeps per-client randomness stable regardless of
/// client execution order.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Derives an independent child generator. Deterministic: the n-th split
  /// of an Rng in a given state is always the same stream.
  Rng Split();

  /// Raw xoshiro256** engine state, for moving a stream across a process
  /// boundary (the socket transport ships a split child's state to the
  /// remote client so multi-process runs draw the same randomness as
  /// in-process ones). FromState(SaveState()) continues the stream exactly.
  std::array<uint64_t, 4> SaveState() const;
  static Rng FromState(const std::array<uint64_t, 4>& state);

  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);
  /// Uniform integer in [lo, hi). Requires lo < hi.
  int64_t UniformInt(int64_t lo, int64_t hi);
  /// Standard normal via Box-Muller.
  double Gaussian();
  /// Normal with the given mean and stddev.
  double Gaussian(double mean, double stddev);
  /// True with probability p.
  bool Bernoulli(double p);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    if (values->empty()) return;
    for (size_t i = values->size() - 1; i > 0; --i) {
      size_t j = UniformInt(static_cast<uint64_t>(i + 1));
      std::swap((*values)[i], (*values)[j]);
    }
  }

  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  uint64_t state_[4];
};

/// Samples an index in [0, n) with probability proportional to a fixed
/// weight vector, in O(log n) per draw.
///
/// Built once from the weights, it stores their cumulative sums in index
/// order. A draw takes exactly one `Uniform()`, scales it by the total and
/// returns the first index whose cumulative sum exceeds it, so it returns
/// the same index as a linear scan that accumulates the weights in order
/// and stops at the first sum above the scaled draw. The graph generator
/// builds one per endpoint side of each edge type, with Zipf weights
/// `(k + 1)^-exponent` for power-law degree profiles.
class DiscreteSampler {
 public:
  /// Requires at least one weight, every weight >= 0 and a positive total.
  explicit DiscreteSampler(const std::vector<double>& weights);

  size_t Sample(Rng* rng) const;

 private:
  std::vector<double> cumulative_;
};

}  // namespace fedda::core

#endif  // FEDDA_CORE_RNG_H_
