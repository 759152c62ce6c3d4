#include "core/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/check.h"

namespace fedda::core {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  // xoshiro256**
  const uint64_t result = RotL(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotL(state_[3], 45);
  return result;
}

Rng Rng::Split() { return Rng(Next()); }

std::array<uint64_t, 4> Rng::SaveState() const {
  return {state_[0], state_[1], state_[2], state_[3]};
}

Rng Rng::FromState(const std::array<uint64_t, 4>& state) {
  Rng rng;
  for (size_t i = 0; i < state.size(); ++i) rng.state_[i] = state[i];
  return rng;
}

double Rng::Uniform() {
  // 53 high-quality bits -> [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

uint64_t Rng::UniformInt(uint64_t n) {
  FEDDA_CHECK_GT(n, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -n % n;
  while (true) {
    uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  FEDDA_CHECK_LT(lo, hi);
  return lo + static_cast<int64_t>(UniformInt(static_cast<uint64_t>(hi - lo)));
}

double Rng::Gaussian() {
  // Box-Muller; one value per call keeps the stream splittable-stable.
  double u1 = Uniform();
  double u2 = Uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  FEDDA_CHECK_LE(k, n);
  // Partial Fisher-Yates over an index array; O(n) memory, O(n + k) time.
  std::vector<size_t> indices(n);
  std::iota(indices.begin(), indices.end(), size_t{0});
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + UniformInt(static_cast<uint64_t>(n - i));
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

DiscreteSampler::DiscreteSampler(const std::vector<double>& weights) {
  FEDDA_CHECK(!weights.empty());
  cumulative_.reserve(weights.size());
  double total = 0.0;
  for (double w : weights) {
    FEDDA_CHECK_GE(w, 0.0);
    total += w;
    cumulative_.push_back(total);
  }
  FEDDA_CHECK_GT(total, 0.0);
}

size_t DiscreteSampler::Sample(Rng* rng) const {
  const double r = rng->Uniform() * cumulative_.back();
  const size_t k = static_cast<size_t>(
      std::upper_bound(cumulative_.begin(), cumulative_.end(), r) -
      cumulative_.begin());
  return std::min(k, cumulative_.size() - 1);
}

}  // namespace fedda::core
