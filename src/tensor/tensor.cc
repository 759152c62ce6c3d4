#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "core/string_util.h"
#include "core/thread_pool.h"
#include "tensor/kernels/kernels.h"

namespace fedda::tensor {

Tensor Tensor::Ones(int64_t rows, int64_t cols) {
  return Full(rows, cols, 1.0f);
}

Tensor Tensor::Full(int64_t rows, int64_t cols, float value) {
  Tensor t(rows, cols);
  t.Fill(value);
  return t;
}

Tensor Tensor::FromVector(int64_t rows, int64_t cols,
                          std::vector<float> values) {
  FEDDA_CHECK_EQ(static_cast<int64_t>(values.size()), rows * cols);
  Tensor t;
  t.rows_ = rows;
  t.cols_ = cols;
  t.data_ = std::move(values);
  return t;
}

Tensor Tensor::RowVector(std::vector<float> values) {
  const int64_t n = static_cast<int64_t>(values.size());
  return FromVector(1, n, std::move(values));
}

Tensor Tensor::ColVector(std::vector<float> values) {
  const int64_t n = static_cast<int64_t>(values.size());
  return FromVector(n, 1, std::move(values));
}

Tensor Tensor::Identity(int64_t n) {
  Tensor t(n, n);
  for (int64_t i = 0; i < n; ++i) t.at(i, i) = 1.0f;
  return t;
}

Tensor Tensor::RandomNormal(int64_t rows, int64_t cols, core::Rng* rng,
                            float mean, float stddev) {
  Tensor t(rows, cols);
  for (auto& v : t.data_) {
    v = static_cast<float>(rng->Gaussian(mean, stddev));
  }
  return t;
}

Tensor Tensor::RandomUniform(int64_t rows, int64_t cols, core::Rng* rng,
                             float lo, float hi) {
  Tensor t(rows, cols);
  for (auto& v : t.data_) {
    v = static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::GlorotUniform(int64_t fan_in, int64_t fan_out,
                             core::Rng* rng) {
  const float limit =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return RandomUniform(fan_in, fan_out, rng, -limit, limit);
}

void Tensor::Fill(float value) {
  for (auto& v : data_) v = value;
}

// The in-place arithmetic below routes through the dispatched kernels (no
// pool: these run on whatever thread owns the tensor, including the server
// aggregation hot path where SIMD is the whole win).

void Tensor::Add(const Tensor& other) {
  FEDDA_CHECK(SameShape(other));
  kernels::AccumulateAdd(data_.data(), other.data_.data(), size(), nullptr);
}

void Tensor::Axpy(float alpha, const Tensor& other) {
  FEDDA_CHECK(SameShape(other));
  kernels::AccumulateAxpy(data_.data(), alpha, other.data_.data(), size(),
                          nullptr);
}

void Tensor::Scale(float alpha) {
  kernels::ScaleInPlace(data_.data(), alpha, size(), nullptr);
}

Tensor Tensor::Sub(const Tensor& other) const {
  FEDDA_CHECK(SameShape(other));
  Tensor out(rows_, cols_);
  kernels::EwSub(data_.data(), other.data_.data(), out.data_.data(), size(),
                 nullptr);
  return out;
}

double Tensor::Sum() const {
  double total = 0.0;
  for (float v : data_) total += v;
  return total;
}

double Tensor::Mean() const {
  if (data_.empty()) return 0.0;
  return Sum() / static_cast<double>(data_.size());
}

double Tensor::AbsMean() const {
  if (data_.empty()) return 0.0;
  double total = 0.0;
  for (float v : data_) total += std::fabs(v);
  return total / static_cast<double>(data_.size());
}

double Tensor::Norm() const {
  double total = 0.0;
  for (float v : data_) total += static_cast<double>(v) * v;
  return std::sqrt(total);
}

double Tensor::MaxAbs() const {
  double best = 0.0;
  for (float v : data_) best = std::max(best, std::fabs(double(v)));
  return best;
}

void Tensor::IndexOutOfRange(int64_t r, int64_t c) const {
  FEDDA_CHECK(InRange(r, c))
      << "index (" << r << "," << c << ") out of [" << rows_ << "," << cols_
      << ")";
  std::abort();  // Unreachable: at() calls this only for an index outside.
}

Tensor Tensor::Transposed() const {
  Tensor out(cols_, rows_);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t c = 0; c < cols_; ++c) {
      out.at(c, r) = at(r, c);
    }
  }
  return out;
}

bool Tensor::Equals(const Tensor& other) const {
  return SameShape(other) && data_ == other.data_;
}

bool Tensor::AllClose(const Tensor& other, float tolerance) const {
  if (!SameShape(other)) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tolerance) return false;
  }
  return true;
}

std::string Tensor::ToString() const {
  constexpr int64_t kMaxRender = 8;
  std::string out =
      core::StrFormat("Tensor(%lld x %lld)", static_cast<long long>(rows_),
                      static_cast<long long>(cols_));
  if (rows_ > kMaxRender || cols_ > kMaxRender) return out + " [...]";
  out += " [";
  for (int64_t r = 0; r < rows_; ++r) {
    out += r == 0 ? "[" : ", [";
    for (int64_t c = 0; c < cols_; ++c) {
      if (c > 0) out += ", ";
      out += core::FormatDouble(at(r, c), 4);
    }
    out += "]";
  }
  out += "]";
  return out;
}

Tensor MatMulValue(const Tensor& a, const Tensor& b, core::ThreadPool* pool) {
  FEDDA_CHECK_EQ(a.cols(), b.rows());
  Tensor out(a.rows(), b.cols());
  kernels::MatMul(a.data(), b.data(), out.data(), a.rows(), a.cols(),
                  b.cols(), pool);
  return out;
}

}  // namespace fedda::tensor
