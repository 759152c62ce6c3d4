#ifndef FEDDA_TENSOR_TENSOR_H_
#define FEDDA_TENSOR_TENSOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/rng.h"

namespace fedda::core {
class ThreadPool;
}  // namespace fedda::core

namespace fedda::tensor {

/// Dense 2-D row-major float32 matrix.
///
/// This is the single value type of the autograd engine; vectors are
/// represented as (n x 1) or (1 x n) matrices. The class is a plain value
/// type (copyable, movable) with no allocation tricks — model sizes in this
/// project are small and clarity wins.
class Tensor {
 public:
  /// Empty 0x0 tensor.
  Tensor() : rows_(0), cols_(0) {}

  /// Uninitialized-to-zero tensor of the given shape.
  Tensor(int64_t rows, int64_t cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows * cols), 0.0f) {
    FEDDA_CHECK_GE(rows, 0);
    FEDDA_CHECK_GE(cols, 0);
  }

  Tensor(const Tensor&) = default;
  Tensor& operator=(const Tensor&) = default;
  Tensor(Tensor&&) = default;
  Tensor& operator=(Tensor&&) = default;

  /// All-zeros tensor.
  static Tensor Zeros(int64_t rows, int64_t cols) {
    return Tensor(rows, cols);
  }
  /// All-ones tensor.
  static Tensor Ones(int64_t rows, int64_t cols);
  /// Tensor filled with `value`.
  static Tensor Full(int64_t rows, int64_t cols, float value);
  /// Row-major tensor from a flat initializer (size must be rows*cols).
  static Tensor FromVector(int64_t rows, int64_t cols,
                           std::vector<float> values);
  /// Single-row tensor from values.
  static Tensor RowVector(std::vector<float> values);
  /// Single-column tensor from values.
  static Tensor ColVector(std::vector<float> values);
  /// Identity matrix.
  static Tensor Identity(int64_t n);

  /// Entries sampled i.i.d. from N(mean, stddev^2).
  static Tensor RandomNormal(int64_t rows, int64_t cols, core::Rng* rng,
                             float mean = 0.0f, float stddev = 1.0f);
  /// Entries sampled i.i.d. uniform in [lo, hi).
  static Tensor RandomUniform(int64_t rows, int64_t cols, core::Rng* rng,
                              float lo, float hi);
  /// Xavier/Glorot uniform init for a (fan_in x fan_out) weight matrix.
  static Tensor GlorotUniform(int64_t fan_in, int64_t fan_out,
                              core::Rng* rng);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  /// Bounds-checked element access. The range test stays inline; the
  /// failure path is out of line so that at() itself inlines.
  float& at(int64_t r, int64_t c) {
    if (!InRange(r, c)) [[unlikely]] IndexOutOfRange(r, c);
    return data_[static_cast<size_t>(r * cols_ + c)];
  }
  float at(int64_t r, int64_t c) const {
    if (!InRange(r, c)) [[unlikely]] IndexOutOfRange(r, c);
    return data_[static_cast<size_t>(r * cols_ + c)];
  }

  /// Unchecked flat access (hot loops).
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  /// Whether the shapes match.
  bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  void Fill(float value);
  void Zero() { Fill(0.0f); }

  /// In-place elementwise accumulate: this += other. Shapes must match.
  void Add(const Tensor& other);
  /// In-place axpy: this += alpha * other. Shapes must match.
  void Axpy(float alpha, const Tensor& other);
  /// In-place scale: this *= alpha.
  void Scale(float alpha);

  /// Elementwise difference (this - other) as a new tensor.
  Tensor Sub(const Tensor& other) const;

  /// Sum of all entries.
  double Sum() const;
  /// Mean of all entries; 0 for empty tensors.
  double Mean() const;
  /// Mean of |entries|; 0 for empty tensors.
  double AbsMean() const;
  /// L2 norm of all entries.
  double Norm() const;
  /// Largest |entry|; 0 for empty tensors.
  double MaxAbs() const;

  /// Transposed copy.
  Tensor Transposed() const;

  /// Exact elementwise equality.
  bool Equals(const Tensor& other) const;
  /// Elementwise equality within `tolerance`.
  bool AllClose(const Tensor& other, float tolerance = 1e-5f) const;

  /// Human-readable rendering (small tensors only; truncated otherwise).
  std::string ToString() const;

 private:
  bool InRange(int64_t r, int64_t c) const {
    return r >= 0 && r < rows_ && c >= 0 && c < cols_;
  }
  /// Aborts with the index and the shape.
  [[noreturn, gnu::cold]] void IndexOutOfRange(int64_t r, int64_t c) const;

  int64_t rows_;
  int64_t cols_;
  std::vector<float> data_;
};

/// C = A * B. Shapes: (m x k) * (k x n) -> (m x n). When `pool` is non-null
/// the output rows are computed in parallel; each row's accumulation order is
/// unchanged, so the result is bit-identical to the sequential path.
Tensor MatMulValue(const Tensor& a, const Tensor& b,
                   core::ThreadPool* pool = nullptr);

}  // namespace fedda::tensor

#endif  // FEDDA_TENSOR_TENSOR_H_
