// Dense row-major float32 matrix — the numeric substrate for GNN compute.
//
// The paper's central compute claim (Section 4.2) is that DENSE lets the forward pass
// run on kernels "optimized for dense linear algebra operations" instead of sparse
// custom kernels. This Tensor plus the kernels in ops.h (matmul, index_select,
// segment_sum, segment_softmax) are exactly that dense-kernel substrate; the simulated
// device in src/core executes them in place of the paper's GPU.
#ifndef SRC_TENSOR_TENSOR_H_
#define SRC_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace mariusgnn {

class Tensor {
 public:
  Tensor() = default;

  // rows x cols matrix, zero-initialised.
  Tensor(int64_t rows, int64_t cols)
      : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows * cols), 0.0f) {
    MG_CHECK(rows >= 0 && cols >= 0);
  }

  // Adopts existing data (size must be rows*cols).
  Tensor(int64_t rows, int64_t cols, std::vector<float> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    MG_CHECK(static_cast<int64_t>(data_.size()) == rows * cols);
  }

  static Tensor Full(int64_t rows, int64_t cols, float value);

  // U(-a, a) initialisation.
  static Tensor Uniform(int64_t rows, int64_t cols, float a, Rng& rng);

  // N(0, std^2) initialisation.
  static Tensor Normal(int64_t rows, int64_t cols, float std, Rng& rng);

  // Glorot/Xavier uniform: a = sqrt(6 / (fan_in + fan_out)).
  static Tensor GlorotUniform(int64_t fan_in, int64_t fan_out, Rng& rng);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float* RowPtr(int64_t r) { return data_.data() + r * cols_; }
  const float* RowPtr(int64_t r) const { return data_.data() + r * cols_; }

  float& operator()(int64_t r, int64_t c) {
    MG_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r * cols_ + c)];
  }
  float operator()(int64_t r, int64_t c) const {
    MG_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r * cols_ + c)];
  }

  void Fill(float value);
  void Zero() { Fill(0.0f); }

  // Frobenius norm and element sum (used by tests and gradient checks).
  double Norm() const;
  double Sum() const;

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<float> data_;
};

// Rows [begin, begin + count) of a row-major Tensor, read (ConstRowSpan) or
// written (RowSpan) in place. A whole Tensor converts implicitly, so a kernel
// that takes a span takes a Tensor too; the GNN layers pass their contiguous
// self-row range of h (and of d h) this way, without a copy. A span does not
// own its rows: the Tensor must outlive it and keep its size.
class ConstRowSpan {
 public:
  ConstRowSpan(const Tensor& t)  // NOLINT(runtime/explicit): a Tensor is all its rows
      : ConstRowSpan(t, 0, t.rows()) {}
  ConstRowSpan(const Tensor& t, int64_t begin, int64_t count)
      : data_(t.data() + begin * t.cols()), rows_(count), cols_(t.cols()) {
    MG_CHECK(begin >= 0 && count >= 0 && begin + count <= t.rows());
  }

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  const float* data() const { return data_; }
  const float* RowPtr(int64_t r) const { return data_ + r * cols_; }

 private:
  const float* data_;
  int64_t rows_;
  int64_t cols_;
};

class RowSpan {
 public:
  RowSpan(Tensor& t)  // NOLINT(runtime/explicit): a Tensor is all its rows
      : RowSpan(t, 0, t.rows()) {}
  RowSpan(Tensor& t, int64_t begin, int64_t count)
      : data_(t.data() + begin * t.cols()), rows_(count), cols_(t.cols()) {
    MG_CHECK(begin >= 0 && count >= 0 && begin + count <= t.rows());
  }

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  float* data() const { return data_; }
  float* RowPtr(int64_t r) const { return data_ + r * cols_; }

 private:
  float* data_;
  int64_t rows_;
  int64_t cols_;
};

}  // namespace mariusgnn

#endif  // SRC_TENSOR_TENSOR_H_
