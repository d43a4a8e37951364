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

}  // namespace mariusgnn

#endif  // SRC_TENSOR_TENSOR_H_
