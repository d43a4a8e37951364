#include "src/tensor/tensor.h"

#include <algorithm>
#include <cmath>

namespace mariusgnn {

Tensor Tensor::Full(int64_t rows, int64_t cols, float value) {
  Tensor t(rows, cols);
  t.Fill(value);
  return t;
}

Tensor Tensor::Uniform(int64_t rows, int64_t cols, float a, Rng& rng) {
  Tensor t(rows, cols);
  for (int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] = (2.0f * rng.UniformFloat() - 1.0f) * a;
  }
  return t;
}

Tensor Tensor::Normal(int64_t rows, int64_t cols, float std, Rng& rng) {
  Tensor t(rows, cols);
  for (int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] = rng.Normal() * std;
  }
  return t;
}

Tensor Tensor::GlorotUniform(int64_t fan_in, int64_t fan_out, Rng& rng) {
  const float a = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Uniform(fan_in, fan_out, a, rng);
}

void Tensor::Fill(float value) { std::fill(data_.begin(), data_.end(), value); }

double Tensor::Norm() const {
  double s = 0.0;
  for (float v : data_) {
    s += static_cast<double>(v) * v;
  }
  return std::sqrt(s);
}

double Tensor::Sum() const {
  double s = 0.0;
  for (float v : data_) {
    s += v;
  }
  return s;
}

}  // namespace mariusgnn
