#include "src/nn/optimizer.h"

#include <cmath>

namespace mariusgnn {

void Adagrad::StepFromReduced(Parameter& p, const Tensor& grad) {
  if (p.state.size() != p.value.size()) {
    p.state = Tensor(p.value.rows(), p.value.cols());
  }
  ForEachChunk(compute_, p.value.size(), kComputeGrainElems,
               [&](int64_t, int64_t begin, int64_t end) {
                 for (int64_t i = begin; i < end; ++i) {
                   const float g = grad.data()[i];
                   p.state.data()[i] += g * g;
                   p.value.data()[i] -= lr_ * g / (std::sqrt(p.state.data()[i]) + eps_);
                 }
               });
}

}  // namespace mariusgnn
