#include "src/nn/layer.h"

#include <utility>

#include "src/tensor/ops.h"
#include "src/util/check.h"

namespace mariusgnn {

Tensor ApplyActivation(Activation act, Tensor pre, const ComputeContext* ctx) {
  switch (act) {
    case Activation::kNone:
      return pre;
    case Activation::kRelu:
      return Relu(std::move(pre), ctx);
    case Activation::kTanh:
      return Tanh(std::move(pre), ctx);
  }
  MG_CHECK_MSG(false, "unknown activation");
  return pre;
}

Tensor ActivationBackward(Activation act, const Tensor& out, Tensor grad_out,
                          const ComputeContext* ctx) {
  switch (act) {
    case Activation::kNone:
      return grad_out;
    case Activation::kRelu:
      return ReluBackward(out, std::move(grad_out), ctx);
    case Activation::kTanh:
      return TanhBackward(out, std::move(grad_out), ctx);
  }
  MG_CHECK_MSG(false, "unknown activation");
  return grad_out;
}

}  // namespace mariusgnn
