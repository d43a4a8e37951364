// The dense-parameter optimizer. Sparse per-row embedding updates live in
// src/storage/embedding_store.h; Adagrad handles GNN weights and decoder parameters.
#ifndef SRC_NN_OPTIMIZER_H_
#define SRC_NN_OPTIMIZER_H_

#include <vector>

#include "src/nn/parameter.h"
#include "src/util/compute.h"

namespace mariusgnn {

class Adagrad {
 public:
  explicit Adagrad(float lr, float eps = 1e-10f) : lr_(lr), eps_(eps) {}

  // Stage-3 parallel-compute handle. Steps are elementwise over disjoint chunks,
  // so any pool size produces identical parameter bits (null = serial).
  void set_compute(const ComputeContext* compute) { compute_ = compute; }

  // Applies one update computed from `grad` to p.value (same shape as
  // p.value). Does not zero p.grad. This is the gradient-exchange seam's
  // apply path: the exchange hands back either the parameter's own gradient
  // (single replica) or the cross-replica ordered-fold sum, and the optimizer
  // applies whichever it is given.
  void StepFromReduced(Parameter& p, const Tensor& grad);

  // Applies one update from p.grad to p.value. Does not zero the gradient.
  void Step(Parameter& p) { StepFromReduced(p, p.grad); }

  void StepAll(const std::vector<Parameter*>& params) {
    for (Parameter* p : params) {
      Step(*p);
      p->ZeroGrad();
    }
  }

  // Applies reduced[i] — the exchange's fold output for params[i] — to each
  // parameter, then zeroes the parameter's own gradient accumulator (the local
  // contribution is already inside the fold).
  void StepAllFromReduced(const std::vector<Parameter*>& params,
                          const std::vector<Tensor>& reduced) {
    MG_CHECK_MSG(params.size() == reduced.size(),
                 "reduced gradient count does not match parameter count");
    for (size_t i = 0; i < params.size(); ++i) {
      MG_CHECK_MSG(reduced[i].size() == params[i]->value.size(),
                   "reduced gradient size does not match parameter size");
      StepFromReduced(*params[i], reduced[i]);
      params[i]->ZeroGrad();
    }
  }

 private:
  float lr_;
  float eps_;
  const ComputeContext* compute_ = nullptr;
};

}  // namespace mariusgnn

#endif  // SRC_NN_OPTIMIZER_H_
