// GCN-style layer (Kipf & Welling 2016), adapted to sampled neighborhoods:
//
//   h_s' = act( W · (h_s + Σ_{j in N(s)} h_j) / (1 + |N(s)|)  +  b )
//
// i.e. mean over the closed neighborhood {s} ∪ N(s), matching the paper's additive
// aggregation example (Algorithm 3) followed by a linear transform.
#ifndef SRC_NN_GCN_H_
#define SRC_NN_GCN_H_

#include <memory>
#include <vector>

#include "src/nn/layer.h"
#include "src/util/rng.h"

namespace mariusgnn {

class GcnLayer : public GnnLayer {
 public:
  GcnLayer(int64_t in_dim, int64_t out_dim, Activation act, Rng& rng);

  Tensor Forward(LayerView view, std::unique_ptr<LayerContext>* ctx) const override;
  Tensor Backward(LayerContext& ctx, const Tensor& out, Tensor grad_out,
                  bool input_grad) override;
  std::vector<Parameter*> Parameters() override { return {&w_, &bias_}; }

  int64_t in_dim() const override { return in_dim_; }
  int64_t out_dim() const override { return out_dim_; }

 private:
  int64_t in_dim_;
  int64_t out_dim_;
  Activation act_;
  Parameter w_;     // in_dim x out_dim
  Parameter bias_;  // 1 x out_dim
};

}  // namespace mariusgnn

#endif  // SRC_NN_GCN_H_
