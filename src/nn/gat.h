// Graph Attention layer (Veličković et al. 2018), single head, with a root weight:
//
//   z_j      = W · h_j
//   e_sj     = LeakyReLU( a_l · z_s + a_r · z_j )          for j in N(s)
//   α_sj     = softmax_j(e_sj)                              (segment softmax)
//   h_s'     = act( Σ_j α_sj z_j  +  W_root · h_s  +  b )
//
// Attention scores are computed per neighbor entry and normalised with the contiguous
// segment softmax — on the DENSE path this is a fully dense kernel sequence.
#ifndef SRC_NN_GAT_H_
#define SRC_NN_GAT_H_

#include <memory>
#include <vector>

#include "src/nn/layer.h"
#include "src/util/rng.h"

namespace mariusgnn {

class GatLayer : public GnnLayer {
 public:
  GatLayer(int64_t in_dim, int64_t out_dim, Activation act, Rng& rng,
           float leaky_slope = 0.2f);

  Tensor Forward(LayerView view, std::unique_ptr<LayerContext>* ctx) const override;
  Tensor Backward(LayerContext& ctx, const Tensor& out, Tensor grad_out,
                  bool input_grad) override;
  std::vector<Parameter*> Parameters() override {
    return {&w_, &w_root_, &attn_l_, &attn_r_, &bias_};
  }

  int64_t in_dim() const override { return in_dim_; }
  int64_t out_dim() const override { return out_dim_; }

 private:
  int64_t in_dim_;
  int64_t out_dim_;
  Activation act_;
  float leaky_slope_;
  Parameter w_;       // in_dim x out_dim
  Parameter w_root_;  // in_dim x out_dim
  Parameter attn_l_;  // 1 x out_dim
  Parameter attn_r_;  // 1 x out_dim
  Parameter bias_;    // 1 x out_dim
};

}  // namespace mariusgnn

#endif  // SRC_NN_GAT_H_
