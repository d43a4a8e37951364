// GraphSage layer (Hamilton et al. 2017) with a mean aggregator:
//
//   h_s' = act( W_self · h_s  +  W_nbr · mean_{j in N(s)} h_j  +  b )
//
// Lowered onto the dense kernels of Algorithm 3: a segment mean over contiguous
// segments that reads the nbr_rows of h in place (GatherSegmentMean), and two
// matmuls, the self one over the view's self-row range of h in place and the
// neighbour one added into it (MatmulAdd). The backward adds the self gradient
// straight into that row range of d h (MatmulTransBAdd) and folds each input
// row's neighbour gradient in place (GatherSegmentMeanBackward), so no gathered
// self matrix and no edge-sized matrix is built either way.
#ifndef SRC_NN_GRAPHSAGE_H_
#define SRC_NN_GRAPHSAGE_H_

#include <memory>
#include <vector>

#include "src/nn/layer.h"
#include "src/util/rng.h"

namespace mariusgnn {

class GraphSageLayer : public GnnLayer {
 public:
  GraphSageLayer(int64_t in_dim, int64_t out_dim, Activation act, Rng& rng);

  Tensor Forward(LayerView view, std::unique_ptr<LayerContext>* ctx) const override;
  Tensor Backward(LayerContext& ctx, const Tensor& out, Tensor grad_out,
                  bool input_grad) override;
  std::vector<Parameter*> Parameters() override { return {&w_self_, &w_nbr_, &bias_}; }

  int64_t in_dim() const override { return in_dim_; }
  int64_t out_dim() const override { return out_dim_; }

 private:
  int64_t in_dim_;
  int64_t out_dim_;
  Activation act_;
  Parameter w_self_;  // in_dim x out_dim
  Parameter w_nbr_;   // in_dim x out_dim
  Parameter bias_;    // 1 x out_dim
};

}  // namespace mariusgnn

#endif  // SRC_NN_GRAPHSAGE_H_
