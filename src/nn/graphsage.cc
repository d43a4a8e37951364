#include "src/nn/graphsage.h"

#include <utility>

#include "src/tensor/ops.h"
#include "src/util/check.h"

namespace mariusgnn {

namespace {

struct SageContext : public LayerContext {
  std::vector<int64_t> self_rows;
  std::vector<int64_t> nbr_rows;
  std::vector<int64_t> seg_offsets;
  int64_t num_inputs = 0;
  Tensor self_in;   // gathered self inputs (num_outputs x in_dim)
  Tensor nbr_mean;  // aggregated neighbor inputs (num_outputs x in_dim)
  Tensor out;       // post-activation output
};

}  // namespace

GraphSageLayer::GraphSageLayer(int64_t in_dim, int64_t out_dim, Activation act, Rng& rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      act_(act),
      w_self_(Tensor::GlorotUniform(in_dim, out_dim, rng)),
      w_nbr_(Tensor::GlorotUniform(in_dim, out_dim, rng)),
      bias_(Tensor(1, out_dim)) {}

Tensor GraphSageLayer::Forward(LayerView view, std::unique_ptr<LayerContext>* ctx) const {
  MG_CHECK(view.h != nullptr && view.h->cols() == in_dim_);
  const ComputeContext* cc = view.compute;
  auto c = std::make_unique<SageContext>();
  c->compute = cc;
  c->self_rows = std::move(view.self_rows);
  c->nbr_rows = std::move(view.nbr_rows);
  c->seg_offsets = std::move(view.seg_offsets);
  c->num_inputs = view.num_inputs();

  c->self_in = IndexSelect(*view.h, c->self_rows, cc);
  c->nbr_mean = GatherSegmentMean(*view.h, c->nbr_rows, c->seg_offsets, cc);

  Tensor pre = Matmul(c->self_in, w_self_.value, cc);
  AddInPlace(pre, Matmul(c->nbr_mean, w_nbr_.value, cc), cc);
  AddBiasRows(pre, bias_.value, cc);
  c->out = ApplyActivation(act_, std::move(pre), cc);
  Tensor out = c->out;
  if (ctx != nullptr) {
    *ctx = std::move(c);
  }
  return out;
}

Tensor GraphSageLayer::Backward(LayerContext& ctx, Tensor grad_out, bool input_grad) {
  auto& c = static_cast<SageContext&>(ctx);
  const ComputeContext* cc = c.compute;
  Tensor dpre = ActivationBackward(act_, c.out, std::move(grad_out), cc);

  AddInPlace(w_self_.grad, MatmulTransA(c.self_in, dpre, cc), cc);
  AddInPlace(w_nbr_.grad, MatmulTransA(c.nbr_mean, dpre, cc), cc);
  AddInPlace(bias_.grad, SumRows(dpre, cc), cc);
  if (!input_grad) {
    return Tensor();
  }

  Tensor dself = MatmulTransB(dpre, w_self_.value, cc);     // num_outputs x in_dim
  Tensor dnbr_mean = MatmulTransB(dpre, w_nbr_.value, cc);  // num_outputs x in_dim

  Tensor dh(c.num_inputs, in_dim_);
  ScatterAddRows(dh, c.self_rows, dself, cc);
  GatherSegmentMeanBackward(dh, c.nbr_rows, c.seg_offsets, dnbr_mean, cc);
  return dh;
}

}  // namespace mariusgnn
