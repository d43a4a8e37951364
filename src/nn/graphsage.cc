#include "src/nn/graphsage.h"

#include <utility>

#include "src/tensor/ops.h"
#include "src/util/check.h"

namespace mariusgnn {

namespace {

struct SageContext : public LayerContext {
  const Tensor* h = nullptr;  // layer input, read in place
  int64_t self_begin = 0;
  std::vector<int64_t> nbr_rows;
  std::vector<int64_t> seg_offsets;
  Tensor nbr_mean;  // aggregated neighbor inputs (num_outputs x in_dim)
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
  const ConstRowSpan h_self(*view.h, view.self_begin, view.num_outputs());
  auto c = std::make_unique<SageContext>();
  c->compute = cc;
  c->h = view.h;
  c->self_begin = view.self_begin;
  c->nbr_rows = std::move(view.nbr_rows);
  c->seg_offsets = std::move(view.seg_offsets);
  c->nbr_mean = GatherSegmentMean(*view.h, c->nbr_rows, c->seg_offsets, cc);

  Tensor pre = Matmul(h_self, w_self_.value, cc);
  MatmulAdd(pre, c->nbr_mean, w_nbr_.value, cc);
  AddBiasRows(pre, bias_.value, cc);
  if (ctx != nullptr) {
    *ctx = std::move(c);
  }
  return ApplyActivation(act_, std::move(pre), cc);
}

Tensor GraphSageLayer::Backward(LayerContext& ctx, const Tensor& out, Tensor grad_out,
                                bool input_grad) {
  auto& c = static_cast<SageContext&>(ctx);
  const ComputeContext* cc = c.compute;
  const Tensor dpre = ActivationBackward(act_, out, std::move(grad_out), cc);
  const int64_t num_out = dpre.rows();
  const ConstRowSpan h_self(*c.h, c.self_begin, num_out);

  AddInPlace(w_self_.grad, MatmulTransA(h_self, dpre, cc), cc);
  AddInPlace(w_nbr_.grad, MatmulTransA(c.nbr_mean, dpre, cc), cc);
  AddInPlace(bias_.grad, SumRows(dpre, cc), cc);
  if (!input_grad) {
    return Tensor();
  }

  Tensor dh(c.h->rows(), in_dim_);
  MatmulTransBAdd(RowSpan(dh, c.self_begin, num_out), dpre, w_self_.value, cc);
  GatherSegmentMeanBackward(dh, c.nbr_rows, c.seg_offsets,
                            MatmulTransB(dpre, w_nbr_.value, cc), cc);
  return dh;
}

}  // namespace mariusgnn
