#include "src/nn/gcn.h"

#include <utility>

#include "src/tensor/ops.h"
#include "src/util/check.h"

namespace mariusgnn {

namespace {

struct GcnContext : public LayerContext {
  int64_t self_begin = 0;
  std::vector<int64_t> nbr_rows;
  std::vector<int64_t> seg_offsets;
  int64_t num_inputs = 0;
  Tensor agg;  // closed-neighborhood mean (num_outputs x in_dim)
};

// Scales row s of t by 1 / (1 + |segment s|), chunked over segments (each chunk
// owns a disjoint row range, so any pool size produces the same bits).
void ScaleByClosedNeighborhood(Tensor& t, const std::vector<int64_t>& seg_offsets,
                               const ComputeContext* cc) {
  ForEachChunk(cc, t.rows(), kComputeGrainRows,
               [&](int64_t, int64_t seg_begin, int64_t seg_end) {
                 for (int64_t s = seg_begin; s < seg_end; ++s) {
                   const float inv =
                       1.0f / static_cast<float>(1 + seg_offsets[static_cast<size_t>(s) + 1] -
                                                 seg_offsets[static_cast<size_t>(s)]);
                   float* row = t.RowPtr(s);
                   for (int64_t d = 0; d < t.cols(); ++d) {
                     row[d] *= inv;
                   }
                 }
               });
}

}  // namespace

GcnLayer::GcnLayer(int64_t in_dim, int64_t out_dim, Activation act, Rng& rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      act_(act),
      w_(Tensor::GlorotUniform(in_dim, out_dim, rng)),
      bias_(Tensor(1, out_dim)) {}

Tensor GcnLayer::Forward(LayerView view, std::unique_ptr<LayerContext>* ctx) const {
  MG_CHECK(view.h != nullptr && view.h->cols() == in_dim_);
  const ComputeContext* cc = view.compute;
  const ConstRowSpan h_self(*view.h, view.self_begin, view.num_outputs());
  auto c = std::make_unique<GcnContext>();
  c->compute = cc;
  c->self_begin = view.self_begin;
  c->nbr_rows = std::move(view.nbr_rows);
  c->seg_offsets = std::move(view.seg_offsets);
  c->num_inputs = view.num_inputs();

  c->agg = GatherSegmentSum(*view.h, c->nbr_rows, c->seg_offsets, cc);
  AddInPlace(c->agg, h_self, cc);
  ScaleByClosedNeighborhood(c->agg, c->seg_offsets, cc);

  Tensor pre = Matmul(c->agg, w_.value, cc);
  AddBiasRows(pre, bias_.value, cc);
  if (ctx != nullptr) {
    *ctx = std::move(c);
  }
  return ApplyActivation(act_, std::move(pre), cc);
}

Tensor GcnLayer::Backward(LayerContext& ctx, const Tensor& out, Tensor grad_out,
                          bool input_grad) {
  auto& c = static_cast<GcnContext&>(ctx);
  const ComputeContext* cc = c.compute;
  const Tensor dpre = ActivationBackward(act_, out, std::move(grad_out), cc);

  AddInPlace(w_.grad, MatmulTransA(c.agg, dpre, cc), cc);
  AddInPlace(bias_.grad, SumRows(dpre, cc), cc);
  if (!input_grad) {
    return Tensor();
  }

  Tensor dagg = MatmulTransB(dpre, w_.value, cc);  // num_outputs x in_dim
  // Undo the closed-neighborhood mean scaling per segment.
  ScaleByClosedNeighborhood(dagg, c.seg_offsets, cc);

  Tensor dh(c.num_inputs, in_dim_);
  AddInPlace(RowSpan(dh, c.self_begin, dagg.rows()), dagg, cc);
  GatherSegmentSumBackward(dh, c.nbr_rows, c.seg_offsets, dagg, cc);
  return dh;
}

}  // namespace mariusgnn
