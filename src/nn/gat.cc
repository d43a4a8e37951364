#include "src/nn/gat.h"

#include <utility>

#include "src/tensor/ops.h"
#include "src/util/check.h"

namespace mariusgnn {

namespace {

struct GatContext : public LayerContext {
  const Tensor* h = nullptr;  // layer input, read in place
  int64_t self_begin = 0;
  std::vector<int64_t> nbr_rows;
  std::vector<int64_t> seg_offsets;
  std::vector<int64_t> owner;  // segment id of each neighbor entry
  Tensor z;                    // W-projected input rows (self rows read in place)
  Tensor z_nbr;                // W-projected neighbor rows
  Tensor alpha;                // attention weights (E x 1, post-softmax)
  Tensor e_act;                // post-LeakyReLU scores (E x 1)
};

}  // namespace

GatLayer::GatLayer(int64_t in_dim, int64_t out_dim, Activation act, Rng& rng,
                   float leaky_slope)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      act_(act),
      leaky_slope_(leaky_slope),
      w_(Tensor::GlorotUniform(in_dim, out_dim, rng)),
      w_root_(Tensor::GlorotUniform(in_dim, out_dim, rng)),
      attn_l_(Tensor::Uniform(1, out_dim, 0.3f, rng)),
      attn_r_(Tensor::Uniform(1, out_dim, 0.3f, rng)),
      bias_(Tensor(1, out_dim)) {}

Tensor GatLayer::Forward(LayerView view, std::unique_ptr<LayerContext>* ctx) const {
  MG_CHECK(view.h != nullptr && view.h->cols() == in_dim_);
  const ComputeContext* cc = view.compute;
  const int64_t num_out = view.num_outputs();
  const ConstRowSpan h_self(*view.h, view.self_begin, num_out);
  auto c = std::make_unique<GatContext>();
  c->compute = cc;
  c->h = view.h;
  c->self_begin = view.self_begin;
  c->nbr_rows = std::move(view.nbr_rows);
  c->seg_offsets = std::move(view.seg_offsets);

  const int64_t num_edges = static_cast<int64_t>(c->nbr_rows.size());
  c->owner.resize(static_cast<size_t>(num_edges));
  // Chunked over segments: each segment owns its contiguous edge range.
  ForEachChunk(cc, num_out, kComputeGrainRows,
               [&](int64_t, int64_t seg_begin, int64_t seg_end) {
                 for (int64_t s = seg_begin; s < seg_end; ++s) {
                   for (int64_t e = c->seg_offsets[static_cast<size_t>(s)];
                        e < c->seg_offsets[static_cast<size_t>(s) + 1]; ++e) {
                     c->owner[static_cast<size_t>(e)] = s;
                   }
                 }
               });

  c->z = Matmul(*view.h, w_.value, cc);
  c->z_nbr = IndexSelect(c->z, c->nbr_rows, cc);

  // Raw attention scores: per-edge, disjoint writes.
  Tensor scores(num_edges, 1);
  ForEachChunk(cc, num_edges, kComputeGrainEdges,
               [&](int64_t, int64_t edge_begin, int64_t edge_end) {
                 for (int64_t e = edge_begin; e < edge_end; ++e) {
                   const float* zs =
                       c->z.RowPtr(c->self_begin + c->owner[static_cast<size_t>(e)]);
                   const float* zn = c->z_nbr.RowPtr(e);
                   float s = 0.0f;
                   for (int64_t d = 0; d < out_dim_; ++d) {
                     s += attn_l_.value.data()[d] * zs[d] + attn_r_.value.data()[d] * zn[d];
                   }
                   scores.data()[e] = s;
                 }
               });
  c->e_act = LeakyRelu(scores, leaky_slope_, cc);
  c->alpha = c->e_act;
  SegmentSoftmaxInPlace(c->alpha, c->seg_offsets, cc);

  // Weighted aggregation: per-edge, disjoint rows.
  Tensor weighted(num_edges, out_dim_);
  ForEachChunk(cc, num_edges, kComputeGrainEdges,
               [&](int64_t, int64_t edge_begin, int64_t edge_end) {
                 for (int64_t e = edge_begin; e < edge_end; ++e) {
                   const float a = c->alpha.data()[e];
                   const float* zn = c->z_nbr.RowPtr(e);
                   float* wrow = weighted.RowPtr(e);
                   for (int64_t d = 0; d < out_dim_; ++d) {
                     wrow[d] = a * zn[d];
                   }
                 }
               });
  Tensor pre = SegmentSum(weighted, c->seg_offsets, cc);
  MatmulAdd(pre, h_self, w_root_.value, cc);
  AddBiasRows(pre, bias_.value, cc);
  if (ctx != nullptr) {
    *ctx = std::move(c);
  }
  return ApplyActivation(act_, std::move(pre), cc);
}

Tensor GatLayer::Backward(LayerContext& ctx, const Tensor& out, Tensor grad_out,
                          bool input_grad) {
  auto& c = static_cast<GatContext&>(ctx);
  const ComputeContext* cc = c.compute;
  const int64_t num_edges = static_cast<int64_t>(c.nbr_rows.size());
  const int64_t num_segs = static_cast<int64_t>(c.seg_offsets.size()) - 1;
  const Tensor dpre = ActivationBackward(act_, out, std::move(grad_out), cc);

  // Root path.
  AddInPlace(w_root_.grad, MatmulTransA(ConstRowSpan(*c.h, c.self_begin, num_segs), dpre, cc),
             cc);
  AddInPlace(bias_.grad, SumRows(dpre, cc), cc);

  // Aggregation path: dweighted[e] = dpre[owner[e]]. Per-edge, disjoint writes.
  Tensor dz_nbr(num_edges, out_dim_);
  Tensor dalpha(num_edges, 1);
  ForEachChunk(cc, num_edges, kComputeGrainEdges,
               [&](int64_t, int64_t edge_begin, int64_t edge_end) {
                 for (int64_t e = edge_begin; e < edge_end; ++e) {
                   const float* dp = dpre.RowPtr(c.owner[static_cast<size_t>(e)]);
                   const float* zn = c.z_nbr.RowPtr(e);
                   float* dzn = dz_nbr.RowPtr(e);
                   const float a = c.alpha.data()[e];
                   float da = 0.0f;
                   for (int64_t d = 0; d < out_dim_; ++d) {
                     dzn[d] = a * dp[d];
                     da += dp[d] * zn[d];
                   }
                   dalpha.data()[e] = da;
                 }
               });

  // Attention path.
  Tensor de_act = SegmentSoftmaxBackward(c.alpha, dalpha, c.seg_offsets, cc);
  Tensor de_raw = LeakyReluBackward(c.e_act, de_act, leaky_slope_, cc);

  // dz collects d loss / d z over all input rows: first each self row's attention
  // gradient, folded straight into its row (from +0.0f, as a separate self matrix
  // would be), then the neighbor rows' scatter.
  Tensor dz(c.h->rows(), out_dim_);
  // Chunked over segments: self row s of dz and the edges of segment s are owned by
  // one chunk. The shared attn_l/attn_r gradients are cross-chunk accumulators, so
  // each chunk writes a private partial and the partials are folded in ascending
  // chunk order (no atomics on floats, identical bits for any pool size). A body
  // never reads attn_l_.grad/attn_r_.grad, which the combine writes.
  const int64_t seg_chunks = ComputeChunkCount(num_segs, kComputeGrainRows);
  std::vector<Tensor> attn_l_partials(static_cast<size_t>(seg_chunks));
  std::vector<Tensor> attn_r_partials(static_cast<size_t>(seg_chunks));
  ForEachChunkOrdered(
      cc, num_segs, kComputeGrainRows,
      [&](int64_t chunk, int64_t seg_begin, int64_t seg_end) {
        Tensor dattn_l(1, out_dim_);
        Tensor dattn_r(1, out_dim_);
        for (int64_t s = seg_begin; s < seg_end; ++s) {
          const float* zs = c.z.RowPtr(c.self_begin + s);
          float* dzs = dz.RowPtr(c.self_begin + s);
          for (int64_t e = c.seg_offsets[static_cast<size_t>(s)];
               e < c.seg_offsets[static_cast<size_t>(s) + 1]; ++e) {
            const float de = de_raw.data()[e];
            const float* zn = c.z_nbr.RowPtr(e);
            float* dzn = dz_nbr.RowPtr(e);
            for (int64_t d = 0; d < out_dim_; ++d) {
              dattn_l.data()[d] += de * zs[d];
              dattn_r.data()[d] += de * zn[d];
              dzs[d] += de * attn_l_.value.data()[d];
              dzn[d] += de * attn_r_.value.data()[d];
            }
          }
        }
        attn_l_partials[static_cast<size_t>(chunk)] = std::move(dattn_l);
        attn_r_partials[static_cast<size_t>(chunk)] = std::move(dattn_r);
      },
      [&](int64_t chunk) {
        AddInPlace(attn_l_.grad, attn_l_partials[static_cast<size_t>(chunk)]);
        AddInPlace(attn_r_.grad, attn_r_partials[static_cast<size_t>(chunk)]);
      });

  ScatterAddRows(dz, c.nbr_rows, dz_nbr, cc);

  // Push dz through W.
  AddInPlace(w_.grad, MatmulTransA(*c.h, dz, cc), cc);
  if (!input_grad) {
    return Tensor();
  }
  Tensor dh = MatmulTransB(dz, w_.value, cc);
  MatmulTransBAdd(RowSpan(dh, c.self_begin, num_segs), dpre, w_root_.value, cc);
  return dh;
}

}  // namespace mariusgnn
