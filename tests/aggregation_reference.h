// Scalar definitions of the GNN neighbour aggregation, composed the way the layers
// once ran it from separate kernels: gather the neighbour rows into an edge-sized
// matrix, then reduce each segment; backward, broadcast each segment's gradient to
// its positions, then scatter-add them, folding one +0.0f partial per chunk of
// kComputeGrainScatterRows positions into each destination row in ascending chunk
// order (one chunk, or strictly increasing indices, add straight in). The fused
// kernels in src/tensor/ops.h must equal these bit for bit.
//
// Below them, the three GNN layers as they were composed before they read their
// self rows in place (RefGraphSageRun, RefGcnRun, RefGatRun): the layers in
// src/nn must equal these bit for bit on a contiguous self-row range.
#ifndef TESTS_AGGREGATION_REFERENCE_H_
#define TESTS_AGGREGATION_REFERENCE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/nn/layer.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"
#include "src/util/compute.h"

namespace mariusgnn {

// out[e] = h[rows[e]].
inline Tensor RefGather(const Tensor& h, const std::vector<int64_t>& rows) {
  Tensor out(static_cast<int64_t>(rows.size()), h.cols());
  for (size_t e = 0; e < rows.size(); ++e) {
    for (int64_t c = 0; c < h.cols(); ++c) {
      out(static_cast<int64_t>(e), c) = h(rows[e], c);
    }
  }
  return out;
}

// Segment sum from +0.0f in row order; the mean scales by 1.0f / count when count > 1.
inline Tensor RefSegmentReduce(const Tensor& src, const std::vector<int64_t>& offsets,
                               bool mean) {
  const int64_t segs = static_cast<int64_t>(offsets.size()) - 1;
  Tensor out(segs, src.cols());
  for (int64_t s = 0; s < segs; ++s) {
    const int64_t count = offsets[static_cast<size_t>(s) + 1] - offsets[static_cast<size_t>(s)];
    for (int64_t c = 0; c < src.cols(); ++c) {
      float sum = 0.0f;
      for (int64_t r = offsets[static_cast<size_t>(s)]; r < offsets[static_cast<size_t>(s) + 1];
           ++r) {
        sum += src(r, c);
      }
      if (mean && count > 1) {
        sum *= 1.0f / static_cast<float>(count);
      }
      out(s, c) = sum;
    }
  }
  return out;
}

// out[e] = grad[seg(e)], times 1.0f / count for the mean of a segment of count > 1.
inline Tensor RefSegmentBroadcast(const Tensor& grad, const std::vector<int64_t>& offsets,
                                  bool mean) {
  Tensor out(offsets.back(), grad.cols());
  for (size_t s = 0; s + 1 < offsets.size(); ++s) {
    const int64_t count = offsets[s + 1] - offsets[s];
    for (int64_t r = offsets[s]; r < offsets[s + 1]; ++r) {
      for (int64_t c = 0; c < grad.cols(); ++c) {
        float v = grad(static_cast<int64_t>(s), c);
        if (mean && count > 1) {
          v *= 1.0f / static_cast<float>(count);
        }
        out(r, c) = v;
      }
    }
  }
  return out;
}

// dst[indices[e]] += src[e] with the chunk-partial fold.
inline void RefScatterAddRows(Tensor& dst, const std::vector<int64_t>& indices,
                              const Tensor& src) {
  const int64_t n = static_cast<int64_t>(indices.size());
  bool strictly_increasing = true;
  for (int64_t e = 1; e < n; ++e) {
    strictly_increasing = strictly_increasing &&
                          indices[static_cast<size_t>(e)] > indices[static_cast<size_t>(e) - 1];
  }
  if (n <= kComputeGrainScatterRows || strictly_increasing) {
    for (int64_t e = 0; e < n; ++e) {
      for (int64_t c = 0; c < src.cols(); ++c) {
        dst(indices[static_cast<size_t>(e)], c) += src(e, c);
      }
    }
    return;
  }
  for (int64_t begin = 0; begin < n; begin += kComputeGrainScatterRows) {
    std::map<int64_t, std::vector<float>> partials;
    for (int64_t e = begin; e < n && e < begin + kComputeGrainScatterRows; ++e) {
      std::vector<float>& partial = partials[indices[static_cast<size_t>(e)]];
      partial.resize(static_cast<size_t>(src.cols()), 0.0f);
      for (int64_t c = 0; c < src.cols(); ++c) {
        partial[static_cast<size_t>(c)] += src(e, c);
      }
    }
    for (const auto& [row, partial] : partials) {
      for (int64_t c = 0; c < src.cols(); ++c) {
        dst(row, c) += partial[static_cast<size_t>(c)];
      }
    }
  }
}

inline Tensor RefGatherSegmentReduce(const Tensor& h, const std::vector<int64_t>& rows,
                                     const std::vector<int64_t>& offsets, bool mean) {
  return RefSegmentReduce(RefGather(h, rows), offsets, mean);
}

inline void RefGatherSegmentReduceBackward(Tensor& dh, const std::vector<int64_t>& rows,
                                           const std::vector<int64_t>& offsets,
                                           const Tensor& grad, bool mean) {
  RefScatterAddRows(dh, rows, RefSegmentBroadcast(grad, offsets, mean));
}

// One forward and backward of a layer: its output, d loss / d h, and its
// parameter gradients in the layer's Parameters() order.
struct RefLayerRun {
  Tensor out;
  Tensor dh;
  std::vector<Tensor> grads;
};

// The old composition's inputs: `self_rows` are any rows of h (the layers now
// take the contiguous run self_begin, self_begin + 1, ...), and `params` are the
// layer's parameter values in Parameters() order. Every run is serial, and every
// parameter gradient starts at zero and takes each term through AddInPlace, as a
// fresh layer's does.
struct RefLayerInputs {
  const Tensor* h = nullptr;
  std::vector<int64_t> self_rows;
  std::vector<int64_t> nbr_rows;
  std::vector<int64_t> seg_offsets;
  std::vector<const Tensor*> params;
  Activation act = Activation::kNone;
  const Tensor* grad_out = nullptr;
};

inline std::vector<Tensor> RefZeroGrads(const std::vector<const Tensor*>& params) {
  std::vector<Tensor> grads;
  for (const Tensor* p : params) {
    grads.emplace_back(p->rows(), p->cols());
  }
  return grads;
}

// GraphSage: IndexSelect of the self rows, a second Matmul added with
// AddInPlace, and the self gradient sent back through ScatterAddRows.
inline RefLayerRun RefGraphSageRun(const RefLayerInputs& in) {
  const Tensor& h = *in.h;
  const Tensor &w_self = *in.params[0], &w_nbr = *in.params[1], &bias = *in.params[2];
  RefLayerRun run;
  run.grads = RefZeroGrads(in.params);
  const Tensor self_in = IndexSelect(h, in.self_rows);
  const Tensor nbr_mean = GatherSegmentMean(h, in.nbr_rows, in.seg_offsets);
  Tensor pre = Matmul(self_in, w_self);
  AddInPlace(pre, Matmul(nbr_mean, w_nbr));
  AddBiasRows(pre, bias);
  run.out = ApplyActivation(in.act, pre);
  const Tensor dpre = ActivationBackward(in.act, run.out, *in.grad_out);
  AddInPlace(run.grads[0], MatmulTransA(self_in, dpre));
  AddInPlace(run.grads[1], MatmulTransA(nbr_mean, dpre));
  AddInPlace(run.grads[2], SumRows(dpre));
  const Tensor dself = MatmulTransB(dpre, w_self);
  const Tensor dnbr_mean = MatmulTransB(dpre, w_nbr);
  run.dh = Tensor(h.rows(), h.cols());
  ScatterAddRows(run.dh, in.self_rows, dself);
  GatherSegmentMeanBackward(run.dh, in.nbr_rows, in.seg_offsets, dnbr_mean);
  return run;
}

// Row s of t times 1.0f / (1 + |segment s|).
inline void RefScaleByClosedNeighborhood(Tensor& t, const std::vector<int64_t>& offsets) {
  for (int64_t s = 0; s < t.rows(); ++s) {
    const float inv = 1.0f / static_cast<float>(1 + offsets[static_cast<size_t>(s) + 1] -
                                                offsets[static_cast<size_t>(s)]);
    for (int64_t c = 0; c < t.cols(); ++c) {
      t(s, c) *= inv;
    }
  }
}

// GCN: the self rows gathered with IndexSelect and added to the neighbour sum,
// and the self gradient sent back through ScatterAddRows.
inline RefLayerRun RefGcnRun(const RefLayerInputs& in) {
  const Tensor& h = *in.h;
  const Tensor &w = *in.params[0], &bias = *in.params[1];
  RefLayerRun run;
  run.grads = RefZeroGrads(in.params);
  Tensor agg = GatherSegmentSum(h, in.nbr_rows, in.seg_offsets);
  AddInPlace(agg, IndexSelect(h, in.self_rows));
  RefScaleByClosedNeighborhood(agg, in.seg_offsets);
  Tensor pre = Matmul(agg, w);
  AddBiasRows(pre, bias);
  run.out = ApplyActivation(in.act, pre);
  const Tensor dpre = ActivationBackward(in.act, run.out, *in.grad_out);
  AddInPlace(run.grads[0], MatmulTransA(agg, dpre));
  AddInPlace(run.grads[1], SumRows(dpre));
  Tensor dagg = MatmulTransB(dpre, w);
  RefScaleByClosedNeighborhood(dagg, in.seg_offsets);
  run.dh = Tensor(h.rows(), h.cols());
  ScatterAddRows(run.dh, in.self_rows, dagg);
  GatherSegmentSumBackward(run.dh, in.nbr_rows, in.seg_offsets, dagg);
  return run;
}

// GAT (leaky slope 0.2): the self rows of h and of z = h W gathered with
// IndexSelect, the root product added with AddInPlace, the self rows' attention
// gradient collected in a matrix of its own and scattered into d z, and the root
// gradient sent back through ScatterAddRows. The attention-vector gradients fold
// one partial per chunk of kComputeGrainRows segments in chunk order, as the
// layer does.
inline RefLayerRun RefGatRun(const RefLayerInputs& in) {
  constexpr float kSlope = 0.2f;
  const Tensor& h = *in.h;
  const Tensor &w = *in.params[0], &w_root = *in.params[1], &attn_l = *in.params[2],
               &attn_r = *in.params[3], &bias = *in.params[4];
  const int64_t out_dim = w.cols();
  const int64_t num_segs = static_cast<int64_t>(in.seg_offsets.size()) - 1;
  const int64_t num_edges = static_cast<int64_t>(in.nbr_rows.size());
  std::vector<int64_t> owner(static_cast<size_t>(num_edges));
  for (int64_t s = 0; s < num_segs; ++s) {
    for (int64_t e = in.seg_offsets[static_cast<size_t>(s)];
         e < in.seg_offsets[static_cast<size_t>(s) + 1]; ++e) {
      owner[static_cast<size_t>(e)] = s;
    }
  }
  RefLayerRun run;
  run.grads = RefZeroGrads(in.params);

  const Tensor z = Matmul(h, w);
  const Tensor self_in = IndexSelect(h, in.self_rows);
  const Tensor z_self = IndexSelect(z, in.self_rows);
  const Tensor z_nbr = IndexSelect(z, in.nbr_rows);
  Tensor scores(num_edges, 1);
  for (int64_t e = 0; e < num_edges; ++e) {
    const float* zs = z_self.RowPtr(owner[static_cast<size_t>(e)]);
    const float* zn = z_nbr.RowPtr(e);
    float s = 0.0f;
    for (int64_t d = 0; d < out_dim; ++d) {
      s += attn_l.data()[d] * zs[d] + attn_r.data()[d] * zn[d];
    }
    scores.data()[e] = s;
  }
  const Tensor e_act = LeakyRelu(scores, kSlope);
  Tensor alpha = e_act;
  SegmentSoftmaxInPlace(alpha, in.seg_offsets);
  Tensor weighted(num_edges, out_dim);
  for (int64_t e = 0; e < num_edges; ++e) {
    for (int64_t d = 0; d < out_dim; ++d) {
      weighted(e, d) = alpha.data()[e] * z_nbr(e, d);
    }
  }
  Tensor pre = SegmentSum(weighted, in.seg_offsets);
  AddInPlace(pre, Matmul(self_in, w_root));
  AddBiasRows(pre, bias);
  run.out = ApplyActivation(in.act, pre);

  const Tensor dpre = ActivationBackward(in.act, run.out, *in.grad_out);
  AddInPlace(run.grads[1], MatmulTransA(self_in, dpre));
  AddInPlace(run.grads[4], SumRows(dpre));
  Tensor dz_nbr(num_edges, out_dim);
  Tensor dalpha(num_edges, 1);
  for (int64_t e = 0; e < num_edges; ++e) {
    const float* dp = dpre.RowPtr(owner[static_cast<size_t>(e)]);
    float da = 0.0f;
    for (int64_t d = 0; d < out_dim; ++d) {
      dz_nbr(e, d) = alpha.data()[e] * dp[d];
      da += dp[d] * z_nbr(e, d);
    }
    dalpha.data()[e] = da;
  }
  const Tensor de_act = SegmentSoftmaxBackward(alpha, dalpha, in.seg_offsets);
  const Tensor de_raw = LeakyReluBackward(e_act, de_act, kSlope);
  Tensor dz_self(num_segs, out_dim);
  for (int64_t begin = 0; begin < num_segs; begin += kComputeGrainRows) {
    Tensor dattn_l(1, out_dim);
    Tensor dattn_r(1, out_dim);
    for (int64_t s = begin; s < num_segs && s < begin + kComputeGrainRows; ++s) {
      for (int64_t e = in.seg_offsets[static_cast<size_t>(s)];
           e < in.seg_offsets[static_cast<size_t>(s) + 1]; ++e) {
        const float de = de_raw.data()[e];
        for (int64_t d = 0; d < out_dim; ++d) {
          dattn_l.data()[d] += de * z_self(s, d);
          dattn_r.data()[d] += de * z_nbr(e, d);
          dz_self(s, d) += de * attn_l.data()[d];
          dz_nbr(e, d) += de * attn_r.data()[d];
        }
      }
    }
    AddInPlace(run.grads[2], dattn_l);
    AddInPlace(run.grads[3], dattn_r);
  }
  Tensor dz(h.rows(), out_dim);
  ScatterAddRows(dz, in.self_rows, dz_self);
  ScatterAddRows(dz, in.nbr_rows, dz_nbr);
  AddInPlace(run.grads[0], MatmulTransA(h, dz));
  run.dh = MatmulTransB(dz, w);
  ScatterAddRows(run.dh, in.self_rows, MatmulTransB(dpre, w_root));
  return run;
}

}  // namespace mariusgnn

#endif  // TESTS_AGGREGATION_REFERENCE_H_
