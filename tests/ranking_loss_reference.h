// Scalar reference for the ranking-loss kernel (src/nn/decoder.cc): the
// row-at-a-time loop it replaced, one score and one score-backward call per
// (edge, negative) pair, over the same fixed edge chunks and ascending-chunk fold.
// The kernel must reproduce its loss and every gradient bit for bit, at every
// vector width. Shared by nn_test and bench_micro_kernels.
#ifndef TESTS_RANKING_LOSS_REFERENCE_H_
#define TESTS_RANKING_LOSS_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/tensor/tensor.h"
#include "src/util/check.h"
#include "src/util/compute.h"

namespace mariusgnn {

enum class RefDecoder { kDistMult, kTransE, kComplEx };

inline RefDecoder RefDecoderNamed(const std::string& name) {
  if (name == "distmult") {
    return RefDecoder::kDistMult;
  }
  if (name == "transe") {
    return RefDecoder::kTransE;
  }
  MG_CHECK_MSG(name == "complex", "unknown decoder");
  return RefDecoder::kComplEx;
}

inline float RefScore(RefDecoder kind, int64_t dim, const float* s, const float* r,
                      const float* o) {
  float v = 0.0f;
  if (kind == RefDecoder::kDistMult) {
    for (int64_t d = 0; d < dim; ++d) {
      v += s[d] * r[d] * o[d];
    }
  } else if (kind == RefDecoder::kTransE) {
    for (int64_t d = 0; d < dim; ++d) {
      const float diff = s[d] + r[d] - o[d];
      v -= diff * diff;
    }
  } else {
    const int64_t half = dim / 2;
    for (int64_t d = 0; d < half; ++d) {
      v += (s[d] * r[d] - s[d + half] * r[d + half]) * o[d] +
           (s[d] * r[d + half] + s[d + half] * r[d]) * o[d + half];
    }
  }
  return v;
}

// Adds coeff * dScore into ds, dr, do_ (which may alias one another).
inline void RefScoreBackward(RefDecoder kind, int64_t dim, const float* s, const float* r,
                             const float* o, float coeff, float* ds, float* dr, float* do_) {
  if (kind == RefDecoder::kDistMult) {
    for (int64_t d = 0; d < dim; ++d) {
      ds[d] += coeff * r[d] * o[d];
      dr[d] += coeff * s[d] * o[d];
      do_[d] += coeff * s[d] * r[d];
    }
  } else if (kind == RefDecoder::kTransE) {
    for (int64_t d = 0; d < dim; ++d) {
      const float g = -2.0f * (s[d] + r[d] - o[d]) * coeff;
      ds[d] += g;
      dr[d] += g;
      do_[d] -= g;
    }
  } else {
    const int64_t half = dim / 2;
    for (int64_t d = 0; d < half; ++d) {
      const float sr = s[d], si = s[d + half];
      const float rr = r[d], ri = r[d + half];
      const float onr = o[d], oni = o[d + half];
      ds[d] += coeff * (rr * onr + ri * oni);
      ds[d + half] += coeff * (rr * oni - ri * onr);
      dr[d] += coeff * (sr * onr + si * oni);
      dr[d + half] += coeff * (sr * oni - si * onr);
      do_[d] += coeff * (sr * rr - si * ri);
      do_[d + half] += coeff * (sr * ri + si * rr);
    }
  }
}

struct RankingBatch {
  Tensor reprs;
  std::vector<int64_t> src, dst, negs;
  std::vector<int32_t> rels;
};

inline double RefSideLossChunk(RefDecoder kind, const RankingBatch& b,
                               const Tensor& rel_values, bool corrupt_src, float inv_b,
                               int64_t begin, int64_t end, Tensor* d_out, Tensor* rel_grad,
                               int64_t* skipped) {
  const int64_t dim = b.reprs.cols();
  const size_t m = b.negs.size();
  std::vector<float> logits(m + 1), probs(m + 1);
  double loss = 0.0;
  for (int64_t i = begin; i < end; ++i) {
    const size_t e = static_cast<size_t>(i);
    const float* s = b.reprs.RowPtr(b.src[e]);
    const float* o = b.reprs.RowPtr(b.dst[e]);
    const float* r = rel_values.RowPtr(b.rels[e]);
    logits[0] = RefScore(kind, dim, s, r, o);
    for (size_t j = 0; j < m; ++j) {
      const float* n = b.reprs.RowPtr(b.negs[j]);
      logits[j + 1] = corrupt_src ? RefScore(kind, dim, n, r, o) : RefScore(kind, dim, s, r, n);
    }
    float maxv = logits[0];
    for (float v : logits) {
      maxv = std::max(maxv, v);
    }
    double denom = 0.0;
    for (size_t j = 0; j < logits.size(); ++j) {
      probs[j] = std::exp(logits[j] - maxv);
      denom += probs[j];
    }
    const float inv_denom = static_cast<float>(1.0 / denom);
    for (auto& p : probs) {
      p *= inv_denom;
    }
    loss -= std::log(std::max(probs[0], 1e-12f));
    float* ds = d_out->RowPtr(b.src[e]);
    float* do_ = d_out->RowPtr(b.dst[e]);
    float* dr = rel_grad->RowPtr(b.rels[e]);
    RefScoreBackward(kind, dim, s, r, o, (probs[0] - 1.0f) * inv_b, ds, dr, do_);
    for (size_t j = 0; j < m; ++j) {
      const float* n = b.reprs.RowPtr(b.negs[j]);
      float* dn = d_out->RowPtr(b.negs[j]);
      const float coeff = probs[j + 1] * inv_b;
      if (coeff == 0.0f) {
        ++*skipped;
        continue;
      }
      if (corrupt_src) {
        RefScoreBackward(kind, dim, n, r, o, coeff, dn, dr, do_);
      } else {
        RefScoreBackward(kind, dim, s, r, n, coeff, ds, dr, dn);
      }
    }
  }
  return loss;
}

// Adds the rows of `partial` flagged in `touched` into `acc`.
inline void FoldTouched(Tensor* acc, const Tensor& partial,
                        const std::vector<char>& touched) {
  for (int64_t row = 0; row < acc->rows(); ++row) {
    if (touched[static_cast<size_t>(row)] == 0) {
      continue;
    }
    for (int64_t c = 0; c < acc->cols(); ++c) {
      acc->RowPtr(row)[c] += partial.RowPtr(row)[c];
    }
  }
}

// Adds the loss gradients into *d_reprs and *rel_grad and returns the loss;
// *skipped counts the zero softmax coefficients the loop skipped.
inline float RefLossAndGrad(RefDecoder kind, const RankingBatch& b, const Tensor& rel_values,
                            Tensor* d_reprs, Tensor* rel_grad, int64_t* skipped) {
  const int64_t batch = static_cast<int64_t>(b.src.size());
  const float inv_b = 0.5f / static_cast<float>(batch);
  const int64_t chunks = ComputeChunkCount(batch, kComputeGrainEdges);
  float total = 0.0f;
  for (bool corrupt_src : {false, true}) {
    double loss = 0.0;
    if (chunks <= 1) {
      loss = RefSideLossChunk(kind, b, rel_values, corrupt_src, inv_b, 0, batch, d_reprs,
                              rel_grad, skipped);
    } else {
      for (int64_t c = 0; c < chunks; ++c) {
        const int64_t begin = c * kComputeGrainEdges;
        const int64_t end = std::min(begin + kComputeGrainEdges, batch);
        Tensor d_partial(d_reprs->rows(), d_reprs->cols());
        Tensor rel_partial(rel_grad->rows(), rel_grad->cols());
        std::vector<char> rows(static_cast<size_t>(d_reprs->rows()), 0);
        std::vector<char> rels(static_cast<size_t>(rel_grad->rows()), 0);
        for (int64_t n : b.negs) {
          rows[static_cast<size_t>(n)] = 1;
        }
        for (int64_t i = begin; i < end; ++i) {
          rows[static_cast<size_t>(b.src[static_cast<size_t>(i)])] = 1;
          rows[static_cast<size_t>(b.dst[static_cast<size_t>(i)])] = 1;
          rels[static_cast<size_t>(b.rels[static_cast<size_t>(i)])] = 1;
        }
        const double part = RefSideLossChunk(kind, b, rel_values, corrupt_src, inv_b, begin,
                                             end, &d_partial, &rel_partial, skipped);
        FoldTouched(d_reprs, d_partial, rows);
        FoldTouched(rel_grad, rel_partial, rels);
        loss += part;
      }
    }
    total += static_cast<float>(loss * inv_b);
  }
  return total;
}

}  // namespace mariusgnn

#endif  // TESTS_RANKING_LOSS_REFERENCE_H_
