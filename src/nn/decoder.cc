#include "src/nn/decoder.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"
#include "src/util/slot_remap.h"
#include "src/util/vec.h"

namespace mariusgnn {

// One side's inputs, shared read-only by all of its chunks.
struct RankingLossSide {
  const Tensor* reprs;
  const Tensor* rel_values;
  const std::vector<int64_t>* src_rows;
  const std::vector<int64_t>* dst_rows;
  const std::vector<int32_t>* rels;
  const std::vector<int64_t>* neg_rows;
  // The negatives transposed, component c of negative j at neg_block[c * m_pad + j];
  // the lanes j >= neg_rows->size() are zero padding.
  const float* neg_block;
  int64_t m_pad;
  int64_t dim;
  bool corrupt_src;
  float inv_b;  // scale / batch: the gradient coefficient of one edge
};

namespace {

// Gradient row for `row`: direct, or through the chunk's compact-slot remap.
inline float* GradRow(Tensor* t, const int32_t* slot_of, int64_t row) {
  return t->RowPtr(slot_of == nullptr ? row : slot_of[static_cast<size_t>(row)]);
}

// Per-thread repr-row and relation remaps for the chunked loss kernel (see
// slot_remap.h): bumping a generation replaces the O(num_rows) sentinel fill a
// fresh remap would pay in every 128-edge chunk. The kernel only dereferences
// rows the claim pass touched, so stale entries are never read.
thread_local SlotRemap decoder_row_remap;
thread_local SlotRemap decoder_rel_remap;

// Negatives the forward pass scores side by side, one logit per lane: kLanes / kW
// accumulator vectors per lane group, held in registers across all steps.
constexpr int64_t kLanes = 16;
// Vectors per backward block, over all parts of a step: the edge's held gradient
// row and its relation gradient row stay in kBlockVecs / kParts vector locals per
// part across all of its partners.
constexpr int kBlockVecs = 4;

// Elementwise forms of the decoders. A score is the left-to-right fold of Term over
// the steps k in [0, dim / kParts); step k reads components k, k + dim / kParts, ...
// of each vector, so ComplEx pairs each real component with its imaginary one.
// Grad gives coeff times the step's partial derivatives with respect to s, r and o.
// Every operand is a float or a Vec: a scalar operand meets a Vec through the
// vector extension's broadcast, unrounded, so each lane computes exactly the
// scalar expression.
struct DistMultForm {
  static constexpr int kParts = 1;
  template <class A, class S, class R, class O>
  static A Term(A acc, const S* s, const R* r, const O* o) {
    return acc + s[0] * r[0] * o[0];
  }
  template <class V>
  static void Grad(float coeff, const V* s, const V* r, const V* o, V* gs, V* gr, V* go) {
    gs[0] = coeff * r[0] * o[0];
    gr[0] = coeff * s[0] * o[0];
    go[0] = coeff * s[0] * r[0];
  }
};

struct TransEForm {
  static constexpr int kParts = 1;
  template <class A, class S, class R, class O>
  static A Term(A acc, const S* s, const R* r, const O* o) {
    const auto diff = s[0] + r[0] - o[0];
    return acc - diff * diff;
  }
  template <class V>
  static void Grad(float coeff, const V* s, const V* r, const V* o, V* gs, V* gr, V* go) {
    const V g = -2.0f * (s[0] + r[0] - o[0]) * coeff;
    gs[0] = g;
    gr[0] = g;
    go[0] = -g;
  }
};

struct ComplExForm {
  static constexpr int kParts = 2;  // {real, imaginary}
  template <class A, class S, class R, class O>
  static A Term(A acc, const S* s, const R* r, const O* o) {
    return acc + ((s[0] * r[0] - s[1] * r[1]) * o[0] + (s[0] * r[1] + s[1] * r[0]) * o[1]);
  }
  template <class V>
  static void Grad(float coeff, const V* s, const V* r, const V* o, V* gs, V* gr, V* go) {
    gs[0] = coeff * (r[0] * o[0] + r[1] * o[1]);
    gs[1] = coeff * (r[0] * o[1] - r[1] * o[0]);
    gr[0] = coeff * (s[0] * o[0] + s[1] * o[1]);
    gr[1] = coeff * (s[0] * o[1] - s[1] * o[0]);
    go[0] = coeff * (s[0] * r[0] - s[1] * r[1]);
    go[1] = coeff * (s[0] * r[1] + s[1] * r[0]);
  }
};

// The kParts components of step k of a row with `steps` steps.
template <int kParts>
inline void LoadStep(const float* row, int64_t k, int64_t steps, float* out) {
  for (int p = 0; p < kParts; ++p) {
    out[p] = row[k + p * steps];
  }
}

// The kParts vectors of steps [k, k + kW) of a row with `steps` steps.
template <int kParts>
inline void LoadStepVec(const float* row, int64_t k, int64_t steps, Vec* out) {
  for (int p = 0; p < kParts; ++p) {
    out[p] = LoadVec(row + k + p * steps);
  }
}

template <class Form>
float ScoreRows(const float* s, const float* r, const float* o, int64_t steps) {
  constexpr int P = Form::kParts;
  float v = 0.0f;
  for (int64_t k = 0; k < steps; ++k) {
    float sp[P], rp[P], op[P];
    LoadStep<P>(s, k, steps, sp);
    LoadStep<P>(r, k, steps, rp);
    LoadStep<P>(o, k, steps, op);
    v = Form::Term(v, sp, rp, op);
  }
  return v;
}

// Logits of all negatives against one edge, into out[0, m_pad). `fixed` is s on
// the destination side and o on the source side. Lanes run across negatives and
// every lane folds its steps in order from +0.0f, with the fixed row's and the
// relation's step values broadcast, so each logit is the same sum of the same
// products as ScoreRows over the negative's row.
template <class Form, bool kCorruptSrc>
void ScoreNegatives(const float* fixed, const float* r, const float* block, int64_t m_pad,
                    int64_t steps, float* out) {
  constexpr int P = Form::kParts;
  constexpr int64_t kAcc = kLanes / kW;
  const int64_t part_stride = steps * m_pad;
  for (int64_t j0 = 0; j0 < m_pad; j0 += kLanes) {
    Vec acc[kAcc] = {};
    for (int64_t k = 0; k < steps; ++k) {
      float fp[P], rp[P];
      LoadStep<P>(fixed, k, steps, fp);
      LoadStep<P>(r, k, steps, rp);
      const float* col = block + k * m_pad + j0;
      for (int64_t v = 0; v < kAcc; ++v) {
        Vec np[P];
        for (int p = 0; p < P; ++p) {
          np[p] = LoadVec(col + p * part_stride + v * kW);
        }
        acc[v] = kCorruptSrc ? Form::Term(acc[v], np, rp, fp) : Form::Term(acc[v], fp, rp, np);
      }
    }
    for (int64_t v = 0; v < kAcc; ++v) {
      StoreVec(out + j0 + v * kW, acc[v]);
    }
  }
}

// The other row of one backward term: the positive's partner (o on the destination
// side, s on the source side) or a negative, with its gradient row and coefficient.
struct Partner {
  const float* n;
  float* dn;
  float coeff;
};

// One term's update of steps [k0, k0 + kNV * kW). `held`/`rel` are the register
// blocks of the fixed row's and the relation's gradient; `f`, `r`, `n` and `dn`
// are whole rows of part stride `steps`. The updates land in the order a
// row-at-a-time backward gives them: held, rel, partner on the destination side,
// partner, rel, held on the source side. When the partner's gradient row is the
// held row (kHeld), its update goes to the held block in that same sequence.
template <class Form, bool kCorruptSrc, bool kHeld, int kNV>
inline void PartnerBlock(float coeff, const float* f, const float* r, const float* n,
                         Vec (&held)[Form::kParts][kNV], Vec (&rel)[Form::kParts][kNV],
                         float* dn, int64_t k0, int64_t steps) {
  constexpr int P = Form::kParts;
  for (int v = 0; v < kNV; ++v) {
    const int64_t k = k0 + v * kW;
    Vec fp[P], rp[P], np[P], gf[P], gr[P], gn[P];
    LoadStepVec<P>(f, k, steps, fp);
    LoadStepVec<P>(r, k, steps, rp);
    LoadStepVec<P>(n, k, steps, np);
    if constexpr (kCorruptSrc) {
      Form::Grad(coeff, np, rp, fp, gn, gr, gf);
    } else {
      Form::Grad(coeff, fp, rp, np, gf, gr, gn);
    }
    for (int p = 0; p < P; ++p) {
      Vec& hf = held[p][v];
      Vec partner{};
      if constexpr (!kHeld) {
        partner = LoadVec(dn + k + p * steps);
      }
      Vec& pn = kHeld ? hf : partner;
      if constexpr (kCorruptSrc) {
        pn += gn[p];
        rel[p][v] += gr[p];
        hf += gf[p];
      } else {
        hf += gf[p];
        rel[p][v] += gr[p];
        pn += gn[p];
      }
      if constexpr (!kHeld) {
        StoreVec(dn + k + p * steps, partner);
      }
    }
  }
}

// Steps [k0, k0 + kNV * kW) of one edge's backward: the held gradient row and the
// relation gradient are loaded into registers once, every partner updates them in
// order, and they are stored back once.
template <class Form, bool kCorruptSrc, int kNV>
void BackwardBlock(const float* f, const float* r, float* df, float* dr,
                   const std::vector<Partner>& partners, int64_t k0, int64_t steps) {
  constexpr int P = Form::kParts;
  Vec held[P][kNV], rel[P][kNV];
  for (int p = 0; p < P; ++p) {
    for (int v = 0; v < kNV; ++v) {
      held[p][v] = LoadVec(df + p * steps + k0 + v * kW);
      rel[p][v] = LoadVec(dr + p * steps + k0 + v * kW);
    }
  }
  for (const Partner& t : partners) {
    if (t.dn == df) {
      PartnerBlock<Form, kCorruptSrc, true, kNV>(t.coeff, f, r, t.n, held, rel, nullptr, k0,
                                                 steps);
    } else {
      PartnerBlock<Form, kCorruptSrc, false, kNV>(t.coeff, f, r, t.n, held, rel, t.dn, k0,
                                                  steps);
    }
  }
  for (int p = 0; p < P; ++p) {
    for (int v = 0; v < kNV; ++v) {
      StoreVec(df + p * steps + k0 + v * kW, held[p][v]);
      StoreVec(dr + p * steps + k0 + v * kW, rel[p][v]);
    }
  }
}

// Backward pass of one edge: `f` is the fixed representation (s on the destination
// side, o on the source side) and `df` its gradient row. Steps go in register
// blocks of kBlockVecs / kParts vectors per part, then single vectors (a row
// shorter than a block, such as dim 32 at 16 lanes, stays in vectors), then one
// scalar step at a time in memory, where a partner whose gradient row is df
// meets it in the same sequence by aliasing.
template <class Form, bool kCorruptSrc>
void BackwardEdge(const float* f, const float* r, float* df, float* dr,
                  const std::vector<Partner>& partners, int64_t steps) {
  constexpr int P = Form::kParts;
  int64_t k0 = 0;
  for (; k0 + kBlockVecs / P * kW <= steps; k0 += kBlockVecs / P * kW) {
    BackwardBlock<Form, kCorruptSrc, kBlockVecs / P>(f, r, df, dr, partners, k0, steps);
  }
  for (; k0 + kW <= steps; k0 += kW) {
    BackwardBlock<Form, kCorruptSrc, 1>(f, r, df, dr, partners, k0, steps);
  }
  for (const Partner& t : partners) {
    for (int64_t k = k0; k < steps; ++k) {
      float fp[P], rp[P], np[P], gf[P], gr[P], gn[P];
      LoadStep<P>(f, k, steps, fp);
      LoadStep<P>(r, k, steps, rp);
      LoadStep<P>(t.n, k, steps, np);
      if constexpr (kCorruptSrc) {
        Form::Grad(t.coeff, np, rp, fp, gn, gr, gf);
      } else {
        Form::Grad(t.coeff, fp, rp, np, gf, gr, gn);
      }
      for (int p = 0; p < P; ++p) {
        float& hf = df[k + p * steps];
        float& pn = t.dn[k + p * steps];
        if constexpr (kCorruptSrc) {
          pn += gn[p];
          dr[k + p * steps] += gr[p];
          hf += gf[p];
        } else {
          hf += gf[p];
          dr[k + p * steps] += gr[p];
          pn += gn[p];
        }
      }
    }
  }
}

// One chunk of positive edges: scores each edge against the shared negatives and
// accumulates d loss / d reprs into `d_out` and relation gradients into `rel_grad`.
// `d_out`/`rel_grad` are either the real accumulators (single chunk, slot_of ==
// rel_slot_of == nullptr) or per-chunk compact partials indexed through the slot
// remaps (parallel), so the per-edge arithmetic is identical either way.
template <class Form, bool kCorruptSrc>
double LossChunk(const RankingLossSide& side, int64_t begin, int64_t end, Tensor* d_out,
                 Tensor* rel_grad, const int32_t* slot_of, const int32_t* rel_slot_of) {
  const Tensor& reprs = *side.reprs;
  const std::vector<int64_t>& neg_rows = *side.neg_rows;
  const int64_t m = static_cast<int64_t>(neg_rows.size());
  const int64_t steps = side.dim / Form::kParts;
  const float inv_b = side.inv_b;
  std::vector<float> logits(static_cast<size_t>(m) + 1);
  std::vector<float> probs(static_cast<size_t>(m) + 1);
  std::vector<float> lanes(static_cast<size_t>(side.m_pad));
  std::vector<Partner> negatives(static_cast<size_t>(m));
  for (int64_t j = 0; j < m; ++j) {
    const int64_t nrow = neg_rows[static_cast<size_t>(j)];
    negatives[static_cast<size_t>(j)] = {reprs.RowPtr(nrow), GradRow(d_out, slot_of, nrow),
                                         0.0f};
  }
  std::vector<Partner> partners;
  partners.reserve(static_cast<size_t>(m) + 1);
  double loss = 0.0;
  for (int64_t i = begin; i < end; ++i) {
    const int64_t src_row = (*side.src_rows)[static_cast<size_t>(i)];
    const int64_t dst_row = (*side.dst_rows)[static_cast<size_t>(i)];
    const float* s = reprs.RowPtr(src_row);
    const float* o = reprs.RowPtr(dst_row);
    const int32_t rel = (*side.rels)[static_cast<size_t>(i)];
    const float* r = side.rel_values->RowPtr(rel);

    logits[0] = ScoreRows<Form>(s, r, o, steps);
    ScoreNegatives<Form, kCorruptSrc>(kCorruptSrc ? o : s, r, side.neg_block, side.m_pad,
                                      steps, lanes.data());
    std::copy(lanes.begin(), lanes.begin() + m, logits.begin() + 1);

    // Softmax CE with the positive in class 0.
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

    // dlogit_0 = (p0 - 1)/B, dlogit_j = p_j/B; negatives with a zero coefficient
    // contribute nothing and are skipped.
    float* ds = GradRow(d_out, slot_of, src_row);
    float* do_ = GradRow(d_out, slot_of, dst_row);
    float* dr = GradRow(rel_grad, rel_slot_of, rel);
    const float c0 = (probs[0] - 1.0f) * inv_b;
    partners.clear();
    partners.push_back(kCorruptSrc ? Partner{s, ds, c0} : Partner{o, do_, c0});
    for (int64_t j = 0; j < m; ++j) {
      const float coeff = probs[static_cast<size_t>(j) + 1] * inv_b;
      if (coeff == 0.0f) {
        continue;
      }
      const Partner& n = negatives[static_cast<size_t>(j)];
      partners.push_back({n.n, n.dn, coeff});
    }
    BackwardEdge<Form, kCorruptSrc>(kCorruptSrc ? o : s, r, kCorruptSrc ? do_ : ds, dr,
                                    partners, steps);
  }
  return loss;
}

template <class Form>
double RankingLossChunk(const RankingLossSide& side, int64_t begin, int64_t end,
                        Tensor* d_out, Tensor* rel_grad, const int32_t* slot_of,
                        const int32_t* rel_slot_of) {
  return side.corrupt_src
             ? LossChunk<Form, true>(side, begin, end, d_out, rel_grad, slot_of, rel_slot_of)
             : LossChunk<Form, false>(side, begin, end, d_out, rel_grad, slot_of,
                                      rel_slot_of);
}

}  // namespace

float Decoder::SideLossAndGrad(const RankingLossSide& side, Tensor* d_reprs) {
  const int64_t batch = static_cast<int64_t>(side.src_rows->size());
  const int64_t chunks = ComputeChunkCount(batch, kComputeGrainEdges);
  if (chunks <= 1) {
    const double loss = SideLossChunk(side, 0, batch, d_reprs, &rel_.grad,
                                      /*slot_of=*/nullptr, /*rel_slot_of=*/nullptr);
    return static_cast<float>(loss * side.inv_b);
  }

  // Every edge writes the shared negative rows (and possibly shared src/dst/relation
  // rows), so chunks accumulate into private partials that are folded into the real
  // accumulators in ascending chunk order — deterministic for any pool size. The
  // partials are compact: a chunk only touches the shared negatives plus its own
  // src/dst rows, so its buffer holds just those rows (slot order: negatives first,
  // then first occurrence — a fixed function of the chunk layout, never the pool).
  const std::vector<int64_t>& src_rows = *side.src_rows;
  const std::vector<int64_t>& dst_rows = *side.dst_rows;
  const std::vector<int32_t>& rels = *side.rels;
  std::vector<Tensor> d_partials(static_cast<size_t>(chunks));
  std::vector<std::vector<int64_t>> touched_rows(static_cast<size_t>(chunks));
  std::vector<Tensor> rel_partials(static_cast<size_t>(chunks));
  std::vector<std::vector<int64_t>> touched_rels(static_cast<size_t>(chunks));
  std::vector<double> loss_partials(static_cast<size_t>(chunks), 0.0);
  double loss = 0.0;
  ForEachChunkOrdered(
      compute_, batch, kComputeGrainEdges,
      [&](int64_t chunk, int64_t begin, int64_t end) {
        SlotRemap& row_remap = decoder_row_remap;
        row_remap.NextGeneration(d_reprs->rows());
        std::vector<int64_t> touched;
        for (int64_t row : *side.neg_rows) {
          row_remap.Claim(row, &touched);
        }
        SlotRemap& rel_remap = decoder_rel_remap;
        rel_remap.NextGeneration(rel_.grad.rows());
        std::vector<int64_t> rels_touched;
        for (int64_t i = begin; i < end; ++i) {
          row_remap.Claim(src_rows[static_cast<size_t>(i)], &touched);
          row_remap.Claim(dst_rows[static_cast<size_t>(i)], &touched);
          rel_remap.Claim(rels[static_cast<size_t>(i)], &rels_touched);
        }
        Tensor d_partial(static_cast<int64_t>(touched.size()), d_reprs->cols());
        Tensor rel_partial(static_cast<int64_t>(rels_touched.size()), rel_.grad.cols());
        loss_partials[static_cast<size_t>(chunk)] =
            SideLossChunk(side, begin, end, &d_partial, &rel_partial,
                          row_remap.slot_of.data(), rel_remap.slot_of.data());
        d_partials[static_cast<size_t>(chunk)] = std::move(d_partial);
        touched_rows[static_cast<size_t>(chunk)] = std::move(touched);
        rel_partials[static_cast<size_t>(chunk)] = std::move(rel_partial);
        touched_rels[static_cast<size_t>(chunk)] = std::move(rels_touched);
      },
      [&](int64_t chunk) {
        auto fold = [](Tensor& acc, const Tensor& partial,
                       const std::vector<int64_t>& rows) {
          for (size_t s = 0; s < rows.size(); ++s) {
            float* dst = acc.RowPtr(rows[s]);
            const float* src = partial.RowPtr(static_cast<int64_t>(s));
            for (int64_t c = 0; c < acc.cols(); ++c) {
              dst[c] += src[c];
            }
          }
        };
        fold(*d_reprs, d_partials[static_cast<size_t>(chunk)],
             touched_rows[static_cast<size_t>(chunk)]);
        fold(rel_.grad, rel_partials[static_cast<size_t>(chunk)],
             touched_rels[static_cast<size_t>(chunk)]);
        loss += loss_partials[static_cast<size_t>(chunk)];
        // Free the folded partials eagerly.
        d_partials[static_cast<size_t>(chunk)] = Tensor();
        rel_partials[static_cast<size_t>(chunk)] = Tensor();
      });
  return static_cast<float>(loss * side.inv_b);
}

float Decoder::LossAndGrad(const Tensor& reprs, const std::vector<int64_t>& src_rows,
                           const std::vector<int64_t>& dst_rows,
                           const std::vector<int32_t>& rels,
                           const std::vector<int64_t>& neg_rows, Tensor* d_reprs) {
  MG_CHECK(d_reprs != nullptr);
  MG_CHECK(d_reprs->rows() == reprs.rows() && d_reprs->cols() == reprs.cols());
  MG_CHECK(src_rows.size() == dst_rows.size() && src_rows.size() == rels.size());
  const int64_t batch = static_cast<int64_t>(src_rows.size());
  const int64_t m = static_cast<int64_t>(neg_rows.size());
  MG_CHECK(batch > 0 && m > 0);

  // Both sides score against the same negatives: transpose them once, padded to
  // whole lane groups, and share the block read-only across every chunk.
  const int64_t m_pad = (m + kLanes - 1) / kLanes * kLanes;
  std::vector<float> neg_block(static_cast<size_t>(dim_ * m_pad), 0.0f);
  for (int64_t j = 0; j < m; ++j) {
    const float* n = reprs.RowPtr(neg_rows[static_cast<size_t>(j)]);
    for (int64_t c = 0; c < dim_; ++c) {
      neg_block[static_cast<size_t>(c * m_pad + j)] = n[c];
    }
  }

  // Each side's loss and gradients are scaled by 1/2 so the two sides average
  // without rescaling accumulated gradients.
  RankingLossSide side{&reprs,     &rel_.value, &src_rows, &dst_rows,
                       &rels,      &neg_rows,   neg_block.data(), m_pad,
                       dim_,       /*corrupt_src=*/false,
                       0.5f / static_cast<float>(batch)};
  const float dst_loss = SideLossAndGrad(side, d_reprs);
  side.corrupt_src = true;
  const float src_loss = SideLossAndGrad(side, d_reprs);
  return dst_loss + src_loss;
}

void Decoder::ScoreCandidates(const Tensor& reprs, int64_t fixed_row, int32_t rel,
                              const std::vector<int64_t>& cand_rows, bool corrupt_src,
                              std::vector<float>* out) const {
  const float* fixed = reprs.RowPtr(fixed_row);
  const float* r = rel_.value.RowPtr(rel);
  out->resize(cand_rows.size());
  ForEachChunk(compute_, static_cast<int64_t>(cand_rows.size()), kComputeGrainCandidates,
               [&](int64_t, int64_t begin, int64_t end) {
                 for (int64_t j = begin; j < end; ++j) {
                   const float* c = reprs.RowPtr(cand_rows[static_cast<size_t>(j)]);
                   (*out)[static_cast<size_t>(j)] =
                       corrupt_src ? Score(c, r, fixed) : Score(fixed, r, c);
                 }
               });
}

float DistMultDecoder::Score(const float* s, const float* r, const float* o) const {
  return ScoreRows<DistMultForm>(s, r, o, dim_ / DistMultForm::kParts);
}

double DistMultDecoder::SideLossChunk(const RankingLossSide& side, int64_t begin,
                                      int64_t end, Tensor* d_out, Tensor* rel_grad,
                                      const int32_t* slot_of,
                                      const int32_t* rel_slot_of) const {
  return RankingLossChunk<DistMultForm>(side, begin, end, d_out, rel_grad, slot_of,
                                        rel_slot_of);
}

float TransEDecoder::Score(const float* s, const float* r, const float* o) const {
  return ScoreRows<TransEForm>(s, r, o, dim_ / TransEForm::kParts);
}

double TransEDecoder::SideLossChunk(const RankingLossSide& side, int64_t begin,
                                    int64_t end, Tensor* d_out, Tensor* rel_grad,
                                    const int32_t* slot_of,
                                    const int32_t* rel_slot_of) const {
  return RankingLossChunk<TransEForm>(side, begin, end, d_out, rel_grad, slot_of,
                                      rel_slot_of);
}

float ComplExDecoder::Score(const float* s, const float* r, const float* o) const {
  return ScoreRows<ComplExForm>(s, r, o, dim_ / ComplExForm::kParts);
}

double ComplExDecoder::SideLossChunk(const RankingLossSide& side, int64_t begin,
                                     int64_t end, Tensor* d_out, Tensor* rel_grad,
                                     const int32_t* slot_of,
                                     const int32_t* rel_slot_of) const {
  return RankingLossChunk<ComplExForm>(side, begin, end, d_out, rel_grad, slot_of,
                                       rel_slot_of);
}

std::unique_ptr<Decoder> MakeDecoder(const std::string& name, int32_t num_relations,
                                     int64_t dim, Rng& rng) {
  if (name == "distmult") {
    return std::make_unique<DistMultDecoder>(num_relations, dim, rng);
  }
  if (name == "transe") {
    return std::make_unique<TransEDecoder>(num_relations, dim, rng);
  }
  if (name == "complex") {
    return std::make_unique<ComplExDecoder>(num_relations, dim, rng);
  }
  MG_CHECK_MSG(false, "unknown decoder");
  return nullptr;
}

}  // namespace mariusgnn
