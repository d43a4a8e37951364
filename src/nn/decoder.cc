#include "src/nn/decoder.h"

#include <algorithm>
#include <cmath>
#include <utility>

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
  // Score of positive edge i at pos_scores[i], shared by both sides.
  const float* pos_scores;
  int64_t dim;
  bool corrupt_src;
  float inv_b;  // scale / batch: the gradient coefficient of one edge
};

namespace {

// The other row of one backward term: the positive's partner (o on the destination
// side, s on the source side) or a negative, with its gradient row and coefficient.
struct Partner {
  const float* n;
  float* dn;
  float coeff;
};

// Where a chunk's gradients go: the real accumulator's rows (slot_of == nullptr),
// or a compact partial whose slot for global row `row` is slot_of[row].
struct GradTarget {
  float* data = nullptr;
  int64_t cols = 0;
  const int32_t* slot_of = nullptr;

  float* Row(int64_t row) const {
    return data + (slot_of == nullptr ? row : slot_of[static_cast<size_t>(row)]) * cols;
  }
};

}  // namespace

// One chunk's working storage, reused across chunks and calls through the
// decoder's free list. Every float of d_partial and rel_partial is +0.0f whenever
// the entry is on the free list: the combine that folds a partial zeroes it.
struct RankingLossScratch {
  // Compact partials: slot i of d_partial holds repr row rows[i], and slot i of
  // rel_partial relation rels[i], in first-occurrence order over the chunk
  // (negatives first), so the layout is a function of the chunk's edges only.
  // The remaps run from row (relation) to slot.
  SlotRemap row_remap;
  SlotRemap rel_remap;
  std::vector<int64_t> rows;
  std::vector<int64_t> rels;
  std::vector<float> d_partial;
  std::vector<float> rel_partial;
  double loss = 0.0;
  // Where the kernel accumulates: these partials, or the real accumulators when a
  // side is a single chunk.
  GradTarget d_out;
  GradTarget rel_grad;
  // Per-edge working vectors: logits[1, m_pad] are the negatives' lanes, and
  // partners holds the positive plus every negative with a nonzero coefficient.
  std::vector<float> logits;
  std::vector<float> probs;
  std::vector<Partner> negatives;
  std::vector<Partner> partners;
};

namespace {

// Negatives the forward pass scores side by side, one logit per lane: kLanes / kW
// accumulator vectors per lane group, held in registers across all steps.
constexpr int64_t kLanes = 16;
// Vectors per backward block, over all parts of a step: the fixed row's and the
// relation's values and the edge's held gradient row and relation gradient row
// stay in kBlockVecs / kParts vector locals per part across all of its partners.
// Four such arrays of two vectors fill half of a 16-register file; blocks of four
// vectors spill.
constexpr int kBlockVecs = 2;

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

// One term's update of steps [k0, k0 + kNV * kW). `f`/`r` are the register
// blocks of the fixed row's and the relation's values, `held`/`rel` those of
// their gradients; `n` and `dn` are whole rows of part stride `steps`. The
// updates land in the order a row-at-a-time backward gives them: held, rel,
// partner on the destination side, partner, rel, held on the source side. When
// the partner's gradient row is the held row (kHeld), its update goes to the
// held block in that same sequence.
template <class Form, bool kCorruptSrc, bool kHeld, int kNV>
inline void PartnerBlock(float coeff, const Vec (&f)[Form::kParts][kNV],
                         const Vec (&r)[Form::kParts][kNV], const float* n,
                         Vec (&held)[Form::kParts][kNV], Vec (&rel)[Form::kParts][kNV],
                         float* dn, int64_t k0, int64_t steps) {
  constexpr int P = Form::kParts;
  for (int v = 0; v < kNV; ++v) {
    const int64_t k = k0 + v * kW;
    Vec fp[P], rp[P], np[P], gf[P], gr[P], gn[P];
    for (int p = 0; p < P; ++p) {
      fp[p] = f[p][v];
      rp[p] = r[p][v];
    }
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

// Steps [k0, k0 + kNV * kW) of one edge's backward: the fixed row, the relation
// and their gradient rows are loaded into registers once, every partner reads and
// updates them in order, and the gradients are stored back once. Value rows never
// alias gradient rows, so a partner's stores cannot change the held values.
template <class Form, bool kCorruptSrc, int kNV>
void BackwardBlock(const float* f, const float* r, float* df, float* dr,
                   const Partner* partners, int64_t count, int64_t k0, int64_t steps) {
  constexpr int P = Form::kParts;
  Vec fv[P][kNV], rv[P][kNV], held[P][kNV], rel[P][kNV];
  for (int p = 0; p < P; ++p) {
    for (int v = 0; v < kNV; ++v) {
      const int64_t at = p * steps + k0 + v * kW;
      fv[p][v] = LoadVec(f + at);
      rv[p][v] = LoadVec(r + at);
      held[p][v] = LoadVec(df + at);
      rel[p][v] = LoadVec(dr + at);
    }
  }
  for (const Partner* t = partners; t != partners + count; ++t) {
    if (t->dn == df) {
      PartnerBlock<Form, kCorruptSrc, true, kNV>(t->coeff, fv, rv, t->n, held, rel, nullptr,
                                                 k0, steps);
    } else {
      PartnerBlock<Form, kCorruptSrc, false, kNV>(t->coeff, fv, rv, t->n, held, rel, t->dn,
                                                  k0, steps);
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
// blocks of kBlockVecs / kParts vectors per part, then at most one single vector
// (DistMult and TransE, whose blocks are two vectors), then one scalar step at a
// time in memory, where a partner whose gradient row is df meets it in the same
// sequence by aliasing.
template <class Form, bool kCorruptSrc>
void BackwardEdge(const float* f, const float* r, float* df, float* dr,
                  const Partner* partners, int64_t count, int64_t steps) {
  constexpr int P = Form::kParts;
  int64_t k0 = 0;
  for (; k0 + kBlockVecs / P * kW <= steps; k0 += kBlockVecs / P * kW) {
    BackwardBlock<Form, kCorruptSrc, kBlockVecs / P>(f, r, df, dr, partners, count, k0,
                                                     steps);
  }
  for (; k0 + kW <= steps; k0 += kW) {
    BackwardBlock<Form, kCorruptSrc, 1>(f, r, df, dr, partners, count, k0, steps);
  }
  for (const Partner* t = partners; t != partners + count; ++t) {
    for (int64_t k = k0; k < steps; ++k) {
      float fp[P], rp[P], np[P], gf[P], gr[P], gn[P];
      LoadStep<P>(f, k, steps, fp);
      LoadStep<P>(r, k, steps, rp);
      LoadStep<P>(t->n, k, steps, np);
      if constexpr (kCorruptSrc) {
        Form::Grad(t->coeff, np, rp, fp, gn, gr, gf);
      } else {
        Form::Grad(t->coeff, fp, rp, np, gf, gr, gn);
      }
      for (int p = 0; p < P; ++p) {
        float& hf = df[k + p * steps];
        float& pn = t->dn[k + p * steps];
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
// accumulates d loss / d reprs and relation gradients into the scratch's targets,
// the real accumulators (a single-chunk side) or the chunk's compact partials, so
// the per-edge arithmetic is identical either way. The working vectors are the
// scratch's, sized here without reallocating once warm.
template <class Form, bool kCorruptSrc>
double LossChunk(const RankingLossSide& side, int64_t begin, int64_t end,
                 RankingLossScratch* scratch) {
  const Tensor& reprs = *side.reprs;
  const std::vector<int64_t>& neg_rows = *side.neg_rows;
  const int64_t m = static_cast<int64_t>(neg_rows.size());
  const int64_t steps = side.dim / Form::kParts;
  const float inv_b = side.inv_b;
  const GradTarget& d_out = scratch->d_out;
  const GradTarget& rel_grad = scratch->rel_grad;
  scratch->logits.resize(static_cast<size_t>(side.m_pad) + 1);
  scratch->probs.resize(static_cast<size_t>(m) + 1);
  scratch->negatives.resize(static_cast<size_t>(m));
  scratch->partners.resize(static_cast<size_t>(m) + 1);
  float* logits = scratch->logits.data();
  float* probs = scratch->probs.data();
  Partner* negatives = scratch->negatives.data();
  Partner* partners = scratch->partners.data();
  for (int64_t j = 0; j < m; ++j) {
    const int64_t nrow = neg_rows[static_cast<size_t>(j)];
    negatives[j] = {reprs.RowPtr(nrow), d_out.Row(nrow), 0.0f};
  }
  double loss = 0.0;
  for (int64_t i = begin; i < end; ++i) {
    const int64_t src_row = (*side.src_rows)[static_cast<size_t>(i)];
    const int64_t dst_row = (*side.dst_rows)[static_cast<size_t>(i)];
    const float* s = reprs.RowPtr(src_row);
    const float* o = reprs.RowPtr(dst_row);
    const int32_t rel = (*side.rels)[static_cast<size_t>(i)];
    const float* r = side.rel_values->RowPtr(rel);

    logits[0] = side.pos_scores[i];
    ScoreNegatives<Form, kCorruptSrc>(kCorruptSrc ? o : s, r, side.neg_block, side.m_pad,
                                      steps, logits + 1);

    // Softmax CE with the positive in class 0, over logits[0, m].
    const float maxv = LaneMax(logits, m + 1);
    double denom = 0.0;
    for (int64_t j = 0; j <= m; ++j) {
      probs[j] = std::exp(logits[j] - maxv);
      denom += probs[j];
    }
    const float inv_denom = static_cast<float>(1.0 / denom);
    for (int64_t j = 0; j <= m; ++j) {
      probs[j] *= inv_denom;
    }
    loss -= std::log(std::max(probs[0], 1e-12f));

    // dlogit_0 = (p0 - 1)/B, dlogit_j = p_j/B. Every negative is written to the
    // next free slot, which is kept only when its coefficient is nonzero: a zero
    // term (either sign) contributes nothing and is dropped, a NaN one is kept.
    float* ds = d_out.Row(src_row);
    float* do_ = d_out.Row(dst_row);
    float* dr = rel_grad.Row(rel);
    const float c0 = (probs[0] - 1.0f) * inv_b;
    partners[0] = kCorruptSrc ? Partner{s, ds, c0} : Partner{o, do_, c0};
    int64_t count = 1;
    for (int64_t j = 0; j < m; ++j) {
      const float coeff = probs[j + 1] * inv_b;
      partners[count] = {negatives[j].n, negatives[j].dn, coeff};
      count += coeff != 0.0f;
    }
    BackwardEdge<Form, kCorruptSrc>(kCorruptSrc ? o : s, r, kCorruptSrc ? do_ : ds, dr,
                                    partners, count, steps);
  }
  return loss;
}

template <class Form>
double RankingLossChunk(const RankingLossSide& side, int64_t begin, int64_t end,
                        RankingLossScratch* scratch) {
  return side.corrupt_src ? LossChunk<Form, true>(side, begin, end, scratch)
                          : LossChunk<Form, false>(side, begin, end, scratch);
}

// Adds slot s of `partial` into row rows[s] of `acc`, in slot order, then zeroes
// the partial's slots.
void FoldAndZero(Tensor* acc, std::vector<float>* partial, const std::vector<int64_t>& rows) {
  const int64_t cols = acc->cols();
  float* src = partial->data();
  for (size_t s = 0; s < rows.size(); ++s) {
    float* dst = acc->RowPtr(rows[s]);
    const float* row = src + static_cast<int64_t>(s) * cols;
    for (int64_t c = 0; c < cols; ++c) {
      dst[c] += row[c];
    }
  }
  std::fill(src, src + static_cast<int64_t>(rows.size()) * cols, 0.0f);
}

}  // namespace

Decoder::Decoder(int32_t num_relations, int64_t dim, float init_scale, Rng& rng)
    : dim_(dim), rel_(Tensor::Uniform(num_relations, dim, init_scale, rng)) {}

Decoder::~Decoder() = default;

std::unique_ptr<RankingLossScratch> Decoder::PopScratch() {
  {
    std::lock_guard<std::mutex> lock(scratch_mu_);
    if (!scratch_free_.empty()) {
      std::unique_ptr<RankingLossScratch> scratch = std::move(scratch_free_.back());
      scratch_free_.pop_back();
      return scratch;
    }
  }
  return std::make_unique<RankingLossScratch>();
}

void Decoder::PushScratch(std::unique_ptr<RankingLossScratch> scratch) {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  scratch_free_.push_back(std::move(scratch));
}

float Decoder::SideLossAndGrad(const RankingLossSide& side, Tensor* d_reprs) {
  const int64_t batch = static_cast<int64_t>(side.src_rows->size());
  const int64_t chunks = ComputeChunkCount(batch, kComputeGrainEdges);
  if (chunks <= 1) {
    std::unique_ptr<RankingLossScratch> scratch = PopScratch();
    scratch->d_out = {d_reprs->data(), d_reprs->cols(), nullptr};
    scratch->rel_grad = {rel_.grad.data(), rel_.grad.cols(), nullptr};
    const double loss = SideLossChunk(side, 0, batch, scratch.get());
    PushScratch(std::move(scratch));
    return static_cast<float>(loss * side.inv_b);
  }

  // Every edge writes the shared negative rows (and possibly shared src/dst/relation
  // rows), so chunks accumulate into private partials that are folded into the real
  // accumulators in ascending chunk order — deterministic for any pool size. The
  // partials are compact: a chunk only touches the shared negatives plus its own
  // src/dst rows, so its buffer holds just those rows (slot order: negatives first,
  // then first occurrence — a fixed function of the chunk layout, never the pool).
  // A body reads none of what a combine writes (d_reprs, rel_.grad, loss), so the
  // serial path may fold each chunk as soon as it ends.
  const std::vector<int64_t>& src_rows = *side.src_rows;
  const std::vector<int64_t>& dst_rows = *side.dst_rows;
  const std::vector<int32_t>& rels = *side.rels;
  scratch_live_.resize(static_cast<size_t>(chunks));
  double loss = 0.0;
  ForEachChunkOrdered(
      compute_, batch, kComputeGrainEdges,
      [&](int64_t chunk, int64_t begin, int64_t end) {
        std::unique_ptr<RankingLossScratch> scratch = PopScratch();
        RankingLossScratch& sc = *scratch;
        sc.row_remap.NextGeneration(d_reprs->rows());
        sc.rows.clear();
        for (int64_t row : *side.neg_rows) {
          sc.row_remap.Claim(row, &sc.rows);
        }
        sc.rel_remap.NextGeneration(rel_.grad.rows());
        sc.rels.clear();
        for (int64_t i = begin; i < end; ++i) {
          sc.row_remap.Claim(src_rows[static_cast<size_t>(i)], &sc.rows);
          sc.row_remap.Claim(dst_rows[static_cast<size_t>(i)], &sc.rows);
          sc.rel_remap.Claim(rels[static_cast<size_t>(i)], &sc.rels);
        }
        // Growing keeps the +0.0f fill, and the slots past this chunk's stay zero.
        const size_t d_size = sc.rows.size() * static_cast<size_t>(d_reprs->cols());
        if (sc.d_partial.size() < d_size) {
          sc.d_partial.resize(d_size);
        }
        const size_t rel_size = sc.rels.size() * static_cast<size_t>(rel_.grad.cols());
        if (sc.rel_partial.size() < rel_size) {
          sc.rel_partial.resize(rel_size);
        }
        sc.d_out = {sc.d_partial.data(), d_reprs->cols(), sc.row_remap.slot_of.data()};
        sc.rel_grad = {sc.rel_partial.data(), rel_.grad.cols(), sc.rel_remap.slot_of.data()};
        sc.loss = SideLossChunk(side, begin, end, &sc);
        scratch_live_[static_cast<size_t>(chunk)] = std::move(scratch);
      },
      [&](int64_t chunk) {
        std::unique_ptr<RankingLossScratch> scratch =
            std::move(scratch_live_[static_cast<size_t>(chunk)]);
        FoldAndZero(d_reprs, &scratch->d_partial, scratch->rows);
        FoldAndZero(&rel_.grad, &scratch->rel_partial, scratch->rels);
        loss += scratch->loss;
        PushScratch(std::move(scratch));
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
  neg_block_.assign(static_cast<size_t>(dim_ * m_pad), 0.0f);
  for (int64_t j = 0; j < m; ++j) {
    const float* n = reprs.RowPtr(neg_rows[static_cast<size_t>(j)]);
    for (int64_t c = 0; c < dim_; ++c) {
      neg_block_[static_cast<size_t>(c * m_pad + j)] = n[c];
    }
  }

  // Both sides' class 0 is the positive's score: score each positive once, in
  // its own chunks, so either side's chunks read it without waiting on the other's.
  pos_scores_.resize(static_cast<size_t>(batch));
  ForEachChunk(compute_, batch, kComputeGrainEdges, [&](int64_t, int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const size_t e = static_cast<size_t>(i);
      pos_scores_[e] = Score(reprs.RowPtr(src_rows[e]), rel_.value.RowPtr(rels[e]),
                             reprs.RowPtr(dst_rows[e]));
    }
  });

  // Each side's loss and gradients are scaled by 1/2 so the two sides average
  // without rescaling accumulated gradients.
  RankingLossSide side{&reprs,
                       &rel_.value,
                       &src_rows,
                       &dst_rows,
                       &rels,
                       &neg_rows,
                       neg_block_.data(),
                       m_pad,
                       pos_scores_.data(),
                       dim_,
                       /*corrupt_src=*/false,
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
                                      int64_t end, RankingLossScratch* scratch) const {
  return RankingLossChunk<DistMultForm>(side, begin, end, scratch);
}

float TransEDecoder::Score(const float* s, const float* r, const float* o) const {
  return ScoreRows<TransEForm>(s, r, o, dim_ / TransEForm::kParts);
}

double TransEDecoder::SideLossChunk(const RankingLossSide& side, int64_t begin,
                                    int64_t end, RankingLossScratch* scratch) const {
  return RankingLossChunk<TransEForm>(side, begin, end, scratch);
}

float ComplExDecoder::Score(const float* s, const float* r, const float* o) const {
  return ScoreRows<ComplExForm>(s, r, o, dim_ / ComplExForm::kParts);
}

double ComplExDecoder::SideLossChunk(const RankingLossSide& side, int64_t begin,
                                     int64_t end, RankingLossScratch* scratch) const {
  return RankingLossChunk<ComplExForm>(side, begin, end, scratch);
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
