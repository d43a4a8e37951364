#include "src/tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "src/util/vec.h"

namespace mariusgnn {

namespace {

// Chunked elementwise map over [0, size): disjoint writes, trivially deterministic.
template <typename Fn>
void ForEachElemChunk(const ComputeContext* ctx, int64_t size, const Fn& fn) {
  ForEachChunk(ctx, size, kComputeGrainElems,
               [&](int64_t, int64_t begin, int64_t end) { fn(begin, end); });
}

// Chunked map over [0, rows) at the row grain; also used for segment chunking
// (segment s owns destination row s plus its offsets[s]..offsets[s+1) source rows,
// so chunks write disjoint memory either way).
template <typename Fn>
void ForEachRowChunk(const ComputeContext* ctx, int64_t rows, const Fn& fn) {
  ForEachChunk(ctx, rows, kComputeGrainRows,
               [&](int64_t, int64_t begin, int64_t end) { fn(begin, end); });
}

// Rows and vectors of one register tile of the GEMM, and the kk steps per panel.
// A panel's rows of B (64 x 64 floats at the layers' width, 16 KB) stay in L1
// while every row pair of C passes over them; that matters only for
// MatmulTransA, whose k is a batch's row count (the others have k = in_dim).
constexpr int kGemmTileRows = 2;
constexpr int kGemmTileVecs = 4;
constexpr int64_t kGemmPanel = 64;

// Adds the kk in [kb, ke) terms of C rows [i, i + R), columns [j, j + NV * kW):
// the tile is loaded once, held in registers across the panel and stored once.
// With kAdd the tile starts at +0.0f instead of C's values and is added to C at
// the store: the epilogue C + s of AddInPlace(C, product).
template <int R, int NV, bool kAdd>
inline void GemmTile(const float* a, int64_t ars, int64_t acs, const Tensor& b,
                     const RowSpan& c, int64_t i, int64_t j, int64_t kb, int64_t ke) {
  Vec acc[R][NV];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) {
      if constexpr (kAdd) {
        acc[r][v] = Vec{};
      } else {
        acc[r][v] = LoadVec(c.RowPtr(i + r) + j + v * kW);
      }
    }
  }
  for (int64_t kk = kb; kk < ke; ++kk) {
    const float* brow = b.RowPtr(kk) + j;
    Vec bv[NV];
    for (int v = 0; v < NV; ++v) {
      bv[v] = LoadVec(brow + v * kW);
    }
    for (int r = 0; r < R; ++r) {
      const float av = a[(i + r) * ars + kk * acs];
      for (int v = 0; v < NV; ++v) {
        acc[r][v] += av * bv[v];
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) {
      float* dst = c.RowPtr(i + r) + j + v * kW;
      if constexpr (kAdd) {
        StoreVec(dst, LoadVec(dst) + acc[r][v]);
      } else {
        StoreVec(dst, acc[r][v]);
      }
    }
  }
}

// One panel of R rows across all n columns: full tiles, then single vectors, then
// the columns short of a vector one at a time.
template <int R, bool kAdd>
inline void GemmRows(const float* a, int64_t ars, int64_t acs, const Tensor& b,
                     const RowSpan& c, int64_t i, int64_t kb, int64_t ke) {
  const int64_t n = c.cols();
  int64_t j = 0;
  for (; j + kGemmTileVecs * kW <= n; j += kGemmTileVecs * kW) {
    GemmTile<R, kGemmTileVecs, kAdd>(a, ars, acs, b, c, i, j, kb, ke);
  }
  for (; j + kW <= n; j += kW) {
    GemmTile<R, 1, kAdd>(a, ars, acs, b, c, i, j, kb, ke);
  }
  for (; j < n; ++j) {
    for (int r = 0; r < R; ++r) {
      float* dst = c.RowPtr(i + r) + j;
      float s = kAdd ? 0.0f : *dst;
      for (int64_t kk = kb; kk < ke; ++kk) {
        s += a[(i + r) * ars + kk * acs] * b(kk, j);
      }
      *dst = kAdd ? *dst + s : s;
    }
  }
}

// C += A @ B with A(i, kk) = a[i * ars + kk * acs], B: k x n and C: m x n
// row-major; the one kernel behind all the matmuls. Row-chunked over m. Without
// kAdd, kk runs in panels of kGemmPanel steps, ascending, and each panel reloads
// the C tile, so every element of a fresh (zero) C folds s = +0.0f;
// s += A(i, kk) * B[kk][j] for kk ascending: the bits of the scalar dot product at
// every vector width. With kAdd, all of k is one panel: each tile folds that same
// s in registers and C gets C + s once, the bits of AddInPlace(C, A @ B). Zero A
// values are not skipped, so 0 * inf and 0 * NaN stay NaN.
template <bool kAdd>
void Gemm(const float* a, int64_t ars, int64_t acs, const Tensor& b, const RowSpan& c,
          const ComputeContext* ctx) {
  const int64_t k = b.rows();
  MG_CHECK(b.cols() == c.cols());
  ForEachRowChunk(ctx, c.rows(), [&](int64_t row_begin, int64_t row_end) {
    const auto panel = [&](int64_t kb, int64_t ke) {
      int64_t i = row_begin;
      for (; i + kGemmTileRows <= row_end; i += kGemmTileRows) {
        GemmRows<kGemmTileRows, kAdd>(a, ars, acs, b, c, i, kb, ke);
      }
      for (; i < row_end; ++i) {
        GemmRows<1, kAdd>(a, ars, acs, b, c, i, kb, ke);
      }
    };
    if (kAdd) {
      panel(0, k);
      return;
    }
    for (int64_t kb = 0; kb < k; kb += kGemmPanel) {
      panel(kb, std::min(k, kb + kGemmPanel));
    }
  });
}

// B^T, for the A @ B^T forms: B is weight-sized, so it is transposed once per call
// and the kernel reads it row-major.
Tensor Transposed(const Tensor& b) {
  const int64_t n = b.rows(), k = b.cols();
  Tensor bt(k, n);
  for (int64_t j = 0; j < n; ++j) {
    const float* brow = b.RowPtr(j);
    for (int64_t kk = 0; kk < k; ++kk) {
      bt.RowPtr(kk)[j] = brow[kk];
    }
  }
  return bt;
}

}  // namespace

Tensor Matmul(ConstRowSpan a, const Tensor& b, const ComputeContext* ctx) {
  MG_CHECK(a.cols() == b.rows());
  Tensor c(a.rows(), b.cols());
  Gemm<false>(a.data(), a.cols(), 1, b, c, ctx);
  return c;
}

void MatmulAdd(RowSpan c, ConstRowSpan a, const Tensor& b, const ComputeContext* ctx) {
  MG_CHECK(a.cols() == b.rows() && c.rows() == a.rows());
  Gemm<true>(a.data(), a.cols(), 1, b, c, ctx);
}

Tensor MatmulTransA(ConstRowSpan a, const Tensor& b, const ComputeContext* ctx) {
  MG_CHECK(a.rows() == b.rows());
  Tensor c(a.cols(), b.cols());
  Gemm<false>(a.data(), 1, a.cols(), b, c, ctx);
  return c;
}

Tensor MatmulTransB(const Tensor& a, const Tensor& b, const ComputeContext* ctx) {
  MG_CHECK(a.cols() == b.cols());
  Tensor c(a.rows(), b.rows());
  Gemm<false>(a.data(), a.cols(), 1, Transposed(b), c, ctx);
  return c;
}

void MatmulTransBAdd(RowSpan c, const Tensor& a, const Tensor& b, const ComputeContext* ctx) {
  MG_CHECK(a.cols() == b.cols() && c.rows() == a.rows());
  Gemm<true>(a.data(), a.cols(), 1, Transposed(b), c, ctx);
}

void AddInPlace(RowSpan out, ConstRowSpan in, const ComputeContext* ctx) {
  MG_CHECK(out.rows() == in.rows() && out.cols() == in.cols());
  float* o = out.data();
  const float* x = in.data();
  ForEachElemChunk(ctx, out.size(), [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      o[i] += x[i];
    }
  });
}

void AddBiasRows(Tensor& t, const Tensor& bias, const ComputeContext* ctx) {
  MG_CHECK(bias.rows() == 1 && bias.cols() == t.cols());
  ForEachRowChunk(ctx, t.rows(), [&](int64_t row_begin, int64_t row_end) {
    for (int64_t r = row_begin; r < row_end; ++r) {
      float* row = t.RowPtr(r);
      for (int64_t c = 0; c < t.cols(); ++c) {
        row[c] += bias.data()[c];
      }
    }
  });
}

Tensor SumRows(const Tensor& t, const ComputeContext* ctx) {
  Tensor out(1, t.cols());
  const int64_t chunks = ComputeChunkCount(t.rows(), kComputeGrainRows);
  if (chunks <= 1) {
    for (int64_t r = 0; r < t.rows(); ++r) {
      const float* row = t.RowPtr(r);
      for (int64_t c = 0; c < t.cols(); ++c) {
        out.data()[c] += row[c];
      }
    }
    return out;
  }
  // Cross-chunk accumulator: per-chunk partial rows folded in ascending order. A
  // body never reads `out`, which the combine writes.
  std::vector<Tensor> partials(static_cast<size_t>(chunks));
  ForEachChunkOrdered(
      ctx, t.rows(), kComputeGrainRows,
      [&](int64_t chunk, int64_t begin, int64_t end) {
        Tensor partial(1, t.cols());
        for (int64_t r = begin; r < end; ++r) {
          const float* row = t.RowPtr(r);
          for (int64_t c = 0; c < t.cols(); ++c) {
            partial.data()[c] += row[c];
          }
        }
        partials[static_cast<size_t>(chunk)] = std::move(partial);
      },
      [&](int64_t chunk) {
        const Tensor& partial = partials[static_cast<size_t>(chunk)];
        for (int64_t c = 0; c < t.cols(); ++c) {
          out.data()[c] += partial.data()[c];
        }
      });
  return out;
}

Tensor IndexSelect(const Tensor& t, const std::vector<int64_t>& indices,
                   const ComputeContext* ctx) {
  Tensor out(static_cast<int64_t>(indices.size()), t.cols());
  ForEachRowChunk(ctx, static_cast<int64_t>(indices.size()),
                  [&](int64_t row_begin, int64_t row_end) {
                    for (int64_t i = row_begin; i < row_end; ++i) {
                      const int64_t src = indices[static_cast<size_t>(i)];
                      MG_DCHECK(src >= 0 && src < t.rows());
                      std::copy(t.RowPtr(src), t.RowPtr(src) + t.cols(), out.RowPtr(i));
                    }
                  });
  return out;
}

namespace {

void CheckOffsets(int64_t rows, const std::vector<int64_t>& offsets) {
  MG_CHECK(!offsets.empty());
  MG_CHECK(offsets.front() == 0);
  MG_CHECK(offsets.back() == rows);
}

// One position's value in a scatter-reduce: the floats at `row`, each times
// `scale` (rounded) when `scaled`.
struct ScatterValue {
  const float* row;
  float scale;
  bool scaled;
};

// Adds value(sources[k]) for k in [0, count), columns [c0, c0 + kNV * kW), into
// drow through a +0.0f partial held in kNV vector registers, then adds the
// partial to drow once: per column, the adds of a partial row in memory.
template <int kNV, typename ValueFn>
inline void FoldGroupBlock(float* drow, const int64_t* sources, int64_t count,
                           const ValueFn& value, int64_t c0) {
  Vec acc[kNV] = {};
  for (int64_t k = 0; k < count; ++k) {
    const ScatterValue x = value(sources[k]);
    const float* row = x.row + c0;
    if (x.scaled) {
      for (int v = 0; v < kNV; ++v) {
        acc[v] += LoadVec(row + v * kW) * x.scale;
      }
    } else {
      for (int v = 0; v < kNV; ++v) {
        acc[v] += LoadVec(row + v * kW);
      }
    }
  }
  for (int v = 0; v < kNV; ++v) {
    float* d = drow + c0 + v * kW;
    StoreVec(d, LoadVec(d) + acc[v]);
  }
}

// One group's fold over all `cols` columns: register blocks of 8 vectors, then
// of 4, 2 and 1 for what is left, then the columns short of a vector one at a
// time, each through its own +0.0f partial.
template <typename ValueFn>
void FoldGroup(float* drow, int64_t cols, const int64_t* sources, int64_t count,
               const ValueFn& value) {
  int64_t c0 = 0;
  for (; c0 + 8 * kW <= cols; c0 += 8 * kW) {
    FoldGroupBlock<8>(drow, sources, count, value, c0);
  }
  if (c0 + 4 * kW <= cols) {
    FoldGroupBlock<4>(drow, sources, count, value, c0);
    c0 += 4 * kW;
  }
  if (c0 + 2 * kW <= cols) {
    FoldGroupBlock<2>(drow, sources, count, value, c0);
    c0 += 2 * kW;
  }
  if (c0 + kW <= cols) {
    FoldGroupBlock<1>(drow, sources, count, value, c0);
    c0 += kW;
  }
  for (; c0 < cols; ++c0) {
    float acc = 0.0f;
    for (int64_t k = 0; k < count; ++k) {
      const ScatterValue x = value(sources[k]);
      acc += x.scaled ? x.row[c0] * x.scale : x.row[c0];
    }
    drow[c0] += acc;
  }
}

// The one scatter-reduce: dst[indices[e]] += value(e) for every position e, where
// value(e) is the ScatterValue of position e over dst.cols() floats. Its bits
// are those of positions cut into chunks of kComputeGrainScatterRows, each chunk
// summing its values per destination row into a partial that starts at +0.0f,
// and the partials added to dst in ascending chunk order. Strictly increasing
// indices (at most one value per row) and a call of one chunk add each value
// straight into its row in position order: the first chunked by position, since
// no two positions share a row, the second serially. Otherwise it pulls rather
// than scatters: a counting sort lists each destination row's positions in
// ascending order, and each row folds its own positions, one group per chunk,
// through a partial in registers (FoldGroup). Rows are chunked at the row grain
// and every row is written by one chunk only, so any pool size gives the same
// bits.
template <typename ValueFn>
void PullScatterAdd(Tensor& dst, const std::vector<int64_t>& indices,
                    const ComputeContext* ctx, const ValueFn& value) {
  const int64_t n = static_cast<int64_t>(indices.size());
  const int64_t cols = dst.cols();
  bool strictly_increasing = true;
  for (int64_t e = 1; e < n && strictly_increasing; ++e) {
    strictly_increasing = indices[static_cast<size_t>(e)] > indices[static_cast<size_t>(e) - 1];
  }
  const auto add_in_order = [&](int64_t begin, int64_t end) {
    for (int64_t e = begin; e < end; ++e) {
      const int64_t row = indices[static_cast<size_t>(e)];
      MG_DCHECK(row >= 0 && row < dst.rows());
      float* drow = dst.RowPtr(row);
      const ScatterValue x = value(e);
      if (x.scaled) {
        for (int64_t c = 0; c < cols; ++c) {
          drow[c] += x.row[c] * x.scale;
        }
      } else {
        for (int64_t c = 0; c < cols; ++c) {
          drow[c] += x.row[c];
        }
      }
    }
  };
  if (strictly_increasing) {
    ForEachRowChunk(ctx, n, add_in_order);
    return;
  }
  if (ComputeChunkCount(n, kComputeGrainScatterRows) <= 1) {
    add_in_order(0, n);
    return;
  }

  // Reverse CSR: positions of destination row r are sources[first[r]..first[r+1]),
  // ascending, because the placement pass walks positions in order.
  std::vector<int64_t> first(static_cast<size_t>(dst.rows()) + 1, 0);
  for (int64_t row : indices) {
    MG_DCHECK(row >= 0 && row < dst.rows());
    ++first[static_cast<size_t>(row) + 1];
  }
  for (size_t r = 1; r < first.size(); ++r) {
    first[r] += first[r - 1];
  }
  std::vector<int64_t> sources(static_cast<size_t>(n));
  {
    std::vector<int64_t> cursor(first.begin(), first.end() - 1);
    for (int64_t e = 0; e < n; ++e) {
      sources[static_cast<size_t>(cursor[static_cast<size_t>(indices[static_cast<size_t>(e)])]++)] =
          e;
    }
  }
  ForEachRowChunk(ctx, dst.rows(), [&](int64_t row_begin, int64_t row_end) {
    for (int64_t r = row_begin; r < row_end; ++r) {
      int64_t k = first[static_cast<size_t>(r)];
      const int64_t k_end = first[static_cast<size_t>(r) + 1];
      while (k < k_end) {
        const int64_t chunk = sources[static_cast<size_t>(k)] / kComputeGrainScatterRows;
        int64_t group_end = k + 1;
        while (group_end < k_end &&
               sources[static_cast<size_t>(group_end)] / kComputeGrainScatterRows == chunk) {
          ++group_end;
        }
        FoldGroup(dst.RowPtr(r), cols, sources.data() + k, group_end - k, value);
        k = group_end;
      }
    }
  });
}

// Shared body of GatherSegmentSum and GatherSegmentMean, chunked over segments.
Tensor GatherSegmentReduce(const Tensor& h, const std::vector<int64_t>& rows,
                           const std::vector<int64_t>& offsets, bool mean,
                           const ComputeContext* ctx) {
  CheckOffsets(static_cast<int64_t>(rows.size()), offsets);
  const int64_t segs = static_cast<int64_t>(offsets.size()) - 1;
  const int64_t cols = h.cols();
  Tensor out(segs, cols);
  ForEachRowChunk(ctx, segs, [&](int64_t seg_begin, int64_t seg_end) {
    for (int64_t s = seg_begin; s < seg_end; ++s) {
      float* orow = out.RowPtr(s);
      const int64_t begin = offsets[static_cast<size_t>(s)];
      const int64_t end = offsets[static_cast<size_t>(s) + 1];
      for (int64_t e = begin; e < end; ++e) {
        MG_DCHECK(rows[static_cast<size_t>(e)] >= 0 && rows[static_cast<size_t>(e)] < h.rows());
        const float* hrow = h.RowPtr(rows[static_cast<size_t>(e)]);
        for (int64_t c = 0; c < cols; ++c) {
          orow[c] += hrow[c];
        }
      }
      if (mean && end - begin > 1) {
        const float inv = 1.0f / static_cast<float>(end - begin);
        for (int64_t c = 0; c < cols; ++c) {
          orow[c] *= inv;
        }
      }
    }
  });
  return out;
}

// Shared body of the two backward forms: position e's value is grad[seg(e)],
// times 1/count for the mean of a segment of count > 1.
void GatherSegmentReduceBackward(Tensor& dh, const std::vector<int64_t>& rows,
                                 const std::vector<int64_t>& offsets, const Tensor& grad,
                                 bool mean, const ComputeContext* ctx) {
  CheckOffsets(static_cast<int64_t>(rows.size()), offsets);
  MG_CHECK(grad.rows() == static_cast<int64_t>(offsets.size()) - 1);
  MG_CHECK(dh.cols() == grad.cols());
  std::vector<int64_t> owner(rows.size());
  for (size_t s = 0; s + 1 < offsets.size(); ++s) {
    std::fill(owner.begin() + offsets[s], owner.begin() + offsets[s + 1],
              static_cast<int64_t>(s));
  }
  PullScatterAdd(dh, rows, ctx, [&](int64_t e) {
    const int64_t s = owner[static_cast<size_t>(e)];
    const int64_t count = offsets[static_cast<size_t>(s) + 1] - offsets[static_cast<size_t>(s)];
    const bool scaled = mean && count > 1;
    return ScatterValue{grad.RowPtr(s), scaled ? 1.0f / static_cast<float>(count) : 1.0f,
                        scaled};
  });
}

}  // namespace

void ScatterAddRows(Tensor& dst, const std::vector<int64_t>& indices, const Tensor& src,
                    const ComputeContext* ctx) {
  MG_CHECK(static_cast<int64_t>(indices.size()) == src.rows());
  MG_CHECK(dst.cols() == src.cols());
  PullScatterAdd(dst, indices, ctx,
                 [&](int64_t e) { return ScatterValue{src.RowPtr(e), 1.0f, false}; });
}

Tensor GatherSegmentSum(const Tensor& h, const std::vector<int64_t>& rows,
                        const std::vector<int64_t>& offsets, const ComputeContext* ctx) {
  return GatherSegmentReduce(h, rows, offsets, /*mean=*/false, ctx);
}

Tensor GatherSegmentMean(const Tensor& h, const std::vector<int64_t>& rows,
                         const std::vector<int64_t>& offsets, const ComputeContext* ctx) {
  return GatherSegmentReduce(h, rows, offsets, /*mean=*/true, ctx);
}

void GatherSegmentSumBackward(Tensor& dh, const std::vector<int64_t>& rows,
                              const std::vector<int64_t>& offsets, const Tensor& grad,
                              const ComputeContext* ctx) {
  GatherSegmentReduceBackward(dh, rows, offsets, grad, /*mean=*/false, ctx);
}

void GatherSegmentMeanBackward(Tensor& dh, const std::vector<int64_t>& rows,
                               const std::vector<int64_t>& offsets, const Tensor& grad,
                               const ComputeContext* ctx) {
  GatherSegmentReduceBackward(dh, rows, offsets, grad, /*mean=*/true, ctx);
}

Tensor SegmentSum(const Tensor& src, const std::vector<int64_t>& offsets,
                  const ComputeContext* ctx) {
  CheckOffsets(src.rows(), offsets);
  const int64_t segs = static_cast<int64_t>(offsets.size()) - 1;
  Tensor out(segs, src.cols());
  ForEachRowChunk(ctx, segs, [&](int64_t seg_begin, int64_t seg_end) {
    for (int64_t s = seg_begin; s < seg_end; ++s) {
      float* orow = out.RowPtr(s);
      for (int64_t r = offsets[static_cast<size_t>(s)];
           r < offsets[static_cast<size_t>(s) + 1]; ++r) {
        const float* srow = src.RowPtr(r);
        for (int64_t c = 0; c < src.cols(); ++c) {
          orow[c] += srow[c];
        }
      }
    }
  });
  return out;
}

void SegmentSoftmaxInPlace(Tensor& scores, const std::vector<int64_t>& offsets,
                           const ComputeContext* ctx) {
  MG_CHECK(scores.cols() == 1);
  CheckOffsets(scores.rows(), offsets);
  const int64_t segs = static_cast<int64_t>(offsets.size()) - 1;
  ForEachRowChunk(ctx, segs, [&](int64_t seg_begin, int64_t seg_end) {
    for (int64_t s = seg_begin; s < seg_end; ++s) {
      const int64_t begin = offsets[static_cast<size_t>(s)];
      const int64_t end = offsets[static_cast<size_t>(s) + 1];
      if (begin == end) {
        continue;
      }
      float maxv = scores.data()[begin];
      for (int64_t r = begin + 1; r < end; ++r) {
        maxv = std::max(maxv, scores.data()[r]);
      }
      float sum = 0.0f;
      for (int64_t r = begin; r < end; ++r) {
        scores.data()[r] = std::exp(scores.data()[r] - maxv);
        sum += scores.data()[r];
      }
      const float inv = 1.0f / sum;
      for (int64_t r = begin; r < end; ++r) {
        scores.data()[r] *= inv;
      }
    }
  });
}

Tensor SegmentSoftmaxBackward(const Tensor& probs, const Tensor& grad,
                              const std::vector<int64_t>& offsets,
                              const ComputeContext* ctx) {
  MG_CHECK(probs.cols() == 1 && grad.cols() == 1 && probs.rows() == grad.rows());
  Tensor out(probs.rows(), 1);
  const int64_t segs = static_cast<int64_t>(offsets.size()) - 1;
  ForEachRowChunk(ctx, segs, [&](int64_t seg_begin, int64_t seg_end) {
    for (int64_t s = seg_begin; s < seg_end; ++s) {
      const int64_t begin = offsets[static_cast<size_t>(s)];
      const int64_t end = offsets[static_cast<size_t>(s) + 1];
      float dot = 0.0f;
      for (int64_t r = begin; r < end; ++r) {
        dot += probs.data()[r] * grad.data()[r];
      }
      for (int64_t r = begin; r < end; ++r) {
        out.data()[r] = probs.data()[r] * (grad.data()[r] - dot);
      }
    }
  });
  return out;
}

// Every ReLU-family loop loads both operands of its select unconditionally,
// through local pointers, so each vectorizes to a compare and a blend per lane,
// with no branch on the input's sign; the ReLU pair selects in place in its sink
// operand. The select keeps the scalar `>` rule: NaN, -0.0f and +0.0f take the
// not-positive side. The leaky pair writes the slope product for every element
// first and then selects against it: with the product inside the select, GCC
// sinks the multiply into the not-positive branch and, since a float multiply
// may trap, will not if-convert it back.
Tensor Relu(Tensor t, const ComputeContext* ctx) {
  float* p = t.data();
  ForEachElemChunk(ctx, t.size(), [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const float v = p[i];
      p[i] = v > 0.0f ? v : 0.0f;
    }
  });
  return t;
}

Tensor ReluBackward(const Tensor& out, Tensor grad_out, const ComputeContext* ctx) {
  MG_CHECK(out.rows() == grad_out.rows() && out.cols() == grad_out.cols());
  const float* o = out.data();
  float* g = grad_out.data();
  ForEachElemChunk(ctx, out.size(), [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const float gi = g[i];
      g[i] = o[i] > 0.0f ? gi : 0.0f;
    }
  });
  return grad_out;
}

Tensor LeakyRelu(const Tensor& t, float slope, const ComputeContext* ctx) {
  Tensor out(t.rows(), t.cols());
  const float* in = t.data();
  float* o = out.data();
  ForEachElemChunk(ctx, t.size(), [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      o[i] = slope * in[i];
    }
    for (int64_t i = begin; i < end; ++i) {
      const float v = in[i];
      const float scaled = o[i];
      o[i] = v > 0.0f ? v : scaled;
    }
  });
  return out;
}

Tensor LeakyReluBackward(const Tensor& out, const Tensor& grad_out, float slope,
                         const ComputeContext* ctx) {
  Tensor g(out.rows(), out.cols());
  const float* o = out.data();
  const float* go = grad_out.data();
  float* dst = g.data();
  ForEachElemChunk(ctx, out.size(), [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      dst[i] = slope * go[i];
    }
    for (int64_t i = begin; i < end; ++i) {
      const float gi = go[i];
      const float scaled = dst[i];
      dst[i] = o[i] > 0.0f ? gi : scaled;
    }
  });
  return g;
}

Tensor Tanh(Tensor t, const ComputeContext* ctx) {
  float* p = t.data();
  ForEachElemChunk(ctx, t.size(), [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      p[i] = std::tanh(p[i]);
    }
  });
  return t;
}

Tensor TanhBackward(const Tensor& out, Tensor grad_out, const ComputeContext* ctx) {
  MG_CHECK(out.rows() == grad_out.rows() && out.cols() == grad_out.cols());
  const float* o = out.data();
  float* g = grad_out.data();
  ForEachElemChunk(ctx, out.size(), [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      g[i] = (1.0f - o[i] * o[i]) * g[i];
    }
  });
  return grad_out;
}

Tensor RowSoftmax(const Tensor& logits, const ComputeContext* ctx) {
  Tensor out(logits.rows(), logits.cols());
  ForEachRowChunk(ctx, logits.rows(), [&](int64_t row_begin, int64_t row_end) {
    for (int64_t r = row_begin; r < row_end; ++r) {
      const float* in = logits.RowPtr(r);
      float* o = out.RowPtr(r);
      float maxv = in[0];
      for (int64_t c = 1; c < logits.cols(); ++c) {
        maxv = std::max(maxv, in[c]);
      }
      float sum = 0.0f;
      for (int64_t c = 0; c < logits.cols(); ++c) {
        o[c] = std::exp(in[c] - maxv);
        sum += o[c];
      }
      const float inv = 1.0f / sum;
      for (int64_t c = 0; c < logits.cols(); ++c) {
        o[c] *= inv;
      }
    }
  });
  return out;
}

float SoftmaxCrossEntropy(const Tensor& logits, const std::vector<int64_t>& labels,
                          Tensor* dlogits, const ComputeContext* ctx) {
  MG_CHECK(logits.rows() == static_cast<int64_t>(labels.size()));
  MG_CHECK(logits.rows() > 0);
  Tensor probs = RowSoftmax(logits, ctx);
  const float inv_n = 1.0f / static_cast<float>(logits.rows());
  // Loss is a cross-chunk sum: per-chunk double partials folded in chunk order.
  const int64_t chunks = ComputeChunkCount(logits.rows(), kComputeGrainRows);
  std::vector<double> loss_partials(static_cast<size_t>(chunks), 0.0);
  ForEachChunk(ctx, logits.rows(), kComputeGrainRows,
               [&](int64_t chunk, int64_t begin, int64_t end) {
                 double partial = 0.0;
                 for (int64_t r = begin; r < end; ++r) {
                   const int64_t y = labels[static_cast<size_t>(r)];
                   MG_DCHECK(y >= 0 && y < logits.cols());
                   partial -= std::log(std::max(probs(r, y), 1e-12f));
                 }
                 loss_partials[static_cast<size_t>(chunk)] = partial;
               });
  double loss = 0.0;
  for (double partial : loss_partials) {
    loss += partial;
  }
  if (dlogits != nullptr) {
    *dlogits = probs;
    ForEachRowChunk(ctx, logits.rows(), [&](int64_t row_begin, int64_t row_end) {
      for (int64_t r = row_begin; r < row_end; ++r) {
        (*dlogits)(r, labels[static_cast<size_t>(r)]) -= 1.0f;
        float* row = dlogits->RowPtr(r);
        for (int64_t c = 0; c < dlogits->cols(); ++c) {
          row[c] *= inv_n;
        }
      }
    });
  }
  return static_cast<float>(loss * inv_n);
}

}  // namespace mariusgnn
