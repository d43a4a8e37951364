#include "src/tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "src/util/slot_remap.h"
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
constexpr int kGemmTileRows = 2;
constexpr int kGemmTileVecs = 4;
constexpr int64_t kGemmPanel = 256;

// Adds the kk in [kb, ke) terms of C rows [i, i + R), columns [j, j + NV * kW):
// the tile is loaded once, held in registers across the panel and stored once.
template <int R, int NV>
inline void GemmTile(const float* a, int64_t ars, int64_t acs, const Tensor& b, Tensor& c,
                     int64_t i, int64_t j, int64_t kb, int64_t ke) {
  Vec acc[R][NV];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) {
      acc[r][v] = LoadVec(c.RowPtr(i + r) + j + v * kW);
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
      StoreVec(c.RowPtr(i + r) + j + v * kW, acc[r][v]);
    }
  }
}

// One panel of R rows across all n columns: full tiles, then single vectors, then
// the columns short of a vector one at a time.
template <int R>
inline void GemmRows(const float* a, int64_t ars, int64_t acs, const Tensor& b, Tensor& c,
                     int64_t i, int64_t kb, int64_t ke) {
  const int64_t n = c.cols();
  int64_t j = 0;
  for (; j + kGemmTileVecs * kW <= n; j += kGemmTileVecs * kW) {
    GemmTile<R, kGemmTileVecs>(a, ars, acs, b, c, i, j, kb, ke);
  }
  for (; j + kW <= n; j += kW) {
    GemmTile<R, 1>(a, ars, acs, b, c, i, j, kb, ke);
  }
  for (; j < n; ++j) {
    for (int r = 0; r < R; ++r) {
      float s = c(i + r, j);
      for (int64_t kk = kb; kk < ke; ++kk) {
        s += a[(i + r) * ars + kk * acs] * b(kk, j);
      }
      c(i + r, j) = s;
    }
  }
}

// C += A @ B with A(i, kk) = a[i * ars + kk * acs], B: k x n and C: m x n row-major;
// the one kernel behind all three matmuls. Row-chunked over m. kk runs in panels
// of kGemmPanel steps, ascending, and each panel reloads the C tile, so every
// element of a fresh (zero) C folds s = +0.0f; s += A(i, kk) * B[kk][j] for kk
// ascending: the bits of the scalar dot product at every vector width. Zero A
// values are not skipped, so 0 * inf and 0 * NaN stay NaN.
void Gemm(const float* a, int64_t ars, int64_t acs, const Tensor& b, Tensor& c,
          const ComputeContext* ctx) {
  const int64_t k = b.rows();
  ForEachRowChunk(ctx, c.rows(), [&](int64_t row_begin, int64_t row_end) {
    for (int64_t kb = 0; kb < k; kb += kGemmPanel) {
      const int64_t ke = std::min(k, kb + kGemmPanel);
      int64_t i = row_begin;
      for (; i + kGemmTileRows <= row_end; i += kGemmTileRows) {
        GemmRows<kGemmTileRows>(a, ars, acs, b, c, i, kb, ke);
      }
      for (; i < row_end; ++i) {
        GemmRows<1>(a, ars, acs, b, c, i, kb, ke);
      }
    }
  });
}

// Per-thread dst-row -> compact-slot remap for ScatterAddRows (see slot_remap.h
// for the generation-stamp scheme and why thread_local reuse is sound).
thread_local SlotRemap scatter_remap;

}  // namespace

Tensor Matmul(const Tensor& a, const Tensor& b, const ComputeContext* ctx) {
  MG_CHECK(a.cols() == b.rows());
  Tensor c(a.rows(), b.cols());
  Gemm(a.data(), a.cols(), 1, b, c, ctx);
  return c;
}

Tensor MatmulTransA(const Tensor& a, const Tensor& b, const ComputeContext* ctx) {
  MG_CHECK(a.rows() == b.rows());
  Tensor c(a.cols(), b.cols());
  Gemm(a.data(), 1, a.cols(), b, c, ctx);
  return c;
}

Tensor MatmulTransB(const Tensor& a, const Tensor& b, const ComputeContext* ctx) {
  MG_CHECK(a.cols() == b.cols());
  const int64_t k = a.cols(), n = b.rows();
  // B is weight-sized: transpose it once so the kernel reads it row-major.
  Tensor bt(k, n);
  for (int64_t j = 0; j < n; ++j) {
    const float* brow = b.RowPtr(j);
    for (int64_t kk = 0; kk < k; ++kk) {
      bt.RowPtr(kk)[j] = brow[kk];
    }
  }
  Tensor c(a.rows(), n);
  Gemm(a.data(), a.cols(), 1, bt, c, ctx);
  return c;
}

void AddInPlace(Tensor& out, const Tensor& in, const ComputeContext* ctx) {
  MG_CHECK(out.rows() == in.rows() && out.cols() == in.cols());
  ForEachElemChunk(ctx, out.size(), [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      out.data()[i] += in.data()[i];
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
  // Cross-chunk accumulator: per-chunk partial rows folded in ascending order.
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

void ScatterAddRows(Tensor& dst, const std::vector<int64_t>& indices, const Tensor& src,
                    const ComputeContext* ctx) {
  MG_CHECK(static_cast<int64_t>(indices.size()) == src.rows());
  MG_CHECK(dst.cols() == src.cols());
  const int64_t n = static_cast<int64_t>(indices.size());
  const int64_t cols = src.cols();
  const int64_t chunks = ComputeChunkCount(n, kComputeGrainScatterRows);
  if (chunks <= 1) {
    for (int64_t i = 0; i < n; ++i) {
      MG_DCHECK(indices[static_cast<size_t>(i)] >= 0 &&
                indices[static_cast<size_t>(i)] < dst.rows());
      float* drow = dst.RowPtr(indices[static_cast<size_t>(i)]);
      const float* srow = src.RowPtr(i);
      for (int64_t c = 0; c < cols; ++c) {
        drow[c] += srow[c];
      }
    }
    return;
  }
  // Strictly increasing indices (the iota self_rows every layer backward passes)
  // have no duplicates, so chunks write disjoint dst rows directly — no remap, no
  // partials. Each dst row receives exactly one add either way, so the bits match
  // the fold path below exactly; path selection depends only on the indices, never
  // the pool, so determinism across pool sizes is preserved.
  bool strictly_increasing = true;
  for (int64_t i = 1; i < n && strictly_increasing; ++i) {
    strictly_increasing = indices[static_cast<size_t>(i)] > indices[static_cast<size_t>(i) - 1];
  }
  if (strictly_increasing) {
    ForEachChunk(ctx, n, kComputeGrainScatterRows,
                 [&](int64_t, int64_t begin, int64_t end) {
                   for (int64_t i = begin; i < end; ++i) {
                     MG_DCHECK(indices[static_cast<size_t>(i)] >= 0 &&
                               indices[static_cast<size_t>(i)] < dst.rows());
                     float* drow = dst.RowPtr(indices[static_cast<size_t>(i)]);
                     const float* srow = src.RowPtr(i);
                     for (int64_t c = 0; c < cols; ++c) {
                       drow[c] += srow[c];
                     }
                   }
                 });
    return;
  }

  // Duplicate indices make this a scatter-reduce with a data-dependent write set,
  // so each chunk accumulates into a compact partial holding only the dst rows it
  // touches (slot order = first occurrence within the chunk, a fixed function of
  // the chunk layout), and the partials fold into dst in ascending chunk order.
  // Same bits for a null context and any pool size. The dst-row -> slot remap is a
  // generation-stamped thread_local scratch: a fresh O(dst_rows) fill per chunk
  // would rival the useful scatter work, while bumping the stamp invalidates the
  // whole scratch in O(1), so each chunk pays only O(touched) — and the remap's
  // contents stay a pure function of the chunk, never of which thread ran before.
  std::vector<Tensor> partials(static_cast<size_t>(chunks));
  std::vector<std::vector<int64_t>> touched_rows(static_cast<size_t>(chunks));
  ForEachChunkOrdered(
      ctx, n, kComputeGrainScatterRows,
      [&](int64_t chunk, int64_t begin, int64_t end) {
        SlotRemap& remap = scatter_remap;
        remap.NextGeneration(dst.rows());
        std::vector<int64_t> touched;
        for (int64_t i = begin; i < end; ++i) {
          const int64_t row = indices[static_cast<size_t>(i)];
          MG_DCHECK(row >= 0 && row < dst.rows());
          remap.Claim(row, &touched);
        }
        Tensor partial(static_cast<int64_t>(touched.size()), cols);
        for (int64_t i = begin; i < end; ++i) {
          float* drow = partial.RowPtr(
              remap.slot_of[static_cast<size_t>(indices[static_cast<size_t>(i)])]);
          const float* srow = src.RowPtr(i);
          for (int64_t c = 0; c < cols; ++c) {
            drow[c] += srow[c];
          }
        }
        partials[static_cast<size_t>(chunk)] = std::move(partial);
        touched_rows[static_cast<size_t>(chunk)] = std::move(touched);
      },
      [&](int64_t chunk) {
        const std::vector<int64_t>& rows = touched_rows[static_cast<size_t>(chunk)];
        const Tensor& partial = partials[static_cast<size_t>(chunk)];
        for (size_t s = 0; s < rows.size(); ++s) {
          float* drow = dst.RowPtr(rows[s]);
          const float* srow = partial.RowPtr(static_cast<int64_t>(s));
          for (int64_t c = 0; c < cols; ++c) {
            drow[c] += srow[c];
          }
        }
        // Free the folded partial eagerly.
        partials[static_cast<size_t>(chunk)] = Tensor();
      });
}

namespace {

void CheckOffsets(const Tensor& src, const std::vector<int64_t>& offsets) {
  MG_CHECK(!offsets.empty());
  MG_CHECK(offsets.front() == 0);
  MG_CHECK(offsets.back() == src.rows());
}

}  // namespace

Tensor SegmentSum(const Tensor& src, const std::vector<int64_t>& offsets,
                  const ComputeContext* ctx) {
  CheckOffsets(src, offsets);
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

Tensor SegmentMean(const Tensor& src, const std::vector<int64_t>& offsets,
                   const ComputeContext* ctx) {
  Tensor out = SegmentSum(src, offsets, ctx);
  ForEachRowChunk(ctx, out.rows(), [&](int64_t seg_begin, int64_t seg_end) {
    for (int64_t s = seg_begin; s < seg_end; ++s) {
      const int64_t count =
          offsets[static_cast<size_t>(s) + 1] - offsets[static_cast<size_t>(s)];
      if (count > 1) {
        const float inv = 1.0f / static_cast<float>(count);
        float* orow = out.RowPtr(s);
        for (int64_t c = 0; c < out.cols(); ++c) {
          orow[c] *= inv;
        }
      }
    }
  });
  return out;
}

Tensor SegmentSumBackward(const Tensor& grad_out, const std::vector<int64_t>& offsets,
                          const ComputeContext* ctx) {
  MG_CHECK(grad_out.rows() == static_cast<int64_t>(offsets.size()) - 1);
  Tensor grad_in(offsets.back(), grad_out.cols());
  ForEachRowChunk(ctx, grad_out.rows(), [&](int64_t seg_begin, int64_t seg_end) {
    for (int64_t s = seg_begin; s < seg_end; ++s) {
      const float* grow = grad_out.RowPtr(s);
      for (int64_t r = offsets[static_cast<size_t>(s)];
           r < offsets[static_cast<size_t>(s) + 1]; ++r) {
        std::copy(grow, grow + grad_out.cols(), grad_in.RowPtr(r));
      }
    }
  });
  return grad_in;
}

Tensor SegmentMeanBackward(const Tensor& grad_out, const std::vector<int64_t>& offsets,
                           const ComputeContext* ctx) {
  Tensor grad_in = SegmentSumBackward(grad_out, offsets, ctx);
  ForEachRowChunk(ctx, grad_out.rows(), [&](int64_t seg_begin, int64_t seg_end) {
    for (int64_t s = seg_begin; s < seg_end; ++s) {
      const int64_t count =
          offsets[static_cast<size_t>(s) + 1] - offsets[static_cast<size_t>(s)];
      if (count > 1) {
        const float inv = 1.0f / static_cast<float>(count);
        for (int64_t r = offsets[static_cast<size_t>(s)];
             r < offsets[static_cast<size_t>(s) + 1]; ++r) {
          float* row = grad_in.RowPtr(r);
          for (int64_t c = 0; c < grad_in.cols(); ++c) {
            row[c] *= inv;
          }
        }
      }
    }
  });
  return grad_in;
}

void SegmentSoftmaxInPlace(Tensor& scores, const std::vector<int64_t>& offsets,
                           const ComputeContext* ctx) {
  MG_CHECK(scores.cols() == 1);
  CheckOffsets(scores, offsets);
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

Tensor Relu(const Tensor& t, const ComputeContext* ctx) {
  Tensor out(t.rows(), t.cols());
  ForEachElemChunk(ctx, t.size(), [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      out.data()[i] = t.data()[i] > 0.0f ? t.data()[i] : 0.0f;
    }
  });
  return out;
}

Tensor ReluBackward(const Tensor& out, const Tensor& grad_out, const ComputeContext* ctx) {
  Tensor g(out.rows(), out.cols());
  ForEachElemChunk(ctx, out.size(), [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      g.data()[i] = out.data()[i] > 0.0f ? grad_out.data()[i] : 0.0f;
    }
  });
  return g;
}

Tensor LeakyRelu(const Tensor& t, float slope, const ComputeContext* ctx) {
  Tensor out(t.rows(), t.cols());
  ForEachElemChunk(ctx, t.size(), [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const float v = t.data()[i];
      out.data()[i] = v > 0.0f ? v : slope * v;
    }
  });
  return out;
}

Tensor LeakyReluBackward(const Tensor& out, const Tensor& grad_out, float slope,
                         const ComputeContext* ctx) {
  Tensor g(out.rows(), out.cols());
  ForEachElemChunk(ctx, out.size(), [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      g.data()[i] = out.data()[i] > 0.0f ? grad_out.data()[i] : slope * grad_out.data()[i];
    }
  });
  return g;
}

Tensor Tanh(const Tensor& t, const ComputeContext* ctx) {
  Tensor out(t.rows(), t.cols());
  ForEachElemChunk(ctx, t.size(), [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      out.data()[i] = std::tanh(t.data()[i]);
    }
  });
  return out;
}

Tensor TanhBackward(const Tensor& out, const Tensor& grad_out, const ComputeContext* ctx) {
  Tensor g(out.rows(), out.cols());
  ForEachElemChunk(ctx, out.size(), [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      g.data()[i] = (1.0f - out.data()[i] * out.data()[i]) * grad_out.data()[i];
    }
  });
  return g;
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
