// Scalar definitions of the GNN neighbour aggregation, composed the way the layers
// once ran it from separate kernels: gather the neighbour rows into an edge-sized
// matrix, then reduce each segment; backward, broadcast each segment's gradient to
// its positions, then scatter-add them, folding one +0.0f partial per chunk of
// kComputeGrainScatterRows positions into each destination row in ascending chunk
// order (one chunk, or strictly increasing indices, add straight in). The fused
// kernels in src/tensor/ops.h must equal these bit for bit.
#ifndef TESTS_AGGREGATION_REFERENCE_H_
#define TESTS_AGGREGATION_REFERENCE_H_

#include <cstdint>
#include <map>
#include <vector>

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

}  // namespace mariusgnn

#endif  // TESTS_AGGREGATION_REFERENCE_H_
