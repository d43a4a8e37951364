// The native float vector of the compile target, shared by the lane kernels (the
// ranking loss in src/nn/decoder.cc, the matmuls in src/tensor/ops.cc) and the
// benchmark that reports their width.
//
// It is 16 bytes on baseline x86-64 (SSE2), 32 with AVX2, 64 with AVX-512F. Only
// the predefined target macros choose it, so no build holds or passes a vector
// wider than its registers (no -Wpsabi ABI notes). A lane kernel never adds two
// lanes together and a scalar operand meets a Vec through the vector extension's
// broadcast, unrounded, so the width moves no bit (docs/DETERMINISM.md).
#ifndef SRC_UTIL_VEC_H_
#define SRC_UTIL_VEC_H_

#include <cstdint>
#include <cstring>

namespace mariusgnn {

#if defined(__AVX512F__)
constexpr int kVecBytes = 64;
#elif defined(__AVX2__)
constexpr int kVecBytes = 32;
#else
constexpr int kVecBytes = 16;
#endif
typedef float Vec __attribute__((vector_size(kVecBytes)));
// Floats per Vec.
constexpr int64_t kW = kVecBytes / static_cast<int64_t>(sizeof(float));

inline Vec LoadVec(const float* p) {
  Vec v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreVec(float* p, const Vec& v) { std::memcpy(p, &v, sizeof(v)); }

// The value of the sequential fold `acc = x[0]; acc = std::max(acc, x[i])` for i
// ascending over [1, n), n >= 1, with lanes over the elements. The fold keeps the
// first element that attains the maximum and ignores a NaN after x[0], so a NaN
// x[0] is the result, and otherwise the result is the first x[i] equal to the
// largest non-NaN value. Each lane folds its elements with the fold's own select
// and the lanes then fold the same way: a max never rounds, so this is that value
// for any grouping. Only +0.0f and -0.0f compare equal with different bits; a
// zero maximum is therefore taken from the first zero element.
inline float LaneMax(const float* x, int64_t n) {
  const float first = x[0];
  if (first != first) {
    return first;
  }
  Vec acc;
  for (int64_t l = 0; l < kW; ++l) {
    acc[l] = first;
  }
  int64_t i = 1;
  for (; i + kW <= n; i += kW) {
    const Vec v = LoadVec(x + i);
    acc = (acc < v) ? v : acc;
  }
  float m = first;
  for (int64_t l = 0; l < kW; ++l) {
    m = (m < acc[l]) ? acc[l] : m;
  }
  for (; i < n; ++i) {
    m = (m < x[i]) ? x[i] : m;
  }
  if (m == 0.0f) {
    for (i = 0; x[i] != 0.0f; ++i) {
    }
    return x[i];
  }
  return m;
}

}  // namespace mariusgnn

#endif  // SRC_UTIL_VEC_H_
