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

}  // namespace mariusgnn

#endif  // SRC_UTIL_VEC_H_
