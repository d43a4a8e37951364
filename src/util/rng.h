// Fast deterministic random number generation.
//
// Rng wraps xoshiro256** — a small, fast, high-quality generator — and adds the sampling
// helpers the samplers and policies need: bounded integers, floats, shuffles, and
// fixed-size samples without replacement. Every component that needs randomness takes an
// Rng (or a seed) explicitly so experiments are reproducible.
#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/check.h"
#include "src/util/node_row_map.h"

namespace mariusgnn {

// Caller-owned buffers for Rng::SampleWithoutReplacement. A sampler keeps one for
// a whole sample and reuses it for every node's draw, so once warm a draw
// allocates nothing.
struct PickScratch {
  std::vector<int64_t> picks;  // the last draw's indices
  std::vector<int64_t> pool;   // partial Fisher–Yates index pool (dense case)
  NodeRowMap seen;             // Floyd's picks so far (sparse case)
};

// Combines a stream seed with an index into an independent per-index seed
// (splitmix64 finalizer). Pipeline workers use MixSeed(run_seed, batch_index) so a
// batch's RNG stream depends only on its index, never on worker scheduling.
inline uint64_t MixSeed(uint64_t seed, uint64_t index) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  // Re-seeds the generator deterministically using splitmix64 expansion.
  void Seed(uint64_t seed) {
    uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      s = z ^ (z >> 31);
    }
  }

  // Raw 64 random bits (xoshiro256**).
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). bound must be > 0.
  uint64_t UniformInt(uint64_t bound) {
    MG_DCHECK(bound > 0);
    // Lemire's multiply-shift rejection method.
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
      uint64_t t = -bound % bound;
      while (l < t) {
        x = Next();
        m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  // Uniform integer in [lo, hi).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    MG_DCHECK(hi > lo);
    return lo + static_cast<int64_t>(UniformInt(static_cast<uint64_t>(hi - lo)));
  }

  // Uniform float in [0, 1).
  float UniformFloat() { return static_cast<float>(Next() >> 40) * 0x1.0p-24f; }

  // Uniform double in [0, 1).
  double UniformDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Standard normal via Box–Muller (one value per call; simple, adequate for init).
  float Normal() {
    float u1 = UniformFloat();
    float u2 = UniformFloat();
    if (u1 < 1e-12f) {
      u1 = 1e-12f;
    }
    return std::sqrt(-2.0f * std::log(u1)) * std::cos(6.28318530718f * u2);
  }

  // Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  // Writes `count` distinct indices from [0, population) to scratch->picks when
  // count < population, otherwise all indices 0..population-1, and returns
  // scratch->picks. Uses Floyd's algorithm for small counts relative to
  // population (order then randomized by a shuffle), else a partial Fisher–Yates.
  const std::vector<int64_t>& SampleWithoutReplacement(int64_t population, int64_t count,
                                                       PickScratch* scratch);

  // Checkpoint/restore of the full generator state (the 4 xoshiro256** words): a
  // restored Rng continues the random stream bit-for-bit where the saved one
  // left off, which is what makes crash-safe resume bitwise-identical.
  void SaveState(uint64_t out[4]) const {
    for (int i = 0; i < 4; ++i) {
      out[i] = state_[i];
    }
  }
  void RestoreState(const uint64_t in[4]) {
    for (int i = 0; i < 4; ++i) {
      state_[i] = in[i];
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace mariusgnn

#endif  // SRC_UTIL_RNG_H_
