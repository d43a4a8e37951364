#include "src/util/rng.h"

#include <algorithm>

namespace mariusgnn {

const std::vector<int64_t>& Rng::SampleWithoutReplacement(int64_t population, int64_t count,
                                                          PickScratch* scratch) {
  MG_CHECK(population >= 0 && count >= 0);
  std::vector<int64_t>& out = scratch->picks;
  out.clear();
  if (count >= population) {
    for (int64_t i = 0; i < population; ++i) {
      out.push_back(i);
    }
    return out;
  }
  if (count * 3 >= population) {
    // Dense case: partial Fisher–Yates over an index vector.
    std::vector<int64_t>& idx = scratch->pool;
    idx.resize(static_cast<size_t>(population));
    for (int64_t i = 0; i < population; ++i) {
      idx[static_cast<size_t>(i)] = i;
    }
    for (int64_t i = 0; i < count; ++i) {
      int64_t j = UniformInt(i, population);
      std::swap(idx[static_cast<size_t>(i)], idx[static_cast<size_t>(j)]);
      out.push_back(idx[static_cast<size_t>(i)]);
    }
    return out;
  }
  // Sparse case: Floyd's algorithm. Every earlier pick is < j, so j itself is
  // always new.
  NodeRowMap& seen = scratch->seen;
  seen.Reset(count);
  for (int64_t j = population - count; j < population; ++j) {
    const int64_t t = UniformInt(0, j + 1);
    const int64_t pick = seen.Find(t) < 0 ? t : j;
    seen.Emplace(pick, static_cast<int64_t>(out.size()));
    out.push_back(pick);
  }
  // Floyd's produces a biased order; shuffle for uniform order.
  Shuffle(out);
  return out;
}

}  // namespace mariusgnn
