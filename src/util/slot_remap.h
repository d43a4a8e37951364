// Generation-stamped dense-key -> compact-slot remap for chunk-parallel
// kernels with a data-dependent write set (its one user is the decoder's
// shared-negative gradients). Each chunk builds a compact partial over just the
// rows it touches; the remap from global row to partial slot needs O(1)
// invalidation between chunks, because a fresh O(num_rows) sentinel fill per
// chunk would rival the useful scatter work. An entry is valid only when its stamp equals the current
// generation, so NextGeneration invalidates everything by bumping a counter.
//
// The decoder keeps one in each entry of its reused chunk scratch: an entry serves
// one chunk body at a time, and slot assignment (first-occurrence order within
// the chunk) is a pure function of the chunk contents — never of which thread ran,
// or what the entry served before — so reuse across chunks and calls cannot leak
// state into results.
#ifndef SRC_UTIL_SLOT_REMAP_H_
#define SRC_UTIL_SLOT_REMAP_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace mariusgnn {

struct SlotRemap {
  std::vector<int32_t> slot_of;
  std::vector<uint32_t> stamp;
  uint32_t generation = 0;

  // Invalidates all entries and (re)sizes the key space to at least `rows`.
  void NextGeneration(int64_t rows) {
    if (static_cast<int64_t>(slot_of.size()) < rows) {
      slot_of.resize(static_cast<size_t>(rows));
      stamp.assign(static_cast<size_t>(rows), 0);
      generation = 0;
    }
    if (++generation == 0) {  // counter wrapped: stale stamps could collide
      std::fill(stamp.begin(), stamp.end(), 0);
      generation = 1;
    }
  }

  // Slot of `row`, claiming the next slot (and recording the first occurrence in
  // `touched`) if this generation has not seen it yet.
  int32_t Claim(int64_t row, std::vector<int64_t>* touched) {
    if (stamp[static_cast<size_t>(row)] != generation) {
      stamp[static_cast<size_t>(row)] = generation;
      slot_of[static_cast<size_t>(row)] = static_cast<int32_t>(touched->size());
      touched->push_back(row);
    }
    return slot_of[static_cast<size_t>(row)];
  }
};

}  // namespace mariusgnn

#endif  // SRC_UTIL_SLOT_REMAP_H_
