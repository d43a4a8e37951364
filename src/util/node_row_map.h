// Per-sample node id -> row map for the sampling and query-planning paths.
//
// Every mini-batch and every serving query dedups graph node ids into rows in
// first-occurrence order: a batch's target rows, DENSE's delta sets and repr_map,
// a layer block's src rows, a link query's targets, the picks of one Floyd draw.
// NodeRowMap is the table those dedups share: linear probing over a power-of-two
// array of {key, row} slots, a multiplicative (Fibonacci) hash, and an empty slot
// marked by key -1, so keys must be >= 0 and there is no stamp or generation to
// keep. The table starts at no fewer than 2x the expected keys (and 16 slots) and
// doubles whenever an insert would take it past load 1/2, so its memory is
// O(keys in the sample), never O(|V|).
//
// Build one on the stack of the call that needs it. Rows are whatever the caller
// emplaces; a key keeps the row of its first Emplace, like std::unordered_map's
// emplace, so replacing one with the other moves no row.
#ifndef SRC_UTIL_NODE_ROW_MAP_H_
#define SRC_UTIL_NODE_ROW_MAP_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace mariusgnn {

class NodeRowMap {
 public:
  explicit NodeRowMap(int64_t expected_keys = 0) { Reset(expected_keys); }

  // Drops every key and sizes the table for `expected_keys`. Keeps the slot
  // array's allocation when it is already large enough.
  void Reset(int64_t expected_keys) {
    int log2_capacity = kMinLog2;
    while ((int64_t{1} << log2_capacity) < 2 * expected_keys) {
      ++log2_capacity;
    }
    Resize(log2_capacity);
  }

  int64_t size() const { return size_; }
  int64_t capacity() const { return static_cast<int64_t>(slots_.size()); }

  // Row of `key`, or -1 when the key is absent.
  int64_t Find(int64_t key) const {
    MG_DCHECK(key >= 0);
    const Slot& s = slots_[Probe(key)];
    return s.key == key ? s.row : -1;
  }

  // Maps key -> row unless the key is present. Returns the key's row (the one
  // it already had, if present) and whether this call inserted it.
  std::pair<int64_t, bool> Emplace(int64_t key, int64_t row) {
    MG_DCHECK(key >= 0);
    size_t i = Probe(key);
    if (slots_[i].key == key) {
      return {slots_[i].row, false};
    }
    if (2 * (size_ + 1) > capacity()) {
      Grow();
      i = Probe(key);
    }
    slots_[i] = Slot{key, row};
    ++size_;
    return {row, true};
  }

 private:
  struct Slot {
    int64_t key;
    int64_t row;
  };
  static constexpr int64_t kEmpty = -1;
  static constexpr int kMinLog2 = 4;

  size_t Home(int64_t key) const {
    return static_cast<size_t>((static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  // The slot holding `key`, or else the first empty slot on its probe path.
  // Load stays at most 1/2, so an empty slot always ends the probe.
  size_t Probe(int64_t key) const {
    size_t i = Home(key);
    while (slots_[i].key != key && slots_[i].key != kEmpty) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  void Resize(int log2_capacity) {
    slots_.assign(size_t{1} << log2_capacity, Slot{kEmpty, 0});
    mask_ = slots_.size() - 1;
    shift_ = 64 - log2_capacity;
    size_ = 0;
  }

  void Grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    const int64_t kept = size_;
    Resize(64 - shift_ + 1);
    for (const Slot& s : old) {
      if (s.key != kEmpty) {
        slots_[Probe(s.key)] = s;
      }
    }
    size_ = kept;
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 64;
  int64_t size_ = 0;
};

}  // namespace mariusgnn

#endif  // SRC_UTIL_NODE_ROW_MAP_H_
