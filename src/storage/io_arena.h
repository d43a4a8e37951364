// Aligned slab arena backing the partition buffer's IO path.
//
// O_DIRECT transfers require sector-aligned buffers, offsets, and lengths, and the
// hot partition buffer should not pay a page-cache double-copy for data that lives
// in its own slots anyway. This file provides the two allocation primitives the
// storage engine builds on:
//
//  - AlignedBuffer: a 4 KiB-aligned, zero-initialised float array used for the
//    resident partition slots themselves (values + Adagrad state).
//  - IoArena: a fixed pool of equal-sized 4 KiB-aligned slots that stage
//    partitions between disk and the buffer (prefetched reads waiting to be
//    installed, eviction snapshots waiting to be written back). Acquire blocks
//    until a slot frees, bounding staging memory to num_slots * slot_bytes.
//
// Both are anonymous private mappings: page-aligned and zero by construction, so
// construction touches no page, and a slot that is never used is never faulted
// in. Neither is advised to use huge pages: on a 4-vCPU host with THP in madvise
// mode, MADV_HUGEPAGE left kge_disk's epoch_s unchanged and raised its peak RSS
// by 4.6% (6 paired benchmark runs).
#ifndef SRC_STORAGE_IO_ARENA_H_
#define SRC_STORAGE_IO_ARENA_H_

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <vector>

namespace mariusgnn {

// 4 KiB: covers the direct-IO alignment of every common logical block size and is
// the x86/arm64 base page size.
inline constexpr size_t kIoAlignment = 4096;

inline constexpr size_t AlignUpIo(size_t n) {
  return (n + kIoAlignment - 1) & ~(kIoAlignment - 1);
}

// Page-aligned, zero-initialised float storage. Move-only.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  explicit AlignedBuffer(size_t count);
  ~AlignedBuffer();

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;
  AlignedBuffer(AlignedBuffer&& other) noexcept;
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept;

  float* data() { return data_; }
  const float* data() const { return data_; }
  float& operator[](size_t i) { return data_[i]; }
  const float& operator[](size_t i) const { return data_[i]; }
  size_t size() const { return size_; }

 private:
  float* data_ = nullptr;
  size_t size_ = 0;
};

// Fixed pool of equal-sized aligned slots. Acquire/Release are thread-safe;
// Acquire blocks until a slot is free (callers size the pool so the steady-state
// working set — staged reads + in-flight write-backs — always fits).
class IoArena {
 public:
  IoArena(size_t slot_bytes, int num_slots);
  ~IoArena();

  IoArena(const IoArena&) = delete;
  IoArena& operator=(const IoArena&) = delete;

  size_t slot_bytes() const { return slot_bytes_; }
  int num_slots() const { return num_slots_; }

  float* Acquire();
  void Release(float* slot);

 private:
  size_t slot_bytes_ = 0;  // rounded up to kIoAlignment
  int num_slots_ = 0;
  char* base_ = nullptr;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<float*> free_;  // guarded by mu_
};

}  // namespace mariusgnn

#endif  // SRC_STORAGE_IO_ARENA_H_
