// Aligned extent arena: the one memory pool of the partition buffer.
//
// O_DIRECT transfers require sector-aligned buffers, offsets, and lengths, and the
// hot partition buffer should not pay a page-cache double-copy for data that lives
// in its own memory anyway. IoArena is a fixed pool of equal-sized 4 KiB-aligned
// extents, each big enough for one partition in its on-disk layout. An extent
// holds a resident partition's rows, a staged read waiting to be installed, or an
// evicted partition whose write-back is in flight. Acquire blocks until an extent
// frees, bounding the buffer's memory to num_slots * slot_bytes.
//
// The pool is one anonymous private mapping: page-aligned and zero by
// construction, so construction touches no page, and an extent that is never
// used is never faulted in. It is not advised to use huge pages: on a 4-vCPU
// host with THP in madvise mode, MADV_HUGEPAGE left kge_disk's epoch_s unchanged
// and raised its peak RSS by 4.6% (6 paired benchmark runs).
//
// Under AddressSanitizer a free extent is poisoned (Release poisons, Acquire
// unpoisons), so a row pointer or a transfer that outlives its extent is
// reported as a use-after-poison. Other builds get no extra code.
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

// Fixed pool of equal-sized aligned extents. Acquire/Release are thread-safe;
// Acquire blocks until an extent is free (callers size the pool so the
// steady-state working set always fits).
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
