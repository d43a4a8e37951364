#include "src/storage/io_arena.h"

#include <cstdlib>
#include <cstring>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "src/util/check.h"

namespace mariusgnn {

namespace {

// aligned_alloc requires the size to be a multiple of the alignment; hugepage
// advice is best-effort (requires Linux + THP enabled) and never load-bearing.
void* AllocAligned(size_t bytes) {
  const size_t rounded = AlignUpIo(bytes == 0 ? kIoAlignment : bytes);
  void* p = std::aligned_alloc(kIoAlignment, rounded);
  MG_CHECK_MSG(p != nullptr, "aligned allocation failed");
  std::memset(p, 0, rounded);
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  ::madvise(p, rounded, MADV_HUGEPAGE);
#endif
  return p;
}

}  // namespace

AlignedBuffer::AlignedBuffer(size_t count) : size_(count) {
  data_ = static_cast<float*>(AllocAligned(count * sizeof(float)));
}

AlignedBuffer::~AlignedBuffer() { std::free(data_); }

AlignedBuffer::AlignedBuffer(AlignedBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}

AlignedBuffer& AlignedBuffer::operator=(AlignedBuffer&& other) noexcept {
  if (this != &other) {
    std::free(data_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

IoArena::IoArena(size_t slot_bytes, int num_slots)
    : slot_bytes_(AlignUpIo(slot_bytes)), num_slots_(num_slots) {
  MG_CHECK(num_slots_ >= 1);
  base_ = static_cast<char*>(AllocAligned(slot_bytes_ * static_cast<size_t>(num_slots_)));
  free_.reserve(static_cast<size_t>(num_slots_));
  // Hand slots out lowest-address first (pop from the back of the free list).
  for (int i = num_slots_ - 1; i >= 0; --i) {
    free_.push_back(reinterpret_cast<float*>(base_ + static_cast<size_t>(i) * slot_bytes_));
  }
}

IoArena::~IoArena() {
  MG_CHECK_MSG(static_cast<int>(free_.size()) == num_slots_,
               "IoArena destroyed with slots still in use");
  std::free(base_);
}

float* IoArena::Acquire() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !free_.empty(); });
  float* slot = free_.back();
  free_.pop_back();
  return slot;
}

void IoArena::Release(float* slot) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(slot);
  }
  cv_.notify_one();
}

}  // namespace mariusgnn
