#include "src/storage/io_arena.h"

#include <sys/mman.h>

#include <utility>

#include "src/util/check.h"

namespace mariusgnn {

namespace {

size_t MappedBytes(size_t bytes) { return AlignUpIo(bytes == 0 ? kIoAlignment : bytes); }

// Anonymous mappings are page-aligned and read as zeros by construction, and a
// page is only faulted in (and counted in RSS) when first touched, so slots a
// buffer never uses cost nothing.
void* AllocAligned(size_t bytes) {
  void* p = ::mmap(nullptr, MappedBytes(bytes), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  MG_CHECK_MSG(p != MAP_FAILED, "anonymous mapping failed");
  return p;
}

void FreeAligned(void* p, size_t bytes) {
  if (p != nullptr) {
    ::munmap(p, MappedBytes(bytes));
  }
}

}  // namespace

AlignedBuffer::AlignedBuffer(size_t count) : size_(count) {
  data_ = static_cast<float*>(AllocAligned(count * sizeof(float)));
}

AlignedBuffer::~AlignedBuffer() { FreeAligned(data_, size_ * sizeof(float)); }

AlignedBuffer::AlignedBuffer(AlignedBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}

AlignedBuffer& AlignedBuffer::operator=(AlignedBuffer&& other) noexcept {
  if (this != &other) {
    FreeAligned(data_, size_ * sizeof(float));
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
  FreeAligned(base_, slot_bytes_ * static_cast<size_t>(num_slots_));
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
