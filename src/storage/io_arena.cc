#include "src/storage/io_arena.h"

#include <sys/mman.h>

#include "src/util/check.h"

#if defined(__SANITIZE_ADDRESS__)
#define MG_ARENA_POISONS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MG_ARENA_POISONS 1
#endif
#endif

#ifdef MG_ARENA_POISONS
#include <sanitizer/asan_interface.h>
#endif

namespace mariusgnn {

namespace {

// Marks a free extent unaddressable under ASan; no code otherwise.
void Poison(const void* p, size_t bytes) {
#ifdef MG_ARENA_POISONS
  ASAN_POISON_MEMORY_REGION(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}

void Unpoison(const void* p, size_t bytes) {
#ifdef MG_ARENA_POISONS
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace

IoArena::IoArena(size_t slot_bytes, int num_slots)
    : slot_bytes_(AlignUpIo(slot_bytes == 0 ? kIoAlignment : slot_bytes)),
      num_slots_(num_slots) {
  MG_CHECK(num_slots_ >= 1);
  // Anonymous mappings are page-aligned and read as zeros by construction, and
  // a page is only faulted in (and counted in RSS) when first touched, so
  // extents a buffer never uses cost nothing.
  void* p = ::mmap(nullptr, slot_bytes_ * static_cast<size_t>(num_slots_),
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  MG_CHECK_MSG(p != MAP_FAILED, "anonymous mapping failed");
  base_ = static_cast<char*>(p);
  Poison(base_, slot_bytes_ * static_cast<size_t>(num_slots_));
  free_.reserve(static_cast<size_t>(num_slots_));
  // Hand slots out lowest-address first (pop from the back of the free list).
  for (int i = num_slots_ - 1; i >= 0; --i) {
    free_.push_back(reinterpret_cast<float*>(base_ + static_cast<size_t>(i) * slot_bytes_));
  }
}

IoArena::~IoArena() {
  MG_CHECK_MSG(static_cast<int>(free_.size()) == num_slots_,
               "IoArena destroyed with slots still in use");
  // A later mapping may reuse these addresses: leave their shadow clean.
  Unpoison(base_, slot_bytes_ * static_cast<size_t>(num_slots_));
  ::munmap(base_, slot_bytes_ * static_cast<size_t>(num_slots_));
}

float* IoArena::Acquire() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !free_.empty(); });
  float* slot = free_.back();
  free_.pop_back();
  Unpoison(slot, slot_bytes_);
  return slot;
}

void IoArena::Release(float* slot) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Poison(slot, slot_bytes_);
    free_.push_back(slot);
  }
  cv_.notify_one();
}

}  // namespace mariusgnn
