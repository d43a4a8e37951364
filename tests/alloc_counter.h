// A counting replacement of the global allocation functions, for tests that
// assert a warm path allocates nothing. Include it from exactly one translation
// unit of a test binary: it defines the replaceable operator new and delete
// forms (plain, array, nothrow and sized; the aligned forms stay the library's),
// all over malloc and free so that every allocation and release pairs up under
// the sanitizers too.
#ifndef TESTS_ALLOC_COUNTER_H_
#define TESTS_ALLOC_COUNTER_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace mariusgnn {

// Every operator new call in the process since it started.
inline std::atomic<int64_t> g_operator_new_calls{0};

// The operator new calls, on any thread, while fn runs.
template <class Fn>
int64_t AllocationsDuring(const Fn& fn) {
  const int64_t before = g_operator_new_calls.load();
  fn();
  return g_operator_new_calls.load() - before;
}

inline void* CountedAlloc(std::size_t size) noexcept {
  g_operator_new_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace mariusgnn

void* operator new(std::size_t size) {
  void* p = mariusgnn::CountedAlloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return mariusgnn::CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return mariusgnn::CountedAlloc(size);
}
// GCC flags free() on memory from an operator new once it inlines a delete at
// its call site; here every form is malloc-backed, so the pairing is right.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // TESTS_ALLOC_COUNTER_H_
