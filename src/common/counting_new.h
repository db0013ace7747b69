// Replaces the global operator new/delete with malloc/free-backed versions
// that count every allocation, so a benchmark or test can assert how many
// heap allocations a hot path makes. Include from exactly one translation
// unit of an executable, never from the library: it defines the program's
// global allocation functions.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace tilelink {

inline std::atomic<uint64_t> g_heap_allocations{0};

// Global operator new calls so far, on every thread.
inline uint64_t HeapAllocations() {
  return g_heap_allocations.load();
}

}  // namespace tilelink

// Kept out of line: inlined into a caller, GCC pairs the free() below with
// the caller's `new` expression and warns about a mismatch that is not one.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++tilelink::g_heap_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
