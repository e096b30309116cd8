// Thread-local heap-allocation counting for the zero-allocation tests.
//
// Replacing the global operators is binary-wide, so the counter is
// thread-local: only allocations made by the *calling* thread (the engine
// thread running drain) are charged, never a receiver thread's.  Include
// this header from exactly one translation unit of a test binary.
//
// Every replaceable non-aligned form is replaced, the nothrow ones too, so
// a block always comes from malloc and goes back to free.  A sanitizer
// that kept its own nothrow operator new would see std::stable_sort's
// temporary buffer freed by a foreign operator delete.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
thread_local std::uint64_t g_thread_allocations = 0;
/// The largest single request among them; tests reset it to 0.
thread_local std::size_t g_thread_largest_allocation = 0;

void* counted_malloc(std::size_t size) noexcept {
  ++g_thread_allocations;
  g_thread_largest_allocation = std::max(g_thread_largest_allocation, size);
  return std::malloc(size);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}

// noinline keeps GCC from tracking pointer provenance through the
// replaced operators and mis-reporting free() of a malloc'd block as a
// mismatched allocation function.
[[gnu::noinline]] static void counted_free(void* p) noexcept {
  std::free(p);
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
