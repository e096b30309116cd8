// Thread-local heap-allocation counting for the zero-allocation tests.
//
// Replacing the global operators is binary-wide, so the counter is
// thread-local: only allocations made by the *calling* thread (the engine
// thread running drain) are charged, never a receiver thread's.  Include
// this header from exactly one translation unit of a test binary.

#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
thread_local std::uint64_t g_thread_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_thread_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  ++g_thread_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
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
