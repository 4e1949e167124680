// Global allocation counter for the suites that pin allocation-free
// steady states (kernel_test, obs_test).
//
// Include from exactly one translation unit of a test binary: it
// replaces the global operator new/delete family for that binary. Every
// variant (plain, array, nothrow, aligned, sized) is replaced, so each
// allocation and its deallocation go through one malloc/free pair. A
// partial replacement would pair the runtime's own operator new (say the
// nothrow form a library sort uses) with this file's free, which
// AddressSanitizer reports as an alloc-dealloc mismatch.
//
// The counter ticks only while g_count_allocs is set, keeping gtest's
// own bookkeeping out of the measurements.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<long long> g_new_calls{0};
std::atomic<bool> g_count_allocs{false};

void* counted_alloc(std::size_t n, std::size_t align) noexcept {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(n);
  // aligned_alloc wants the size to be a multiple of the alignment.
  return std::aligned_alloc(align, (n + align - 1) / align * align);
}

void* counted_alloc_or_throw(std::size_t n, std::size_t align) {
  if (void* p = counted_alloc(n, align)) return p;
  throw std::bad_alloc();
}

std::size_t align_of(std::align_val_t a) {
  return static_cast<std::size_t>(a);
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc_or_throw(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n, 0); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, align_of(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, align_of(a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, align_of(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, align_of(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
