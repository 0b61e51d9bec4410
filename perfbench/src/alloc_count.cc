#include "perfbench/src/alloc_count.h"

#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

AllocTally g_workload;
AllocTally g_bookkeeping;
AllocTally* g_sink = &g_workload;

void* Allocate(std::size_t n) {
  g_sink->calls += 1;
  g_sink->bytes += n;
  return std::malloc(n == 0 ? 1 : n);
}

void* AllocateAligned(std::size_t n, std::align_val_t align) {
  g_sink->calls += 1;
  g_sink->bytes += n;
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}

}  // namespace

AllocTally& WorkloadAllocs() { return g_workload; }

BookkeepingScope::BookkeepingScope() : saved_(g_sink) { g_sink = &g_bookkeeping; }
BookkeepingScope::~BookkeepingScope() { g_sink = saved_; }

}  // namespace perfbench

void* operator new(std::size_t n) {
  void* p = perfbench::Allocate(n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n) {
  void* p = perfbench::Allocate(n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::Allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::Allocate(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  void* p = perfbench::AllocateAligned(n, a);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n, std::align_val_t a) {
  void* p = perfbench::AllocateAligned(n, a);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return perfbench::AllocateAligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return perfbench::AllocateAligned(n, a);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
