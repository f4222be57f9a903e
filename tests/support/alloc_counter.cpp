#include "tests/support/alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with a
// new-expression at a call site.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace grasp::test {

void start_counting_allocations() {
  g_allocations = 0;
  g_counting = true;
}

std::size_t stop_counting_allocations() {
  g_counting = false;
  return g_allocations.load();
}

}  // namespace grasp::test
