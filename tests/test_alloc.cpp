// The untraced OGWS loop allocates nothing after its first iteration.
//
// This binary replaces the global operator new with a counting one, which is
// why it is a suite of its own. An iteration that starts allocating (a
// formatted log line, a temporary vector copied per step) is a slowdown no
// wall-clock comparison can separate from a runner's noise; a count can.
// Together with Ogws.TracingLeavesTheWorkLedgerUnchanged (tracing does not
// change the work) it keeps the trace-disabled path a pointer test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "api/session.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_profiles.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every unaligned form, so that whatever any of them allocates meets a
// matching free (AddressSanitizer checks the pairing).
void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace lrsizer {
namespace {

/// Size `profile` untraced at default options without history and return
/// the allocation count at the end of each OGWS iteration.
std::vector<std::size_t> allocations_at_each_iteration(const char* profile,
                                                       bool capture_warm_start) {
  core::FlowOptions options;
  options.ogws.record_history = false;
  api::SizingSession session(netlist::generate_circuit(netlist::spec_for_profile(profile)),
                             options);
  session.set_capture_warm_start(capture_warm_start);
  std::vector<std::size_t> counts;
  counts.reserve(static_cast<std::size_t>(options.ogws.max_iterations));
  session.set_observer([&counts](const core::OgwsIterate&) {
    counts.push_back(g_allocations.load(std::memory_order_relaxed));
  });
  EXPECT_TRUE(session.run_all().ok()) << profile;
  return counts;
}

TEST(Allocations, UntracedOgwsIterationsAfterTheFirstAllocateNothing) {
  for (const char* profile : {"c432", "c6288"}) {
    for (const bool capture : {false, true}) {
      const std::vector<std::size_t> counts = allocations_at_each_iteration(profile, capture);
      ASSERT_GT(counts.size(), 2u) << profile;
      std::size_t first = 0;  // the first iteration that allocated
      for (std::size_t k = 1; k < counts.size() && first == 0; ++k) {
        if (counts[k] != counts[k - 1]) first = k + 1;
      }
      EXPECT_EQ(counts.back(), counts.front())
          << profile << " (warm capture " << capture << "): "
          << counts.back() - counts.front() << " allocations in iterations 2.."
          << counts.size() << ", the first in iteration " << first;
    }
  }
}

}  // namespace
}  // namespace lrsizer
