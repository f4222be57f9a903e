// Global allocation counting for the support suite.  The suite's binary
// replaces operator new (alloc_counter.cpp) with one that counts calls
// while counting is on, so a test can show that a hot path allocates
// nothing.
#pragma once

#include <cstddef>

namespace grasp::test {

/// Zero the count and start counting global operator new calls.
void start_counting_allocations();
/// Stop counting; returns the calls made since the matching start.
std::size_t stop_counting_allocations();

}  // namespace grasp::test
