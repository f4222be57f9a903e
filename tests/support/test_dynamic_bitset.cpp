// DynamicBitset against a std::vector<bool> reference: seeded random
// set/reset/erase/assign sequences across several words, with every query
// compared after each step.
#include "support/dynamic_bitset.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "support/rng.hpp"

namespace grasp {
namespace {

std::size_t first_of(const std::vector<bool>& a, const std::vector<bool>& b) {
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
    if (a[i] && b[i]) return i;
  return DynamicBitset::npos;
}

void expect_matches(const DynamicBitset& bits, const std::vector<bool>& ref,
                    const DynamicBitset& other,
                    const std::vector<bool>& other_ref) {
  ASSERT_EQ(bits.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_EQ(bits.test(i), ref[i]) << "bit " << i;
  EXPECT_EQ(bits.find_first(), first_of(ref, ref));
  // find_next from every position, and from one past the end.
  std::size_t next = DynamicBitset::npos;
  for (std::size_t from = ref.size() + 1; from-- > 0;) {
    if (from < ref.size() && ref[from]) next = from;
    ASSERT_EQ(bits.find_next(from), next) << "from " << from;
  }
  EXPECT_EQ(bits.find_first_and(other), first_of(ref, other_ref));
  EXPECT_EQ(bits.any(), first_of(ref, ref) != DynamicBitset::npos);
}

TEST(DynamicBitset, EmptyHasNoSetBit) {
  DynamicBitset bits;
  EXPECT_EQ(bits.size(), 0u);
  EXPECT_FALSE(bits.any());
  EXPECT_EQ(bits.find_first(), DynamicBitset::npos);
  EXPECT_EQ(bits.find_next(0), DynamicBitset::npos);
  bits.assign(0, true);
  EXPECT_FALSE(bits.any());
}

TEST(DynamicBitset, AssignTrueSetsExactlySizeBits) {
  for (const std::size_t n : {1u, 63u, 64u, 65u, 128u, 130u}) {
    DynamicBitset bits;
    bits.assign(n, true);
    DynamicBitset all;
    all.assign(200, true);
    for (std::size_t i = 0; i < n; ++i) bits.reset(i);
    // Nothing past the end may read as set, even through a longer mask.
    EXPECT_EQ(bits.find_first_and(all), DynamicBitset::npos) << n;
    EXPECT_FALSE(bits.any()) << n;
  }
}

TEST(DynamicBitset, EraseShiftsLaterPositionsAcrossWords) {
  DynamicBitset bits;
  bits.assign(130, false);
  bits.set(64);
  bits.set(129);
  bits.erase(10);
  EXPECT_EQ(bits.size(), 129u);
  EXPECT_TRUE(bits.test(63));
  EXPECT_FALSE(bits.test(64));
  EXPECT_TRUE(bits.test(128));
  bits.erase(63);
  EXPECT_EQ(bits.find_first(), 127u);
}

TEST(DynamicBitset, MatchesVectorBoolReference) {
  Rng rng(7);
  for (int round = 0; round < 40; ++round) {
    const auto n = static_cast<std::size_t>(rng.uniform_index(200));
    const bool fill = rng.bernoulli(0.5);
    DynamicBitset bits, other;
    bits.assign(n, fill);
    other.assign(n, !fill);
    std::vector<bool> ref(n, fill), other_ref(n, !fill);
    expect_matches(bits, ref, other, other_ref);
    for (int step = 0; step < 300 && !ref.empty(); ++step) {
      const auto i = static_cast<std::size_t>(rng.uniform_index(ref.size()));
      const double op = rng.uniform();
      if (op < 0.35) {
        bits.set(i);
        ref[i] = true;
      } else if (op < 0.7) {
        bits.reset(i);
        ref[i] = false;
      } else if (op < 0.85) {
        other.set(i);
        other_ref[i] = true;
      } else {
        // Erase the same position from both, as a dispatcher does when a
        // member leaves.
        bits.erase(i);
        other.erase(i);
        ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
        other_ref.erase(other_ref.begin() + static_cast<std::ptrdiff_t>(i));
      }
      expect_matches(bits, ref, other, other_ref);
    }
  }
}

}  // namespace
}  // namespace grasp
