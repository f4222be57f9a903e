// Run-time sized bitset with first-set-bit search.
//
// A dispatcher keeps per-member flags (idle, un-probed) in member order and
// asks for the first member that has them: one word test per 64 members
// instead of a walk over the member list.  erase() removes a position and
// shifts the later ones down, so the bits stay aligned with a member vector
// that loses an element.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace grasp {

class DynamicBitset {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Resize to `size` bits, every one equal to `value`.
  void assign(std::size_t size, bool value) {
    size_ = size;
    words_.assign((size + kBits - 1) / kBits, value ? ~std::uint64_t{0} : 0);
    if (value && size % kBits != 0)
      words_.back() = (std::uint64_t{1} << (size % kBits)) - 1;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] bool test(std::size_t i) const {
    return ((words_[i / kBits] >> (i % kBits)) & 1) != 0;
  }
  void set(std::size_t i) { words_[i / kBits] |= bit(i); }
  void reset(std::size_t i) { words_[i / kBits] &= ~bit(i); }

  [[nodiscard]] bool any() const {
    for (const std::uint64_t w : words_)
      if (w != 0) return true;
    return false;
  }

  /// Lowest set position, or npos.
  [[nodiscard]] std::size_t find_first() const { return find_first_and(*this); }

  /// Lowest set position at or after `from`, or npos.
  [[nodiscard]] std::size_t find_next(std::size_t from) const {
    std::size_t w = from / kBits;
    if (w >= words_.size()) return npos;
    std::uint64_t x = words_[w] & ~(bit(from) - 1);
    while (x == 0) {
      if (++w == words_.size()) return npos;
      x = words_[w];
    }
    return w * kBits + static_cast<std::size_t>(std::countr_zero(x));
  }

  /// Lowest position set in both this and `other`, or npos.
  [[nodiscard]] std::size_t find_first_and(const DynamicBitset& other) const {
    const std::size_t n = std::min(words_.size(), other.words_.size());
    for (std::size_t w = 0; w < n; ++w)
      if (const std::uint64_t x = words_[w] & other.words_[w]; x != 0)
        return w * kBits + static_cast<std::size_t>(std::countr_zero(x));
    return npos;
  }

  /// Remove position i: later positions move down by one, size shrinks.
  void erase(std::size_t i) {
    std::size_t w = i / kBits;
    const std::uint64_t below = bit(i) - 1;
    words_[w] = (words_[w] & below) | ((words_[w] >> 1) & ~below);
    for (; w + 1 < words_.size(); ++w) {
      words_[w] |= (words_[w + 1] & 1) << (kBits - 1);
      words_[w + 1] >>= 1;
    }
    if (--size_ % kBits == 0) words_.pop_back();
  }

 private:
  static constexpr std::size_t kBits = 64;
  [[nodiscard]] static std::uint64_t bit(std::size_t i) {
    return std::uint64_t{1} << (i % kBits);
  }

  std::vector<std::uint64_t> words_;  // bits past size_ are always zero
  std::size_t size_ = 0;
};

}  // namespace grasp
