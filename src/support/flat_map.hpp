// Flat associative containers for the hot paths.
//
// The engines key state by two kinds of identifiers: operation tokens
// (dense, monotonically allocated) and node ids (small integers assigned
// contiguously by the grid builder).  Contiguous storage beats a node-based
// hash table here — no per-element allocation, one cache line per probe —
// but the live sets are not always small: a hierarchical farm keeps one
// in-flight chunk per worker, thousands at pool size.
//
//   * FlatMap<K, V>  — iteration in order of last insertion, O(1) find and
//     erase.  Items live in a slot vector.  Up to kLinearMax slots it is a
//     plain insertion-ordered vector with linear find, the fastest thing at
//     that size.  Past it the map adds an open-addressing index of slot
//     positions, and erase marks a slot dead instead of shifting its
//     successors; `emplace` compacts lazily once dead slots reach half the
//     vector.  Storage (slots and index) is reused, so bookkeeping
//     allocates nothing once warm.  The farms keep each chunk under one
//     key for its whole life and update it in place; where a walk's order
//     shows (crash surrender, checkpoint pass) they sort by a stamp of
//     their own rather than lean on the iteration order.
//   * NodeMap<V>     — direct-indexed vector keyed by NodeId, auto-growing,
//     with a default value for untouched nodes.  O(1) access, no hashing;
//     relies on grid node ids being small and dense (they are: the grid
//     builder numbers nodes contiguously from zero).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/ids.hpp"

namespace grasp {

template <typename Key, typename Value>
class FlatMap {
 public:
  struct Item {
    Key key;
    Value value;
  };

 private:
  // The flag leads so that iteration tests it on the cache line that also
  // holds the key, which scans read anyway.
  struct Slot {
    bool live;
    Item item;
  };

  /// Forward iterator over live slots, in slot (last-insertion) order.
  template <bool Const>
  class Iter {
    using SlotPtr = std::conditional_t<Const, const Slot*, Slot*>;

   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Item;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<Const, const Item*, Item*>;
    using reference = std::conditional_t<Const, const Item&, Item&>;

    Iter() = default;
    operator Iter<true>() const
      requires(!Const)
    {
      return Iter<true>(at_, end_);
    }

    reference operator*() const { return at_->item; }
    pointer operator->() const { return &at_->item; }
    Iter& operator++() {
      ++at_;
      skip_dead();
      return *this;
    }
    Iter operator++(int) {
      Iter before = *this;
      ++*this;
      return before;
    }
    bool operator==(const Iter& other) const { return at_ == other.at_; }

   private:
    friend class FlatMap;
    template <bool>
    friend class Iter;
    Iter(SlotPtr at, SlotPtr end) : at_(at), end_(end) { skip_dead(); }
    void skip_dead() {
      while (at_ != end_ && !at_->live) ++at_;
    }

    SlotPtr at_ = nullptr;
    SlotPtr end_ = nullptr;
  };

 public:
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  [[nodiscard]] Value* find(const Key& key) {
    const std::size_t pos = locate(key).pos;
    return pos == kNone ? nullptr : &slots_[pos].item.value;
  }
  [[nodiscard]] const Value* find(const Key& key) const {
    const std::size_t pos = locate(key).pos;
    return pos == kNone ? nullptr : &slots_[pos].item.value;
  }
  [[nodiscard]] bool contains(const Key& key) const {
    return locate(key).pos != kNone;
  }

  /// Insert a new mapping at the end of the iteration order.  The key must
  /// not be present.
  Value& emplace(const Key& key, Value value) {
    if (dead_ != 0 && 2 * dead_ >= slots_.size()) compact();
    slots_.push_back(Slot{true, Item{key, std::move(value)}});
    if (slots_.size() > kLinearMax) {
      if (!indexed_ || 2 * size() > index_.size()) {
        rebuild_index();
      } else {
        index_insert(slots_.size() - 1);
      }
    }
    return slots_.back().item.value;
  }

  /// Remove the item at `pos`, preserving the order of the survivors;
  /// returns the iterator to the next item.
  iterator erase(iterator pos) {
    const auto at = static_cast<std::size_t>(pos.at_ - slots_.data());
    Found found{at, kNone};
    if (indexed_) {
      found.bucket = home(pos.at_->item.key);
      while (index_[found.bucket] != at)
        found.bucket = (found.bucket + 1) & mask();
    }
    remove(found);
    return iterator(slots_.data() + at, slots_.data() + slots_.size());
  }

  /// Remove `key`, preserving the order of the survivors.  Returns true
  /// when the key was present.
  bool erase(const Key& key) {
    const Found found = locate(key);
    if (found.pos == kNone) return false;
    remove(found);
    return true;
  }

  /// Remove `key` and return its value.
  std::pair<bool, Value> take(const Key& key) {
    const Found found = locate(key);
    if (found.pos == kNone) return {false, Value{}};
    std::pair<bool, Value> out{true, std::move(slots_[found.pos].item.value)};
    remove(found);
    return out;
  }

  [[nodiscard]] std::size_t size() const { return slots_.size() - dead_; }
  [[nodiscard]] bool empty() const { return size() == 0; }
  void clear() {
    slots_.clear();
    dead_ = 0;
    indexed_ = false;
  }
  void reserve(std::size_t n) {
    slots_.reserve(n);
    if (n > kLinearMax) index_.reserve(index_capacity_for(n));
  }

  [[nodiscard]] iterator begin() {
    return iterator(slots_.data(), slots_.data() + slots_.size());
  }
  [[nodiscard]] iterator end() {
    Slot* last = slots_.data() + slots_.size();
    return iterator(last, last);
  }
  [[nodiscard]] const_iterator begin() const {
    return const_iterator(slots_.data(), slots_.data() + slots_.size());
  }
  [[nodiscard]] const_iterator end() const {
    const Slot* last = slots_.data() + slots_.size();
    return const_iterator(last, last);
  }

 private:
  /// Up to this many slots a linear scan beats hashing, and the farms'
  /// per-event scans of their in-flight tables stay free of tombstones;
  /// past it the index is built (and dropped again when compaction shrinks
  /// the map back).
  static constexpr std::size_t kLinearMax = 32;
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  static constexpr std::uint32_t kEmpty = static_cast<std::uint32_t>(-1);

  /// Index size for `n` live items: a power of two keeping the load in
  /// [1/4, 1/2] between rebuilds.
  static std::size_t index_capacity_for(std::size_t n) {
    return std::max<std::size_t>(64, std::bit_ceil(4 * n));
  }

  [[nodiscard]] std::size_t mask() const { return index_.size() - 1; }

  /// Fibonacci hashing: the top bits of the multiplied hash spread the
  /// sequential tokens and node ids the engines use.
  [[nodiscard]] std::size_t home(const Key& key) const {
    const auto h = static_cast<std::uint64_t>(std::hash<Key>{}(key));
    return static_cast<std::size_t>((h * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  struct Found {
    std::size_t pos = kNone;     ///< slot position; kNone when absent
    std::size_t bucket = kNone;  ///< index bucket (indexed maps only)
  };

  [[nodiscard]] Found locate(const Key& key) const {
    if (!indexed_) {  // small maps hold no dead slots
      for (std::size_t i = 0; i < slots_.size(); ++i)
        if (slots_[i].item.key == key) return {i, kNone};
      return {};
    }
    for (std::size_t b = home(key);; b = (b + 1) & mask()) {
      const std::uint32_t pos = index_[b];
      if (pos == kEmpty) return {};
      if (slots_[pos].item.key == key) return {pos, b};
    }
  }

  /// Small maps shift the survivors down, as a plain vector does; indexed
  /// ones leave a tombstone for `emplace` to compact.
  void remove(const Found& found) {
    if (!indexed_) {
      slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(found.pos));
      return;
    }
    index_erase(found.bucket);
    slots_[found.pos].live = false;
    ++dead_;
  }

  void compact() {
    slots_.erase(std::remove_if(slots_.begin(), slots_.end(),
                                [](const Slot& s) { return !s.live; }),
                 slots_.end());
    dead_ = 0;
    indexed_ = false;  // positions moved; emplace rebuilds if still large
  }

  void rebuild_index() {
    const std::size_t capacity = index_capacity_for(size());
    index_.assign(capacity, kEmpty);  // reuses storage once warm
    shift_ = 64 - std::countr_zero(capacity);
    indexed_ = true;
    for (std::size_t i = 0; i < slots_.size(); ++i)
      if (slots_[i].live) index_insert(i);
  }

  void index_insert(std::size_t pos) {
    std::size_t b = home(slots_[pos].item.key);
    while (index_[b] != kEmpty) b = (b + 1) & mask();
    index_[b] = static_cast<std::uint32_t>(pos);
  }

  /// Empty bucket `hole` by backward shift: later entries of its probe run
  /// move into the hole unless that would put them before their home
  /// bucket, so the index never holds tombstones of its own.
  void index_erase(std::size_t hole) {
    for (std::size_t next = (hole + 1) & mask(); index_[next] != kEmpty;
         next = (next + 1) & mask()) {
      const std::size_t want = home(slots_[index_[next]].item.key);
      if (((next - want) & mask()) >= ((next - hole) & mask())) {
        index_[hole] = index_[next];
        hole = next;
      }
    }
    index_[hole] = kEmpty;
  }

  std::vector<Slot> slots_;  ///< live and dead items, last-insertion order
  std::size_t dead_ = 0;
  std::vector<std::uint32_t> index_;  ///< slot positions; kEmpty = free
  int shift_ = 64;
  bool indexed_ = false;
};

/// One past the largest node id a dense per-node table accepts.  Grid node
/// ids are dense small integers; the ceiling only guards against an
/// invalid/sentinel or hostile id blowing up a table.
inline constexpr std::size_t kMaxDenseNodeId = std::size_t{1} << 22;

template <typename Value>
class NodeMap {
 public:
  NodeMap() = default;
  /// A custom default requires a copyable Value (untouched slots are filled
  /// with copies); move-only Values use the value-initialized default.
  explicit NodeMap(Value default_value) : default_(std::move(default_value)) {
    static_assert(std::is_copy_constructible_v<Value>,
                  "NodeMap: custom default needs a copyable Value");
  }

  /// Mutable access; grows the table to cover `node`.
  Value& operator[](NodeId node) {
    const std::size_t index = check(node);
    if (index >= values_.size()) {
      if constexpr (std::is_copy_constructible_v<Value>) {
        values_.resize(index + 1, default_);
      } else {
        values_.resize(index + 1);  // value-init == default_ (see ctor)
      }
    }
    return values_[index];
  }

  /// Read-only access; untouched nodes — and ids outside the dense range,
  /// including the invalid sentinel — read as the default value.
  [[nodiscard]] const Value& at_or_default(NodeId node) const {
    if (!node.is_valid() || node.value >= kMaxDenseNodeId) return default_;
    const auto index = static_cast<std::size_t>(node.value);
    return index < values_.size() ? values_[index] : default_;
  }

  /// Dense slot storage, index == node id (for full-table scans).
  [[nodiscard]] const std::vector<Value>& values() const { return values_; }

  void clear() { values_.clear(); }

 private:
  static std::size_t check(NodeId node) {
    if (!node.is_valid() || node.value >= kMaxDenseNodeId)
      throw std::out_of_range("NodeMap: node id outside dense range");
    return static_cast<std::size_t>(node.value);
  }

  std::vector<Value> values_;
  Value default_{};
};

}  // namespace grasp
