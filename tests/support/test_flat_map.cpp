// FlatMap against a plain linear reference: the indexed, tombstoned table
// must give the same lookups and the same iteration order (order of last
// insertion) as an insertion-ordered vector with linear find, through
// every mutation the engines perform.
#include "support/flat_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "tests/support/alloc_counter.hpp"

namespace grasp {
namespace {

/// The linear FlatMap the indexed one replaced: insertion-ordered vector,
/// linear find, erase shifts the survivors.
template <typename Key, typename Value>
class LinearMap {
 public:
  struct Item {
    Key key;
    Value value;
  };
  using iterator = typename std::vector<Item>::iterator;

  Value* find(const Key& key) {
    for (Item& item : items_)
      if (item.key == key) return &item.value;
    return nullptr;
  }
  Value& emplace(const Key& key, Value value) {
    items_.push_back(Item{key, std::move(value)});
    return items_.back().value;
  }
  iterator erase(iterator pos) { return items_.erase(pos); }
  bool erase(const Key& key) {
    for (auto it = items_.begin(); it != items_.end(); ++it) {
      if (it->key == key) {
        items_.erase(it);
        return true;
      }
    }
    return false;
  }
  std::pair<bool, Value> take(const Key& key) {
    for (auto it = items_.begin(); it != items_.end(); ++it) {
      if (it->key == key) {
        Value value = std::move(it->value);
        items_.erase(it);
        return {true, std::move(value)};
      }
    }
    return {false, Value{}};
  }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] const Key& key_at(std::size_t i) const { return items_[i].key; }
  void clear() { items_.clear(); }
  iterator begin() { return items_.begin(); }
  iterator end() { return items_.end(); }

 private:
  std::vector<Item> items_;
};

using Payload = std::vector<std::uint64_t>;  // non-trivial: moves matter

template <typename Key>
void expect_same(FlatMap<Key, Payload>& map, LinearMap<Key, Payload>& ref) {
  ASSERT_EQ(map.size(), ref.size());
  EXPECT_EQ(map.empty(), ref.size() == 0);
  bool same = true;
  auto it = map.begin();
  for (const auto& item : ref) {
    if (it == map.end()) {
      same = false;
      break;
    }
    same = same && it->key == item.key && it->value == item.value;
    ++it;
  }
  EXPECT_TRUE(same && it == map.end()) << "iteration order diverged";
  // Const iteration walks the same sequence.
  const auto& cmap = map;
  EXPECT_EQ(static_cast<std::size_t>(std::distance(cmap.begin(), cmap.end())),
            ref.size());
}

/// Drive both maps with one seeded operation sequence.  Phases alternate
/// between growth and shrinkage so the size crosses the linear/indexed
/// threshold in both directions, and long erase runs followed by inserts
/// force compaction.  Reports the peak size and how often the size crossed
/// the threshold.
template <typename Key, typename MakeKey>
void differential_run(std::uint64_t seed, MakeKey make_key, std::size_t& peak,
                      std::size_t& crossings) {
  std::mt19937_64 rng(seed);
  FlatMap<Key, Payload> map;
  LinearMap<Key, Payload> ref;
  std::uint64_t next_key = 0;
  peak = 0;
  crossings = 0;
  bool above = false;
  for (int phase = 0; phase < 12; ++phase) {
    const bool grow = phase % 2 == 0;
    const std::size_t target = grow ? 20 + rng() % 300 : rng() % 12;
    // Removals aim at live keys mostly while shrinking, mostly at issued
    // (often already erased) or never-issued keys while growing.
    const auto random_key = [&] {
      if (ref.size() > 0 && rng() % 4 < (grow ? 1u : 3u))
        return ref.key_at(rng() % ref.size());
      return make_key(rng() % (next_key + 4));
    };
    for (int step = 0; step < 3000; ++step) {
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " phase=" << phase
                   << " step=" << step);
      const std::uint64_t op = rng() % 100;
      if (op < (grow ? 50u : 5u)) {  // emplace a fresh key
        const Key key = make_key(next_key++);
        const Payload value{next_key, rng()};
        map.emplace(key, value);
        ref.emplace(key, value);
      } else if (op < 60) {  // find
        const Key key = random_key();
        const Payload* got = map.find(key);
        const Payload* want = ref.find(key);
        ASSERT_EQ(got == nullptr, want == nullptr);
        if (got != nullptr) {
          EXPECT_EQ(*got, *want);
        }
        EXPECT_EQ(map.contains(key), want != nullptr);
      } else if (op < 72) {  // take
        const Key key = random_key();
        auto got = map.take(key);
        auto want = ref.take(key);
        ASSERT_EQ(got.first, want.first);
        EXPECT_EQ(got.second, want.second);
      } else if (op < 84) {  // erase(key)
        const Key key = random_key();
        EXPECT_EQ(map.erase(key), ref.erase(key));
      } else if (op < 94) {  // rekey: take and re-insert under a new key
        const Key key = random_key();
        auto got = map.take(key);
        auto want = ref.take(key);
        ASSERT_EQ(got.first, want.first);
        if (got.first) {
          const Key fresh = make_key(next_key++);
          map.emplace(fresh, std::move(got.second));
          ref.emplace(fresh, std::move(want.second));
        }
      } else if (op < 99) {  // erase(iterator) sweep: the fail_node pattern
        const std::uint64_t bucket = rng() % 31;
        for (auto it = map.begin(); it != map.end();)
          it = it->value[1] % 31 == bucket ? map.erase(it) : std::next(it);
        for (auto it = ref.begin(); it != ref.end();)
          it = it->value[1] % 31 == bucket ? ref.erase(it) : std::next(it);
      } else if (rng() % 4 == 0) {  // clear
        map.clear();
        ref.clear();
      }
      expect_same(map, ref);
      if (::testing::Test::HasFailure()) return;
      peak = std::max(peak, ref.size());
      if ((ref.size() > 32) != above) {  // FlatMap's linear/indexed threshold
        above = !above;
        ++crossings;
      }
      if (grow ? ref.size() >= target : ref.size() <= target) break;
    }
  }
}

TEST(FlatMap, MatchesLinearReferenceOnTokenKeys) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    // Tokens in the engines' shape: a kind tag in the high bits over a
    // monotone sequence.
    std::size_t peak = 0, crossings = 0;
    differential_run<std::uint64_t>(
        seed, [](std::uint64_t i) { return (std::uint64_t{3} << 56) | i; },
        peak, crossings);
    EXPECT_GT(peak, 64u);
    EXPECT_GE(crossings, 2u);  // up through the threshold and back down
  }
}

TEST(FlatMap, MatchesLinearReferenceOnNodeIdKeys) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    std::size_t peak = 0, crossings = 0;
    differential_run<NodeId>(
        seed, [](std::uint64_t i) { return NodeId{i}; }, peak, crossings);
    EXPECT_GT(peak, 64u);
    EXPECT_GE(crossings, 2u);
  }
}

TEST(FlatMap, EraseByIteratorReturnsNextAndKeepsOthersValid) {
  FlatMap<int, int> map;
  for (int i = 0; i < 40; ++i) map.emplace(i, i * 10);
  auto keep = map.begin();
  ++keep;  // key 1
  auto it = map.erase(map.begin());
  EXPECT_EQ(it, keep);
  EXPECT_EQ(it->key, 1);
  for (int i = 2; i < 40; i += 2) EXPECT_TRUE(map.erase(i));
  EXPECT_EQ(keep->value, 10);  // an indexed map never moves survivors
  std::vector<int> keys;
  for (const auto& [key, value] : map) keys.push_back(key);
  std::vector<int> odd;
  for (int i = 1; i < 40; i += 2) odd.push_back(i);
  EXPECT_EQ(keys, odd);
  FlatMap<int, int>::const_iterator c = map.begin();
  EXPECT_EQ(c->key, 1);
}

TEST(FlatMap, ReinsertionMovesToTheEnd) {
  FlatMap<int, int> map;
  for (int i = 0; i < 20; ++i) map.emplace(i, i);
  auto [found, v] = map.take(3);
  ASSERT_TRUE(found);
  map.emplace(3, v);
  std::vector<int> keys;
  for (const auto& item : map) keys.push_back(item.key);
  ASSERT_EQ(keys.size(), 20u);
  EXPECT_EQ(keys.back(), 3);
  EXPECT_EQ(keys[3], 4);
}

/// The engines' steady state — an in-flight table at pool size whose
/// entries are taken and re-keyed every event — allocates nothing once the
/// slot vector and the index have grown to their working size.
TEST(FlatMap, AllocationFreeOnceWarm) {
  FlatMap<std::uint64_t, std::uint64_t> map;
  std::vector<std::uint64_t> live(4096);
  std::uint64_t next = 0;
  for (auto& key : live) {
    key = next++;
    map.emplace(key, 0);
  }
  std::mt19937_64 rng(7);
  const auto churn = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      std::uint64_t& key = live[rng() % live.size()];
      auto [found, v] = map.take(key);
      ASSERT_TRUE(found);
      key = next++;
      map.emplace(key, v + 1);
    }
  };
  churn(50000);  // warm-up: storage reaches its working size
  test::start_counting_allocations();
  churn(50000);
  EXPECT_EQ(test::stop_counting_allocations(), 0u);
  EXPECT_EQ(map.size(), live.size());
}

}  // namespace
}  // namespace grasp
