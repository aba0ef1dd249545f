#include "util/flat_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "util/rng.h"

namespace esp::util {
namespace {

using Map = FlatMap<std::uint64_t>;

/// The first `n` keys (from `from` upward) that hash to `slot` in `m`.
std::vector<std::uint64_t> keys_homed_at(const Map& m, std::size_t slot,
                                         std::size_t n,
                                         std::uint64_t from = 0) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = from; keys.size() < n; ++k)
    if (m.home_slot(k) == slot) keys.push_back(k);
  return keys;
}

TEST(FlatMap, InsertFindErase) {
  Map m;
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(m.try_emplace(7, 70).second);
  EXPECT_FALSE(m.try_emplace(7, 71).second);  // present: value kept
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(*m.find(7), 70u);
  m.insert_or_assign(7, 72);
  EXPECT_EQ(*m.find(7), 72u);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.find(8), nullptr);
  EXPECT_TRUE(m.erase(7));
  EXPECT_FALSE(m.erase(7));
  EXPECT_TRUE(m.empty());
}

TEST(FlatMap, TakeReturnsAndRemoves) {
  Map m;
  m.try_emplace(3, 30);
  const auto v = m.take(3);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 30u);
  EXPECT_FALSE(m.take(3).has_value());
  EXPECT_FALSE(m.contains(3));
}

TEST(FlatMap, KeyZeroAndLargeKeys) {
  Map m;
  const std::uint64_t big = Map::kEmptyKey - 1;
  m.try_emplace(0, 1);
  m.try_emplace(big, 2);
  m.try_emplace(1ull << 63, 3);
  EXPECT_EQ(*m.find(0), 1u);
  EXPECT_EQ(*m.find(big), 2u);
  EXPECT_EQ(*m.find(1ull << 63), 3u);
  EXPECT_TRUE(m.erase(0));
  EXPECT_EQ(*m.find(big), 2u);
  EXPECT_FALSE(m.contains(0));
}

TEST(FlatMap, RejectsReservedKey) {
  Map m;
  EXPECT_THROW(m.try_emplace(Map::kEmptyKey, 1), std::invalid_argument);
  EXPECT_THROW(m.insert_or_assign(Map::kEmptyKey, 1), std::invalid_argument);
  // Lookups of the sentinel never match an empty slot.
  EXPECT_EQ(m.find(Map::kEmptyKey), nullptr);
  EXPECT_FALSE(m.contains(Map::kEmptyKey));
  EXPECT_FALSE(m.erase(Map::kEmptyKey));
  EXPECT_TRUE(m.empty());
}

TEST(FlatMap, ProbeChainWrapsAroundTableEnd) {
  Map m;
  const std::size_t last = m.capacity() - 1;
  const auto keys = keys_homed_at(m, last, 3);
  for (const std::uint64_t k : keys) m.try_emplace(k, k + 1);
  EXPECT_EQ(m.slot_of(keys[0]), last);
  EXPECT_EQ(m.slot_of(keys[1]), 0u);
  EXPECT_EQ(m.slot_of(keys[2]), 1u);
  // Deleting the head of the wrapped cluster shifts both followers back
  // across the table end.
  EXPECT_TRUE(m.erase(keys[0]));
  EXPECT_EQ(m.slot_of(keys[1]), last);
  EXPECT_EQ(m.slot_of(keys[2]), 0u);
  EXPECT_EQ(*m.find(keys[1]), keys[1] + 1);
  EXPECT_EQ(*m.find(keys[2]), keys[2] + 1);
  EXPECT_EQ(m.size(), 2u);
}

TEST(FlatMap, BackwardShiftDeleteInMiddleOfCluster) {
  Map m;
  // Cluster: a, b, c homed at 3 occupy 3, 4, 5; d homed at 4 lands at 6;
  // e homed at 7 sits at its home right after the cluster.
  const auto at3 = keys_homed_at(m, 3, 3);
  const auto d = keys_homed_at(m, 4, 1).front();
  const auto e = keys_homed_at(m, 7, 1).front();
  for (const std::uint64_t k : at3) m.try_emplace(k, k);
  m.try_emplace(d, d);
  m.try_emplace(e, e);
  ASSERT_EQ(m.slot_of(d), 6u);
  ASSERT_EQ(m.slot_of(e), 7u);

  EXPECT_TRUE(m.erase(at3[1]));  // hole at slot 4
  EXPECT_EQ(m.slot_of(at3[0]), 3u);
  EXPECT_EQ(m.slot_of(at3[2]), 4u);  // homed at 3: shifts back
  EXPECT_EQ(m.slot_of(d), 5u);       // homed at 4: shifts back
  EXPECT_EQ(m.slot_of(e), 7u);       // at its home: stays
  EXPECT_FALSE(m.contains(at3[1]));
  for (const std::uint64_t k : {at3[0], at3[2], d, e}) EXPECT_EQ(*m.find(k), k);

  // A member may not shift in front of its home: erase slot 3 and the key
  // homed at 4 must stay at or after slot 4.
  EXPECT_TRUE(m.erase(at3[0]));
  EXPECT_EQ(m.slot_of(at3[2]), 3u);
  EXPECT_EQ(m.slot_of(d), 4u);
  EXPECT_EQ(m.size(), 3u);
}

TEST(FlatMap, GrowsAndRehashesKeepingEntries) {
  Map m;
  const std::size_t initial = m.capacity();
  for (std::uint64_t k = 0; k < 10'000; ++k) m.try_emplace(k * 16, k);
  EXPECT_GT(m.capacity(), initial);
  EXPECT_EQ(m.size(), 10'000u);
  // Load factor stays at or below 7/8.
  EXPECT_LE(m.size() * 8, m.capacity() * 7);
  for (std::uint64_t k = 0; k < 10'000; ++k) {
    ASSERT_NE(m.find(k * 16), nullptr) << k;
    EXPECT_EQ(*m.find(k * 16), k);
  }
  EXPECT_FALSE(m.contains(8));
  std::size_t seen = 0;
  m.for_each([&seen](std::uint64_t key, std::uint64_t v) {
    EXPECT_EQ(key, v * 16);
    ++seen;
  });
  EXPECT_EQ(seen, 10'000u);
}

TEST(FlatMap, ReserveAvoidsRehash) {
  Map m;
  m.reserve(1000);
  const std::size_t cap = m.capacity();
  for (std::uint64_t k = 0; k < 1000; ++k) m.try_emplace(k, k);
  EXPECT_EQ(m.capacity(), cap);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_FALSE(m.contains(5));
}

TEST(FlatMap, MatchesUnorderedMapUnderRandomChurn) {
  Map m;
  std::unordered_map<std::uint64_t, std::uint64_t> want;
  Xoshiro256 rng(9);
  for (std::uint64_t i = 0; i < 200'000; ++i) {
    // A narrow key range keeps the table dense, with long clusters.
    const std::uint64_t k = rng.below(3000);
    switch (rng.below(4)) {
      case 0:
      case 1:
        m.insert_or_assign(k, i);
        want[k] = i;
        break;
      case 2:
        ASSERT_EQ(m.erase(k), want.erase(k) > 0);
        break;
      default: {
        const std::uint64_t* got = m.find(k);
        const auto it = want.find(k);
        ASSERT_EQ(got != nullptr, it != want.end());
        if (got) {
          ASSERT_EQ(*got, it->second);
        }
      }
    }
    ASSERT_EQ(m.size(), want.size());
  }
  for (const auto& [k, v] : want) ASSERT_EQ(*m.find(k), v);
}

}  // namespace
}  // namespace esp::util
