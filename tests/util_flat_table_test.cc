// Tests for the flat open-addressing set (util/flat_table.h), the Doubletree
// stop set of core::ScanResult: a randomized replay against
// std::unordered_set, key 0, sequential pool addresses across several
// doublings, order-independent equality, and moves.

#include "util/flat_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace flashroute::util {
namespace {

std::vector<std::uint32_t> sorted_keys(const FlatSet& set) {
  std::vector<std::uint32_t> keys(set.begin(), set.end());
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<std::uint32_t> sorted_keys(
    const std::unordered_set<std::uint32_t>& set) {
  std::vector<std::uint32_t> keys(set.begin(), set.end());
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(FlatSet, EmptySetHoldsNothing) {
  const FlatSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.begin(), set.end());
  EXPECT_FALSE(set.contains(0));
  EXPECT_FALSE(set.contains(0x0A000001));
  EXPECT_EQ(set.memory_bytes(), 0u);
  EXPECT_EQ(set, FlatSet{});
}

TEST(FlatSet, MatchesUnorderedSetOnRandomInserts) {
  // Keys from a small range repeat often; 0 is one of them.
  Xoshiro256 rng(11);
  FlatSet set;
  std::unordered_set<std::uint32_t> reference;
  for (int i = 0; i < 60'000; ++i) {
    const auto key = static_cast<std::uint32_t>(
        rng.bounded(4) == 0 ? rng.bounded(64) : rng() >> 40);
    ASSERT_EQ(set.insert(key).second, reference.insert(key).second)
        << "insert " << i << " of " << key;
    if (i % 97 == 0) {
      const auto probe = static_cast<std::uint32_t>(rng() >> 40);
      ASSERT_EQ(set.contains(probe), reference.contains(probe)) << probe;
    }
  }
  ASSERT_TRUE(reference.contains(0));
  EXPECT_EQ(set.size(), reference.size());
  EXPECT_FALSE(set.empty());
  for (const std::uint32_t key : reference) EXPECT_TRUE(set.contains(key));
  // Iteration visits every key exactly once.
  const std::vector<std::uint32_t> keys = sorted_keys(set);
  EXPECT_EQ(keys, sorted_keys(reference));
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

TEST(FlatSet, KeyZeroIsAMember) {
  FlatSet set;
  EXPECT_TRUE(set.insert(0).second);
  EXPECT_FALSE(set.insert(0).second);
  EXPECT_TRUE(set.contains(0));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(sorted_keys(set), std::vector<std::uint32_t>{0});
  EXPECT_EQ(*set.insert(0).first, 0u);

  // Key 0 survives the doublings other keys cause, and is iterated once.
  for (std::uint32_t key = 1; key <= 1000; ++key) set.insert(key);
  EXPECT_TRUE(set.contains(0));
  EXPECT_EQ(set.size(), 1001u);
  const std::vector<std::uint32_t> keys = sorted_keys(set);
  ASSERT_EQ(keys.size(), 1001u);
  EXPECT_EQ(keys.front(), 0u);
  EXPECT_EQ(keys.back(), 1000u);
  EXPECT_EQ(std::count(keys.begin(), keys.end(), 0u), 1);
}

TEST(FlatSet, SequentialPoolAddressesAcrossDoublings) {
  // Interface-pool addresses are handed out consecutively; the set must
  // keep every one through many doublings at bounded load.
  constexpr std::uint32_t kBase = 0xC8000000;
  constexpr std::uint32_t kCount = 100'000;
  FlatSet set;
  std::size_t doublings = 0;
  std::size_t bytes = set.memory_bytes();
  for (std::uint32_t i = 0; i < kCount; ++i) {
    const auto [it, added] = set.insert(kBase + i);
    ASSERT_TRUE(added) << i;
    ASSERT_EQ(*it, kBase + i);
    if (set.memory_bytes() != bytes) {
      ++doublings;
      bytes = set.memory_bytes();
    }
  }
  EXPECT_GE(doublings, 10u);
  EXPECT_EQ(set.size(), kCount);
  // Load stays at most 3/4 (plus the key-0 slot), and 4-byte slots.
  EXPECT_GE(set.memory_bytes(), kCount * 4 * 4 / 3);
  EXPECT_LE(set.memory_bytes(), kCount * 4 * 8 / 3 + 8);
  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(set.contains(kBase + i)) << i;
    ASSERT_FALSE(set.insert(kBase + i).second) << i;
  }
  EXPECT_FALSE(set.contains(kBase + kCount));
  EXPECT_FALSE(set.contains(kBase - 1));
  const std::vector<std::uint32_t> keys = sorted_keys(set);
  ASSERT_EQ(keys.size(), kCount);
  for (std::uint32_t i = 0; i < kCount; ++i) ASSERT_EQ(keys[i], kBase + i);
}

TEST(FlatSet, EqualityIgnoresInsertionOrderAndGrowth) {
  std::vector<std::uint32_t> keys;
  for (std::uint32_t i = 0; i < 5000; ++i) keys.push_back(i * 2654435761u);
  FlatSet forward;
  forward.insert(keys.begin(), keys.end());
  FlatSet backward;
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) backward.insert(*it);
  EXPECT_EQ(forward, backward);
  // A copy iterates in slot order, yet compares equal to either.
  const FlatSet copy = backward;
  EXPECT_EQ(copy, forward);

  FlatSet one_more = forward;
  one_more.insert(7);
  EXPECT_NE(one_more, forward);
  FlatSet one_different;
  one_different.insert(keys.begin() + 1, keys.end());
  one_different.insert(7);
  EXPECT_EQ(one_different.size(), forward.size());
  EXPECT_NE(one_different, forward);

  EXPECT_EQ((FlatSet{3, 1, 2}), (FlatSet{1, 2, 3, 2}));
  EXPECT_NE((FlatSet{0, 1}), (FlatSet{1, 2}));
}

TEST(FlatSet, MovedFromSetIsEmpty) {
  FlatSet source{0, 10, 20, 30};
  FlatSet moved(std::move(source));
  EXPECT_EQ(moved, (FlatSet{0, 10, 20, 30}));
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(source.begin(), source.end());
  EXPECT_FALSE(source.contains(0));
  EXPECT_TRUE(source.insert(5).second);  // and usable again

  FlatSet assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), 4u);
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
}

}  // namespace
}  // namespace flashroute::util
