// Tests for the §3.4 control-state structure: the DCB array with its
// overlaid circular doubly linked list in random permutation order (Fig 5).

#include "core/dcb_array.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

namespace flashroute::core {
namespace {

std::vector<std::uint32_t> walk_ring(const DcbArray& array) {
  std::vector<std::uint32_t> order;
  if (array.ring_size() == 0) return order;
  std::uint32_t index = array.head();
  for (std::uint32_t i = 0; i < array.ring_size(); ++i) {
    order.push_back(index);
    index = array.next(index);
  }
  return order;
}

TEST(DcbArray, RingFollowsPermutationOrder) {
  DcbArray array(16);
  const util::RandomPermutation perm(16, 5);
  array.build_ring(perm, [](std::uint32_t) { return true; });
  ASSERT_EQ(array.ring_size(), 16u);

  std::vector<std::uint32_t> expected;
  for (std::uint64_t rank = 0; rank < 16; ++rank) {
    expected.push_back(static_cast<std::uint32_t>(perm(rank)));
  }
  EXPECT_EQ(walk_ring(array), expected);
}

TEST(DcbArray, WalkRingVisitsEachMemberOnceInRingOrder) {
  DcbArray array(16);
  const util::RandomPermutation perm(16, 5);
  array.build_ring(perm, [](std::uint32_t) { return true; });
  const std::vector<std::uint32_t> ring = walk_ring(array);

  std::vector<std::uint32_t> visited;
  std::vector<std::uint32_t> prefetched;
  array.walk_ring([&](std::uint32_t index) { visited.push_back(index); },
                  [&](std::uint32_t next) { prefetched.push_back(next); });
  EXPECT_EQ(visited, ring);
  // The hook sees each member's successor before the member is visited.
  ASSERT_EQ(prefetched.size(), ring.size());
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(prefetched[i], ring[(i + 1) % ring.size()]);
  }

  DcbArray empty(4);
  empty.build_ring(util::RandomPermutation(4, 5),
                   [](std::uint32_t) { return false; });
  int visits = 0;
  empty.walk_ring([&](std::uint32_t) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(DcbArray, WalkRingVisitMayRemoveItsMember) {
  // The Tracer's main rounds unlink a finished destination during its own
  // visit; the walk must still reach every other member exactly once.
  DcbArray array(16);
  const util::RandomPermutation perm(16, 7);
  array.build_ring(perm, [](std::uint32_t) { return true; });
  const std::vector<std::uint32_t> ring = walk_ring(array);

  std::vector<std::uint32_t> visited;
  std::vector<std::uint32_t> kept;
  array.walk_ring([&](std::uint32_t index) {
    visited.push_back(index);
    if (visited.size() % 2 == 1) {
      array.remove(index);
    } else {
      kept.push_back(index);
    }
  });
  EXPECT_EQ(visited, ring);
  EXPECT_EQ(array.ring_size(), 8u);
  std::vector<std::uint32_t> survivors = walk_ring(array);
  std::sort(survivors.begin(), survivors.end());
  std::sort(kept.begin(), kept.end());
  EXPECT_EQ(survivors, kept);

  // Removing every member empties the ring.
  array.walk_ring([&](std::uint32_t index) { array.remove(index); });
  EXPECT_EQ(array.ring_size(), 0u);
  EXPECT_EQ(array.head(), DcbArray::kNone);
}

TEST(DcbArray, RingIsCircularBothWays) {
  DcbArray array(8);
  const util::RandomPermutation perm(8, 1);
  array.build_ring(perm, [](std::uint32_t) { return true; });
  // Forward walk returns to head; backward pointers mirror forward ones.
  std::uint32_t index = array.head();
  for (int i = 0; i < 8; ++i) {
    const std::uint32_t next = array[index].next_index();
    EXPECT_EQ(array[next].previous_index(), index);
    index = next;
  }
  EXPECT_EQ(index, array.head());
}

TEST(DcbArray, ExcludedSlotsKeepTheirPlaceButStayOut) {
  // "Prefixes excluded from the scan still occupy their slots" (§3.4).
  DcbArray array(10);
  const util::RandomPermutation perm(10, 2);
  const auto size = array.build_ring(
      perm, [](std::uint32_t index) { return index % 2 == 0; });
  EXPECT_EQ(size, 5u);
  EXPECT_EQ(array.ring_size(), 5u);
  for (const std::uint32_t index : walk_ring(array)) {
    EXPECT_EQ(index % 2, 0u);
  }
  EXPECT_FALSE(array.in_ring(1));
  EXPECT_TRUE(array.in_ring(0));
}

TEST(DcbArray, RemoveUnlinksInO1) {
  DcbArray array(5);
  const util::RandomPermutation perm(5, 3);
  array.build_ring(perm, [](std::uint32_t) { return true; });
  const auto before = walk_ring(array);
  const std::uint32_t victim = before[2];
  array.remove(victim);
  EXPECT_EQ(array.ring_size(), 4u);
  EXPECT_FALSE(array.in_ring(victim));
  for (const std::uint32_t index : walk_ring(array)) {
    EXPECT_NE(index, victim);
  }
}

TEST(DcbArray, RemoveHeadMovesHead) {
  DcbArray array(4);
  const util::RandomPermutation perm(4, 4);
  array.build_ring(perm, [](std::uint32_t) { return true; });
  const std::uint32_t old_head = array.head();
  ASSERT_LT(old_head, 4u);
  const std::uint32_t next = array.next(old_head);
  array.remove(old_head);
  EXPECT_EQ(array.head(), next);
  EXPECT_EQ(array.ring_size(), 3u);
}

TEST(DcbArray, RemoveLastEmptiesRing) {
  DcbArray array(1);
  const util::RandomPermutation perm(1, 1);
  array.build_ring(perm, [](std::uint32_t) { return true; });
  EXPECT_EQ(array.ring_size(), 1u);
  array.remove(0);
  EXPECT_EQ(array.ring_size(), 0u);
  EXPECT_EQ(array.head(), DcbArray::kNone);
}

TEST(DcbArray, DoubleRemoveIsIdempotent) {
  DcbArray array(3);
  const util::RandomPermutation perm(3, 1);
  array.build_ring(perm, [](std::uint32_t) { return true; });
  array.remove(1);
  array.remove(1);
  EXPECT_EQ(array.ring_size(), 2u);
}

TEST(DcbArray, RemoveAllInRandomOrder) {
  DcbArray array(100);
  const util::RandomPermutation perm(100, 9);
  array.build_ring(perm, [](std::uint32_t) { return true; });
  // Remove in array order (different from ring order) and verify
  // consistency at every step.
  for (std::uint32_t i = 0; i < 100; ++i) {
    array.remove(i);
    ASSERT_EQ(array.ring_size(), 99u - i);
    if (array.ring_size() > 0) {
      ASSERT_EQ(walk_ring(array).size(), array.ring_size());
    }
  }
  EXPECT_EQ(array.head(), DcbArray::kNone);
}

TEST(DcbArray, RebuildAfterRemovalRestoresRing) {
  // The discovery-optimized mode re-threads the ring per extra scan.
  DcbArray array(32);
  const util::RandomPermutation perm(32, 11);
  array.build_ring(perm, [](std::uint32_t) { return true; });
  for (std::uint32_t i = 0; i < 32; i += 2) array.remove(i);
  EXPECT_EQ(array.ring_size(), 16u);
  array.build_ring(perm, [](std::uint32_t) { return true; });
  EXPECT_EQ(array.ring_size(), 32u);
  EXPECT_EQ(walk_ring(array).size(), 32u);
}

TEST(DcbArray, MemoryAccountingMatchesPaper) {
  // §3.4: ~900 MB for 2^24 DCBs with mutexes; the packed layout (host octet
  // only, 24-bit links, spinlock folded into the flags byte) is the
  // full-scale variant.  (Small arrays here; the full-size accounting runs
  // in bench/sec34_memory_footprint.)
  EXPECT_EQ(DcbArray(1000).memory_bytes(), 1000 * sizeof(Dcb));
  EXPECT_EQ(MutexDcbArray(1000).memory_bytes(), 1000 * sizeof(MutexDcb));
  EXPECT_LT(sizeof(Dcb), sizeof(PaddedDcb));
  EXPECT_LT(sizeof(PaddedDcb), sizeof(MutexDcb));
  EXPECT_LE(sizeof(Dcb), 12u);  // octet + 3 bytes state + 2x24-bit links + flags
}

TEST(SpinLock, MutualExclusionUnderContention) {
  SpinLock lock;
  int counter = 0;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::lock_guard guard(lock);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter, 4 * kPerThread);
}

TEST(Dcb, PaperFieldsPresent) {
  // Listing 1's layout: destination, backward/forward hops, horizon, links.
  Dcb dcb;
  dcb.set_dest_octet(0x04);
  dcb.set_next_backward_hop(16);
  dcb.set_next_forward_hop(17);
  dcb.set_forward_horizon(21);
  dcb.set_next_index(1);
  dcb.set_previous_index(2);
  EXPECT_EQ(dcb.dest_octet(), 0x04);
  EXPECT_EQ(dcb.next_backward_hop(), 16);
  EXPECT_EQ(dcb.next_forward_hop(), 17);
  EXPECT_EQ(dcb.forward_horizon(), 21);
  EXPECT_EQ(dcb.next_index(), 1u);
  EXPECT_EQ(dcb.previous_index(), 2u);
}

}  // namespace
}  // namespace flashroute::core
