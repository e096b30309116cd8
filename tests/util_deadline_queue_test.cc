// Tests for the FIFO deadline queue (util/deadline_queue.h): expiry in
// (deadline, insertion) order matching util::TimingWheel on monotone
// streams, growth while the ring is wrapped, pushes from the expiry
// callback, the look-ahead prefetch hook, and no allocation once the ring
// holds the high-water count of pending entries.

#include "util/deadline_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "thread_allocations.h"
#include "util/timing_wheel.h"

namespace flashroute::util {
namespace {

std::vector<int> expire_all(DeadlineQueue<int>& queue, Nanos now) {
  std::vector<int> fired;
  queue.expire_due(now, [&fired](int payload) { fired.push_back(payload); });
  return fired;
}

TEST(DeadlineQueue, ExpiresFrontFirstUpToNow) {
  DeadlineQueue<int> queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.next_deadline().has_value());
  queue.push(100, 1);
  queue.push(200, 2);
  queue.push(200, 3);  // a tie keeps insertion order
  queue.push(300, 4);
  EXPECT_EQ(queue.size(), 4u);
  EXPECT_EQ(queue.next_deadline(), 100);

  EXPECT_EQ(expire_all(queue, 99), (std::vector<int>{}));
  EXPECT_EQ(expire_all(queue, 250), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.next_deadline(), 300);
  EXPECT_EQ(expire_all(queue, 1000), (std::vector<int>{4}));
  EXPECT_TRUE(queue.empty());
}

TEST(DeadlineQueue, ClearDropsPendingEntries) {
  DeadlineQueue<int> queue;
  for (int i = 0; i < 100; ++i) queue.push(i, i);
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(expire_all(queue, 1000), (std::vector<int>{}));
  queue.push(5, 7);  // a cleared queue accepts any deadline again
  EXPECT_EQ(expire_all(queue, 5), (std::vector<int>{7}));
}

TEST(DeadlineQueue, MatchesTimingWheelOnMonotoneStreamsWithTies) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    DeadlineQueue<int> queue;
    TimingWheel<int> wheel(/*tick=*/16, /*slot_bits=*/5);
    std::uint64_t rng = 0x9E3779B97F4A7C15ull * seed;  // xorshift
    const auto next = [&rng] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };

    Nanos now = 0;
    Nanos newest = 0;
    int seq = 0;
    // Like the engines: a later deadline than every pending one, often
    // tied with the newest.
    const auto push_both = [&](Nanos floor) {
      newest = std::max(newest, floor) + static_cast<Nanos>(next() % 3) * 5;
      queue.push(newest, seq);
      wheel.schedule(newest, seq);
      ++seq;
    };
    for (int step = 0; step < 400; ++step) {
      const int to_add = static_cast<int>(next() % 6);
      for (int i = 0; i < to_add; ++i) push_both(now);
      now += static_cast<Nanos>(next() % 40);

      // Some expiries re-arm (a retransmission): a new deadline past now,
      // which neither container may fire within this call.
      std::vector<int> from_queue;
      std::vector<int> from_wheel;
      std::vector<int> rearm;
      queue.expire_due(now, [&](int p) {
        from_queue.push_back(p);
        if (p % 3 == 0) rearm.push_back(p);
      });
      wheel.expire_due(now, [&](int p) { from_wheel.push_back(p); });
      ASSERT_EQ(from_queue, from_wheel) << "seed " << seed << " step " << step;
      for (std::size_t i = 0; i < rearm.size(); ++i) push_both(now + 1);

      ASSERT_EQ(queue.size(), wheel.size());
      ASSERT_EQ(queue.next_deadline(), wheel.next_deadline());
    }
  }
}

TEST(DeadlineQueue, GrowingWhileWrappedKeepsTheOrder) {
  DeadlineQueue<int> queue;
  int pushed = 0;
  int expected_next = 0;
  // Fill the initial 64-entry ring, expire its first 40 so the head sits
  // mid-ring, then push past the capacity: the tail wraps around slot 0
  // before the ring doubles.
  for (; pushed < 64; ++pushed) queue.push(pushed, pushed);
  for (const int fired : expire_all(queue, 39)) {
    EXPECT_EQ(fired, expected_next++);
  }
  ASSERT_EQ(expected_next, 40);
  for (; pushed < 300; ++pushed) queue.push(pushed, pushed);
  EXPECT_EQ(queue.size(), 260u);
  EXPECT_EQ(queue.next_deadline(), 40);
  for (const int fired : expire_all(queue, 1000)) {
    EXPECT_EQ(fired, expected_next++);
  }
  EXPECT_EQ(expected_next, 300);
  EXPECT_TRUE(queue.empty());
}

TEST(DeadlineQueue, PushesFromTheCallbackWaitForTheNextCall) {
  DeadlineQueue<int> queue;
  queue.push(100, 1);
  queue.push(150, 2);
  std::vector<int> fired;
  queue.expire_due(500, [&](int payload) {
    fired.push_back(payload);
    queue.push(200 + payload, 10 + payload);  // already due at 500
  });
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(expire_all(queue, 500), (std::vector<int>{11, 12}));
}

TEST(DeadlineQueue, PushesFromTheCallbackSurviveGrowth) {
  DeadlineQueue<int> queue;
  for (int i = 0; i < 64; ++i) queue.push(i, i);  // a full 64-entry ring
  std::vector<int> fired;
  int next_payload = 64;
  queue.expire_due(0, [&](int payload) {
    fired.push_back(payload);
    // Two pushes per expiry: the second outgrows the ring mid-call.
    queue.push(100, next_payload++);
    queue.push(100, next_payload++);
  });
  EXPECT_EQ(fired, (std::vector<int>{0}));
  std::vector<int> expected;
  for (int i = 1; i < next_payload; ++i) expected.push_back(i);
  EXPECT_EQ(expire_all(queue, 100), expected);
}

TEST(DeadlineQueue, PrefetchSeesThePayloadTheLookAheadBehind) {
  constexpr int kEntries = 20;
  constexpr auto kAhead = static_cast<int>(DeadlineQueue<int>::kLookAhead);
  DeadlineQueue<int> queue;
  for (int i = 0; i < kEntries; ++i) queue.push(i, i);
  for (int i = 0; i < kEntries; ++i) {
    std::vector<int> fired;
    std::vector<int> prefetched;
    queue.expire_due(
        i, [&](int payload) { fired.push_back(payload); },
        [&](int payload) { prefetched.push_back(payload); });
    EXPECT_EQ(fired, (std::vector<int>{i}));
    if (i + kAhead < kEntries) {
      EXPECT_EQ(prefetched, (std::vector<int>{i + kAhead}));
    } else {
      EXPECT_TRUE(prefetched.empty()) << "no entry that far behind " << i;
    }
  }
}

TEST(DeadlineQueue, NothingAllocatedPastTheHighWaterMark) {
  DeadlineQueue<int> queue;
  Nanos now = 0;
  // A retransmission-shaped load: every step pushes a batch due one
  // timeout later and expires what came due, re-arming one in four.
  const auto cycle = [&] {
    for (int step = 0; step < 2000; ++step) {
      for (int i = 0; i < 4; ++i) queue.push(now + 1000, step);
      ++now;
      queue.expire_due(now, [&](int payload) {
        if (payload % 4 == 0) queue.push(now + 1000, payload + 1);
      });
    }
    queue.expire_due(now + 10'000, [](int) {});
  };
  cycle();  // warmup: grows the ring to the high-water count
  ASSERT_TRUE(queue.empty());

  const std::uint64_t before = g_thread_allocations;
  cycle();
  const std::uint64_t after = g_thread_allocations;
  EXPECT_EQ(after - before, 0u);
}

}  // namespace
}  // namespace flashroute::util
