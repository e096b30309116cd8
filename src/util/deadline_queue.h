// FIFO deadline queue for deadlines pushed in non-decreasing order.
//
// Two engines keep per-probe deadlines of the form `send instant + one
// constant timeout`: the Tracer's retransmission layer (re-send a
// main-phase probe whose response missed its window, DESIGN.md §9) and the
// Scamper baseline's probe timeouts.  The send instant is
// ProbeSender::now(), which never goes back, so each engine pushes its
// deadlines in non-decreasing order.  For such a stream a FIFO is a
// priority queue: the front holds the earliest deadline, and expiring from
// the front yields (deadline, insertion) order, ties included — the order
// util::TimingWheel establishes by sorting, and the order virtual-time
// replays need to stay byte-identical across runs, shards and resumes.
//
// Layout: one power-of-two ring of (deadline, payload) entries, read from
// the head and written at the tail.  The ring doubles when a push finds it
// full, copying the entries out in queue order; after it reaches the
// high-water count of pending entries, steady state allocates nothing.
//
// The payloads name per-destination state the caller is about to touch at
// random (answered bits, retransmit budgets), so expire_due hands a
// `prefetch` hook the payload kLookAhead entries behind the one it
// expires: by the time that entry comes due, its state is in cache.  This
// is the queue's counterpart of BasicDcbArray::walk_ring's `also_prefetch`.
//
// The queue is externally synchronized (owned per engine, like the DCB
// ring).  expire_due must not be re-entered from its callback; pushing
// from the callback is fine (retransmission chains), but the new entries
// wait for the next expire_due call even when already due.

#pragma once

#include <cassert>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "util/annotations.h"
#include "util/clock.h"

namespace flashroute::util {

template <typename Payload>
class DeadlineQueue {
 public:
  /// How many entries behind the expiring one the prefetch hook looks.
  static constexpr std::size_t kLookAhead = 8;

  [[nodiscard]] FR_HOT bool empty() const noexcept { return size_ == 0; }
  FR_HOT std::size_t size() const noexcept { return size_; }

  /// Drops every pending entry; the ring keeps its capacity.
  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

  /// Appends `payload` due at `deadline`, which must be no earlier than the
  /// newest pending deadline.
  FR_HOT void push(Nanos deadline, const Payload& payload) {
    assert(size_ == 0 || ring_[(head_ + size_ - 1) & mask_].deadline <=
                             deadline);
    if (size_ == ring_.size()) {
      // fr-lint: allow(hot-call): the ring grows (allocates) only until it
      // holds the high-water count of pending entries; after that every
      // push reuses a slot an expiry freed and steady state never
      // reallocates.
      grow();
    }
    ring_[(head_ + size_) & mask_] = Entry{deadline, payload};
    ++size_;
  }

  /// Earliest pending deadline, or nullopt when the queue is empty.
  [[nodiscard]] FR_HOT std::optional<Nanos> next_deadline() const noexcept {
    if (size_ == 0) return std::nullopt;
    return ring_[head_].deadline;
  }

  /// Expires, front first, every entry that was pending at the call and
  /// has deadline <= now: fn(payload) in (deadline, insertion) order.  Each
  /// expiry first calls prefetch(payload) on the entry kLookAhead behind
  /// the one expiring, when there is one.
  template <typename Fn, typename Prefetch>
  FR_HOT void expire_due(Nanos now, Fn&& fn, Prefetch&& prefetch) {
    for (std::size_t pending = size_; pending > 0; --pending) {
      const Entry& front = ring_[head_];
      if (front.deadline > now) return;
      // Copied out before the pop: fn may push into the freed slot.
      const Payload payload = front.payload;
      if (kLookAhead < size_) {
        // fr-lint: allow(hot-call): caller-supplied prefetch of per-payload
        // state; a hint, like walk_ring's.
        prefetch(ring_[(head_ + kLookAhead) & mask_].payload);
      }
      head_ = (head_ + 1) & mask_;
      --size_;
      // fr-lint: allow(hot-call): caller-supplied expiry action; both users
      // (Tracer retransmission, Scamper timeout advance) are hot-path
      // members of their engines.
      fn(payload);
    }
  }
  template <typename Fn>
  FR_HOT void expire_due(Nanos now, Fn&& fn) {
    expire_due(now, std::forward<Fn>(fn), [](const Payload&) {});
  }

 private:
  struct Entry {
    Nanos deadline;
    Payload payload;
  };

  /// Doubles the ring (64 entries at first), laying the pending entries out
  /// from slot 0 in queue order.
  void grow() {
    std::vector<Entry> bigger(ring_.empty() ? 64 : 2 * ring_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = ring_[(head_ + i) & mask_];
    }
    ring_ = std::move(bigger);
    mask_ = ring_.size() - 1;
    head_ = 0;
  }

  std::vector<Entry> ring_;  // capacity: zero or a power of two
  std::size_t mask_ = 0;     // ring_.size() - 1 once allocated
  std::size_t head_ = 0;     // slot of the earliest pending entry
  std::size_t size_ = 0;
};

}  // namespace flashroute::util
