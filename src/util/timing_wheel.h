// Deterministic hashed timing wheel for virtual-time deadlines.
//
// The simulator's delivery queue (sim::SimScanRuntime) parks every
// in-flight response until its arrival time, expires them in batches, and
// needs the earliest pending arrival to size its batches.  Arrival times
// are not monotone in send order (each response's RTT depends on its hop
// and jitter), so a FIFO cannot serve it; the engines' own per-probe
// deadlines are monotone and use util::DeadlineQueue instead.  The wheel
// schedules in O(1) and, unlike a std::priority_queue, expires in
// (deadline, insertion-sequence) order — a total order independent of
// container internals — so virtual-time replays are byte-identical across
// runs, shard decompositions, and resumes.
//
// Layout: 2^slot_bits slots of `tick` nanoseconds each.  An entry parks in
// slot (deadline / tick) mod slots; the cursor advances one tick at a time
// and drains each slot it passes.  Entries whose rotation has not come
// around yet (deadline more than one rotation ahead) stay parked in their
// slot until it does.  Entries live in one shared node pool threaded into
// intrusive per-slot lists, so steady state allocates nothing: the pool
// reaches the high-water count of concurrently pending entries once, after
// which freed nodes are recycled no matter which slots later deadlines
// happen to hash into (per-slot vectors would re-allocate every time the
// cursor wandered onto a slot it had not warmed yet).
//
// The wheel is externally synchronized (owned per runtime).  expire_due
// must not be re-entered from its callback; scheduling new entries from
// the callback is fine.

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/annotations.h"
#include "util/clock.h"

namespace flashroute::util {

template <typename Payload>
class TimingWheel {
 public:
  /// `tick` is the slot granularity; one rotation spans tick << slot_bits
  /// of virtual time.  Pick tick so the common deadline horizon sits well
  /// inside a rotation.
  explicit TimingWheel(Nanos tick, int slot_bits = 7)
      : tick_(tick > 0 ? tick : 1),
        mask_((std::size_t{1} << slot_bits) - 1),
        heads_(std::size_t{1} << slot_bits, kNil),
        occupied_(((std::size_t{1} << slot_bits) + 63) / 64) {}

  [[nodiscard]] FR_HOT bool empty() const noexcept { return size_ == 0; }
  FR_HOT std::size_t size() const noexcept { return size_; }

  /// Schedules `payload` to expire at `deadline`.  Deadlines at or before
  /// the cursor land in the next expire_due batch.
  FR_HOT void schedule(Nanos deadline, const Payload& payload) {
    const std::int64_t tick_index = std::max(deadline / tick_, cursor_);
    const std::size_t slot = static_cast<std::size_t>(tick_index) & mask_;
    std::uint32_t node;
    if (free_head_ != kNil) {
      node = free_head_;
      free_head_ = pool_[node].next;
      pool_[node] = Entry{deadline, seq_++, tick_index, heads_[slot], payload};
    } else {
      node = static_cast<std::uint32_t>(pool_.size());
      // fr-lint: allow(hot-banned): the pool grows only until it holds the
      // high-water count of concurrently pending entries; after that every
      // schedule recycles a freed node and steady state never reallocates.
      pool_.push_back(Entry{deadline, seq_++, tick_index, heads_[slot], payload});
    }
    heads_[slot] = node;
    occupied_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    ++size_;
  }

  /// Earliest pending deadline, or nullopt when the wheel is empty.
  /// Exact: the first slot within one rotation of the cursor that holds an
  /// in-rotation entry bounds the minimum (later in-rotation slots hold
  /// strictly later ticks); when every pending entry is parked beyond the
  /// horizon, falls back to a full scan.  Both passes walk the occupancy
  /// bitmap (one bit per slot, maintained by schedule/expire), so a sparse
  /// wheel answers in a handful of word reads instead of touching every
  /// slot vector — this is on the batch-sizing path of the sim runtime,
  /// queried once per batch.
  [[nodiscard]] FR_HOT std::optional<Nanos> next_deadline() const noexcept {
    if (size_ == 0) return std::nullopt;
    const std::size_t num_slots = mask_ + 1;
    const std::size_t start = static_cast<std::size_t>(cursor_) & mask_;
    // In-rotation pass: occupied slots in cursor order (wrapping once).
    for (std::size_t d = 0; d < num_slots;) {
      const std::size_t slot = (start + d) & mask_;
      const std::uint64_t word = occupied_[slot >> 6] >> (slot & 63);
      if (word == 0) {
        d += 64 - (slot & 63);
        continue;
      }
      const auto skip = static_cast<std::size_t>(std::countr_zero(word));
      if (d + skip >= num_slots) break;  // wrapped back into visited slots
      const std::int64_t t = cursor_ + static_cast<std::int64_t>(d + skip);
      bool found = false;
      Nanos best = 0;
      for (std::uint32_t node = heads_[(slot + skip) & mask_]; node != kNil;
           node = pool_[node].next) {
        const Entry& entry = pool_[node];
        if (entry.tick_index == t && (!found || entry.deadline < best)) {
          best = entry.deadline;
          found = true;
        }
      }
      if (found) return best;
      d += skip + 1;
    }
    // Beyond-horizon fallback: global minimum over occupied slots.
    bool found = false;
    Nanos best = 0;
    for (std::size_t w = 0; w < occupied_.size(); ++w) {
      std::uint64_t word = occupied_[w];
      while (word != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        for (std::uint32_t node = heads_[(w << 6) + bit]; node != kNil;
             node = pool_[node].next) {
          const Entry& entry = pool_[node];
          if (!found || entry.deadline < best) {
            best = entry.deadline;
            found = true;
          }
        }
      }
    }
    return found ? std::optional<Nanos>(best) : std::nullopt;
  }

  /// Expires every entry with deadline <= now, invoking fn(payload) in
  /// (deadline, seq) order.  `now` must be non-decreasing across calls.
  template <typename Fn>
  FR_HOT void expire_due(Nanos now, Fn&& fn) {
    const std::int64_t target = now / tick_;
    if (target < cursor_) return;
    if (size_ == 0) {
      cursor_ = target;
      return;
    }
    while (cursor_ <= target) {
      expire_slot(now, fn);
      if (size_ == 0) {
        cursor_ = target;
        return;
      }
      if (cursor_ == target) return;
      ++cursor_;
    }
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Entry {
    Nanos deadline;
    std::uint64_t seq;
    std::int64_t tick_index;  // the slot rotation this entry belongs to
    std::uint32_t next;       // next node in the slot list or the free list
    Payload payload;
  };

  template <typename Fn>
  FR_HOT void expire_slot(Nanos now, Fn&& fn) {
    const std::size_t index = static_cast<std::size_t>(cursor_) & mask_;
    if (heads_[index] == kNil) {
      occupied_[index >> 6] &= ~(std::uint64_t{1} << (index & 63));
      return;
    }
    // Unlink due entries into the scratch batch first, so the callback may
    // schedule new entries (even into this very slot) without invalidating
    // the iteration.
    batch_.clear();
    std::uint32_t* link = &heads_[index];
    std::uint32_t node = heads_[index];
    while (node != kNil) {
      Entry& entry = pool_[node];
      const std::uint32_t next = entry.next;
      if (entry.tick_index == cursor_ && entry.deadline <= now) {
        // fr-lint: allow(hot-banned): batch_ keeps its high-water capacity
        // across expiry batches; steady state never reallocates.
        batch_.push_back(entry);
        *link = next;
        entry.next = free_head_;
        free_head_ = node;
      } else {
        link = &entry.next;
      }
      node = next;
    }
    if (heads_[index] == kNil) {
      occupied_[index >> 6] &= ~(std::uint64_t{1} << (index & 63));
    }
    if (batch_.empty()) return;
    size_ -= batch_.size();
    // fr-lint: allow(hot-call): in-place sort of the (small) due batch —
    // no allocation; establishes the deterministic (deadline, seq) order.
    std::sort(batch_.begin(), batch_.end(),
              [](const Entry& a, const Entry& b) {
                return a.deadline != b.deadline ? a.deadline < b.deadline
                                                : a.seq < b.seq;
              });
    for (const Entry& entry : batch_) {
      // fr-lint: allow(hot-call): caller-supplied expiry action; the sim
      // runtime's delivery of a due response to the engine's sink.
      fn(entry.payload);
    }
  }

  Nanos tick_;
  std::size_t mask_;
  std::vector<Entry> pool_;             // shared node storage, recycled
  std::vector<std::uint32_t> heads_;    // per-slot intrusive list head
  std::vector<std::uint64_t> occupied_;  // bit per slot: list non-empty
  std::vector<Entry> batch_;  // scratch for the current expiry batch
  std::uint32_t free_head_ = kNil;
  std::int64_t cursor_ = 0;   // next tick index to drain
  std::uint64_t seq_ = 0;
  std::size_t size_ = 0;
};

}  // namespace flashroute::util
