// The control-state structure of §3.4 / Fig 5: a flat array of DCBs indexed
// by /24 prefix, with a circular doubly linked list overlaid in random
// permutation order.
//
// The array gives the receiving thread O(1) access to the DCB of any arrived
// response (index = destination /24 prefix - first prefix of the scanned
// range); the overlaid ring lets the sending thread cycle through the
// not-yet-finished destinations in shuffled order and unlink completed ones
// in O(1).  "Prefixes excluded from the scan still occupy their slots."
//
// The shuffled order makes every step of a ring walk a cache miss once the
// array outgrows the caches (44 MiB at 2^22).  walk_ring, the only ring
// walk, prefetches each successor's DCB before it visits the current one,
// so the miss overlaps the visit's work.
//
// The array is templated on the DCB layout: `DcbArray` uses the packed
// 11-byte `Dcb` (24-bit links — exactly enough for 2^24 slots, so the array
// itself enforces the full-IPv4 bound), `MutexDcbArray` the paper-faithful
// padded `MutexDcb` for the §3.4 memory-footprint reproduction.
//
// NUMA note: the vector is only default-constructed here; pages are
// first-touched by build_ring/initialize on whichever thread drives the
// scan.  ShardedTracer constructs each shard's Tracer (and therefore its
// DcbArray) inside the owning worker thread, so per-shard DCB segments are
// placed on the worker's local node without any explicit binding.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/dcb.h"
#include "util/annotations.h"
#include "util/permutation.h"
#include "util/prefetch.h"

namespace flashroute::core {

template <typename DcbT>
class BasicDcbArray {
 public:
  using DcbType = DcbT;
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  explicit BasicDcbArray(std::uint32_t size) : dcbs_(size) {}

  std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(dcbs_.size());
  }
  DcbType& operator[](std::uint32_t index) noexcept { return dcbs_[index]; }
  const DcbType& operator[](std::uint32_t index) const noexcept {
    return dcbs_[index];
  }

  /// Seeds a fresh keyed permutation over [0, size()) and threads the ring
  /// with it.  Sharded scans derive `seed` from (scan seed, shard id), so
  /// every shard walks its own deterministic shuffle regardless of how many
  /// worker threads drive the scan.
  template <typename Include>
  std::uint32_t build_ring(std::uint64_t seed, Include&& include) {
    const util::RandomPermutation permutation(size(), seed);
    return build_ring(permutation, std::forward<Include>(include));
  }

  /// (Re)threads the ring through every index `include` admits, in the order
  /// of `permutation` (which must cover [0, size())).  Returns the ring size.
  /// Excluded slots are marked kRemoved but keep occupying their array slot.
  template <typename Include>
  std::uint32_t build_ring(const util::RandomPermutation& permutation,
                           Include&& include) {
    head_ = kNone;
    ring_size_ = 0;
    std::uint32_t tail = 0;  // only read once head_ is set (then valid)
    for (std::uint64_t rank = 0; rank < permutation.size(); ++rank) {
      const auto index = static_cast<std::uint32_t>(permutation(rank));
      DcbType& dcb = dcbs_[index];
      if (!include(index)) {
        dcb.set_flag(DcbType::kRemoved);
        continue;
      }
      dcb.clear_flag(DcbType::kRemoved);
      if (head_ == kNone) {
        head_ = tail = index;
        dcb.set_next_index(index);
        dcb.set_previous_index(index);
      } else {
        dcb.set_previous_index(tail);
        dcb.set_next_index(head_);
        dcbs_[tail].set_next_index(index);
        dcbs_[head_].set_previous_index(index);
        tail = index;
      }
      ++ring_size_;
    }
    return ring_size_;
  }

  FR_HOT std::uint32_t head() const noexcept { return head_; }
  FR_HOT std::uint32_t ring_size() const noexcept { return ring_size_; }
  FR_HOT std::uint32_t next(std::uint32_t index) const noexcept {
    return dcbs_[index].next_index();
  }

  /// Visits each of the ring's current members once, from the head in ring
  /// order, as `visit(index)`.  A visit may remove its own member (and only
  /// that one), so the successor's link is read before the visit.  The
  /// successor's DCB is then prefetched at both ends, because a packed DCB
  /// can straddle two cache lines, and `also_prefetch(successor)` lets the
  /// caller prefetch its own per-index state alongside.
  template <typename Visit, typename AlsoPrefetch>
  FR_HOT void walk_ring(Visit&& visit, AlsoPrefetch&& also_prefetch) {
    std::uint32_t index = head_;
    const std::uint32_t count = ring_size_;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t successor = dcbs_[index].next_index();
      const auto* bytes = reinterpret_cast<const char*>(&dcbs_[successor]);
      util::prefetch(bytes);
      util::prefetch(bytes + sizeof(DcbType) - 1);
      // fr-lint: allow(hot-call): caller-supplied prefetch of per-index
      // state; a hint, like the DCB prefetches above.
      also_prefetch(successor);
      // fr-lint: allow(hot-call): caller-supplied visit; every caller on
      // the probe path (the Tracer's main rounds) is itself FR_HOT.
      visit(index);
      index = successor;
    }
  }
  template <typename Visit>
  FR_HOT void walk_ring(Visit&& visit) {
    walk_ring(std::forward<Visit>(visit), [](std::uint32_t) {});
  }
  bool in_ring(std::uint32_t index) const noexcept {
    return (dcbs_[index].flags() & DcbType::kRemoved) == 0 && ring_size_ > 0;
  }

  /// Repositions the ring cursor (checkpoint resume: the head drifts away
  /// from the permutation start as destinations retire, so a resumed scan
  /// must restore the exact cursor, not the rebuilt ring's first member).
  /// `index` must be a current ring member; kNone empties the cursor.
  void set_head(std::uint32_t index) noexcept {
    if (index != kNone && (dcbs_[index].flags() & DcbType::kRemoved) != 0) {
      return;
    }
    head_ = index;
  }

  /// Unlinks a completed destination from future rounds (sender-side only).
  FR_HOT void remove(std::uint32_t index) noexcept {
    DcbType& dcb = dcbs_[index];
    if ((dcb.flags() & DcbType::kRemoved) != 0) return;
    dcb.set_flag(DcbType::kRemoved);
    if (ring_size_ == 1) {
      head_ = kNone;
    } else {
      dcbs_[dcb.previous_index()].set_next_index(dcb.next_index());
      dcbs_[dcb.next_index()].set_previous_index(dcb.previous_index());
      if (head_ == index) head_ = dcb.next_index();
    }
    --ring_size_;
  }

  /// Bytes of control state — the §3.4 memory-footprint accounting.
  std::size_t memory_bytes() const noexcept {
    return dcbs_.size() * sizeof(DcbType);
  }

 private:
  std::vector<DcbType> dcbs_;
  std::uint32_t head_ = kNone;
  std::uint32_t ring_size_ = 0;
};

using DcbArray = BasicDcbArray<Dcb>;
using MutexDcbArray = BasicDcbArray<MutexDcb>;

}  // namespace flashroute::core
