// Destination Control Block — the per-destination probing state of §3.4.
//
// The layout mirrors the paper's Listing 1: the destination address, the
// next backward/forward hop TTLs and the forward-probing horizon, plus the
// intrusive circular doubly-linked-list indices that overlay the DCB array
// (Fig 5).  Two variants share one accessor API:
//
//  * `Dcb` — the packed full-scale layout (11 bytes).  The destination is
//    stored as its in-/24 host octet only (the /24 prefix *is* the array
//    index, so storing it again would be redundant), the ring links are
//    24-bit indices (exactly enough for the 2^24 slots of a full-IPv4 scan),
//    and the paper's suggested spinlock ("primitive atomic operations (such
//    as a spinlock over the test-and-set instruction)") is folded into a
//    spare bit of the atomic flags byte — the lock costs no storage at all.
//    2^24 DCBs fit in 176 MiB, versus ~900 MB for the paper's mutex layout.
//
//  * `BasicDcb<Lock>` — the paper-faithful padded layout with a full 32-bit
//    destination, 32-bit links and a discrete lock member.  `MutexDcb`
//    (std::mutex, the paper's Listing 1) stays selectable so
//    bench/sec34_memory_footprint can reproduce the ~900 MB figure;
//    `PaddedDcb` (1-byte test-and-set spinlock) is the intermediate step the
//    paper proposes.
//
// Every flag mutation on the packed variant is an atomic read-modify-write:
// the lock bit shares the byte, so a plain store would erase a lock
// acquisition made by another thread.  §3.4's receiver thread updates DCBs
// while the sender walks them; here every runtime runs the response sink on
// the engine thread, so nothing contends, but the locks and atomics keep the
// paper's design intact.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

#include "util/annotations.h"

namespace flashroute::core {

/// 1-byte test-and-set spinlock (the paper's suggested optimization).
/// Meets BasicLockable, so std::lock_guard works.  Deliberately not an
/// annotated capability: it only ever lives inside a BasicDcb, whose own
/// FR_ACQUIRE/FR_RELEASE contract is the one capability per DCB the
/// thread-safety analysis tracks (a second, nested capability would make
/// every BasicDcb::lock body a false "capability still held" diagnostic).
class SpinLock {
 public:
  FR_HOT void lock() noexcept {
    while (flag_.test_and_set(std::memory_order_acquire)) {
      // Contention is "highly unlikely" (§3.4): only when the sender visits
      // a destination at the instant one of its responses arrives.
    }
  }
  FR_HOT void unlock() noexcept { flag_.clear(std::memory_order_release); }

 private:
  // fr-atomic: 1-byte test-and-set spinlock flag (acquire/release pair)
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

/// Packed full-scale DCB: 11 bytes, lock folded into the flags byte.
/// Meets BasicLockable (std::lock_guard locks the DCB itself).
///
/// The DCB is itself an annotated capability (DESIGN.md §13): lock/unlock
/// and try_lock carry acquire/release contracts the clang thread-safety
/// analysis checks at every manual call site.  The data fields are
/// deliberately *not* FR_GUARDED_BY the capability: outside the concurrent
/// scan phase (setup, checkpoint restore, single-threaded result drains)
/// they are legitimately accessed unlocked.  The locks are the paper's §3.4
/// design, "sender and receiver lock only when both may touch the same /24
/// at once", which the model litmus test (tests/model_dcb_test.cc) proves
/// interleaving-exhaustively.  Nothing contends for them in this repo:
/// every runtime runs the response sink on the engine thread
/// (core/threaded_runtime.h), so an engine's sender and receive path never
/// overlap.
class FR_CAPABILITY("dcb") Dcb {
 public:
  // Flag bits (the top bit is the spinlock; never visible through flags()).
  static constexpr std::uint8_t kDestReached = 0x01;  // got host unreachable
  static constexpr std::uint8_t kRemoved = 0x02;      // unlinked from ring
  static constexpr std::uint8_t kLocked = 0x80;       // spinlock bit

  // --- BasicLockable: spinlock over the flags byte's top bit ---------------
  FR_HOT void lock() noexcept FR_ACQUIRE() {
    while ((flags_.fetch_or(kLocked, std::memory_order_acquire) & kLocked) !=
           0) {
      // Spin: contention is "highly unlikely" (§3.4).
    }
  }
  FR_HOT void unlock() noexcept FR_RELEASE() {
    flags_.fetch_and(static_cast<std::uint8_t>(~kLocked),
                     std::memory_order_release);
  }
  /// Single-attempt claim: true iff the lock bit flipped 0→1 here.
  [[nodiscard]] FR_HOT bool try_lock() noexcept FR_TRY_ACQUIRE(true) {
    return (flags_.fetch_or(kLocked, std::memory_order_acquire) & kLocked) ==
           0;
  }

  // --- Destination: host octet only; the /24 prefix is the array index -----
  FR_HOT std::uint8_t dest_octet() const noexcept { return dest_octet_; }
  FR_HOT void set_dest_octet(std::uint8_t octet) noexcept {
    dest_octet_ = octet;
  }

  // --- Probing progress (Listing 1) ----------------------------------------
  FR_HOT std::uint8_t next_backward_hop() const noexcept {
    return next_backward_hop_;
  }
  FR_HOT void set_next_backward_hop(std::uint8_t ttl) noexcept {
    next_backward_hop_ = ttl;
  }
  FR_HOT std::uint8_t next_forward_hop() const noexcept {
    return next_forward_hop_;
  }
  FR_HOT void set_next_forward_hop(std::uint8_t ttl) noexcept {
    next_forward_hop_ = ttl;
  }
  FR_HOT std::uint8_t forward_horizon() const noexcept {
    return forward_horizon_;
  }
  FR_HOT void set_forward_horizon(std::uint8_t ttl) noexcept {
    forward_horizon_ = ttl;
  }

  // --- Flags (always atomic RMW: the lock bit shares the byte) -------------
  FR_HOT std::uint8_t flags() const noexcept {
    return static_cast<std::uint8_t>(flags_.load(std::memory_order_relaxed) &
                                     ~kLocked);
  }
  FR_HOT void set_flag(std::uint8_t mask) noexcept {
    flags_.fetch_or(static_cast<std::uint8_t>(mask & ~kLocked),
                    std::memory_order_relaxed);
  }
  FR_HOT void clear_flag(std::uint8_t mask) noexcept {
    flags_.fetch_and(static_cast<std::uint8_t>(~(mask & ~kLocked)),
                     std::memory_order_relaxed);
  }
  /// Clears every flag bit except those in `mask` (and the lock bit).
  FR_HOT void retain_flags(std::uint8_t mask) noexcept {
    flags_.fetch_and(static_cast<std::uint8_t>(mask | kLocked),
                     std::memory_order_relaxed);
  }
  /// Overwrites the flag bits (checkpoint restore; the lock bit is spared).
  FR_HOT void store_flags(std::uint8_t value) noexcept {
    flags_.fetch_and(kLocked, std::memory_order_relaxed);
    flags_.fetch_or(static_cast<std::uint8_t>(value & ~kLocked),
                    std::memory_order_relaxed);
  }

  // --- Ring links: 24-bit indices (Fig 5) ----------------------------------
  FR_HOT std::uint32_t next_index() const noexcept { return load24(next_); }
  FR_HOT void set_next_index(std::uint32_t index) noexcept {
    store24(next_, index);
  }
  FR_HOT std::uint32_t previous_index() const noexcept {
    return load24(prev_);
  }
  FR_HOT void set_previous_index(std::uint32_t index) noexcept {
    store24(prev_, index);
  }

 private:
  FR_HOT static std::uint32_t load24(const std::uint8_t (&b)[3]) noexcept {
    return std::uint32_t{b[0]} | (std::uint32_t{b[1]} << 8) |
           (std::uint32_t{b[2]} << 16);
  }
  FR_HOT static void store24(std::uint8_t (&b)[3],
                             std::uint32_t index) noexcept {
    b[0] = static_cast<std::uint8_t>(index);
    b[1] = static_cast<std::uint8_t>(index >> 8);
    b[2] = static_cast<std::uint8_t>(index >> 16);
  }

  std::uint8_t dest_octet_ = 0;         ///< host octet within this /24
  std::uint8_t next_backward_hop_ = 0;  ///< 0 = backward probing complete
  std::uint8_t next_forward_hop_ = 0;
  std::uint8_t forward_horizon_ = 0;    ///< max_TTL_responded + GapLimit
  std::uint8_t next_[3] = {0, 0, 0};    ///< 24-bit ring successor index
  std::uint8_t prev_[3] = {0, 0, 0};    ///< 24-bit ring predecessor index
  // fr-atomic: flags byte; top bit is the folded spinlock (acquire/release),
  // lower bits are scan flags mutated by relaxed RMW under that lock
  std::atomic<std::uint8_t> flags_{0};
};

static_assert(sizeof(Dcb) <= 12,
              "packed DCB exceeds the full-scale memory budget (§3.4)");

/// Paper-faithful padded DCB (Listing 1): full 32-bit destination, 32-bit
/// links, discrete lock member.  Offers the same accessor API as the packed
/// `Dcb`, so `BasicDcbArray` threads rings through either.
template <typename Lock>
struct FR_CAPABILITY("dcb") BasicDcb {
  static constexpr std::uint8_t kDestReached = 0x01;
  static constexpr std::uint8_t kRemoved = 0x02;

  // Same capability contract as the packed Dcb; the discrete lock member
  // (SpinLock or std::mutex) is unannotated, so the analysis sees exactly
  // one capability per DCB — the DCB itself.
  FR_HOT void lock() noexcept FR_ACQUIRE() { mutex.lock(); }
  FR_HOT void unlock() noexcept FR_RELEASE() { mutex.unlock(); }

  FR_HOT std::uint8_t dest_octet() const noexcept {
    return static_cast<std::uint8_t>(destination & 0xFF);
  }
  FR_HOT void set_dest_octet(std::uint8_t octet) noexcept {
    destination = (destination & ~std::uint32_t{0xFF}) | octet;
  }

  FR_HOT std::uint8_t next_backward_hop() const noexcept {
    return next_backward_hop_;
  }
  FR_HOT void set_next_backward_hop(std::uint8_t ttl) noexcept {
    next_backward_hop_ = ttl;
  }
  FR_HOT std::uint8_t next_forward_hop() const noexcept {
    return next_forward_hop_;
  }
  FR_HOT void set_next_forward_hop(std::uint8_t ttl) noexcept {
    next_forward_hop_ = ttl;
  }
  FR_HOT std::uint8_t forward_horizon() const noexcept {
    return forward_horizon_;
  }
  FR_HOT void set_forward_horizon(std::uint8_t ttl) noexcept {
    forward_horizon_ = ttl;
  }

  FR_HOT std::uint8_t flags() const noexcept { return flags_; }
  FR_HOT void set_flag(std::uint8_t mask) noexcept { flags_ |= mask; }
  FR_HOT void clear_flag(std::uint8_t mask) noexcept {
    flags_ &= static_cast<std::uint8_t>(~mask);
  }
  FR_HOT void retain_flags(std::uint8_t mask) noexcept { flags_ &= mask; }
  FR_HOT void store_flags(std::uint8_t value) noexcept { flags_ = value; }

  FR_HOT std::uint32_t next_index() const noexcept { return next_index_; }
  FR_HOT void set_next_index(std::uint32_t index) noexcept {
    next_index_ = index;
  }
  FR_HOT std::uint32_t previous_index() const noexcept {
    return previous_index_;
  }
  FR_HOT void set_previous_index(std::uint32_t index) noexcept {
    previous_index_ = index;
  }

  std::uint32_t destination = 0;  ///< the probed address within this /24

  /* Probing progress information (Listing 1). */
  std::uint8_t next_backward_hop_ = 0;
  std::uint8_t next_forward_hop_ = 0;
  std::uint8_t forward_horizon_ = 0;
  std::uint8_t flags_ = 0;

  /* Doubly linked list pointers (indices into the DCB array). */
  std::uint32_t next_index_ = 0;
  std::uint32_t previous_index_ = 0;

  Lock mutex;
};

using PaddedDcb = BasicDcb<SpinLock>;
using MutexDcb = BasicDcb<std::mutex>;

}  // namespace flashroute::core
