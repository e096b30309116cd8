// Flat open-addressing hash table over 32-bit keys, and the set built on it.
//
// Two structures of a scan grow with the responders it discovers rather
// than with its prefixes: the Doubletree stop set of discovered interfaces
// (core::ScanResult::interfaces) and the simulator's sparse per-responder
// ICMP rate limiters (sim::RateLimitTable).  A node-based std container
// spends a heap node of ~40 bytes on every key; FlatTable keeps every slot
// in one array and allocates only when that array grows.
//
// Layout: a power-of-two array of slots probed linearly from the key's
// mix64 hash, in which a zero key marks an empty slot.  An insert that would
// lift the load past 3/4 first doubles the array, so n keys occupy between
// 4n/3 and 8n/3 slots; while it doubles, the old and the new array are both
// held.  A zero key cannot mark itself present, yet a forged reply can name
// 0.0.0.0, so key 0 lives in one extra slot past the probe array, which
// iteration visits last.  Keys are never erased.
//
// `KeyMember` names the slot's key field (FlatTable<Entry, &Entry::ip>);
// left at nullptr, the slot is the key itself (FlatTable<std::uint32_t>).
// FlatSet is that table of bare keys, with the std::unordered_set calls the
// scan result's readers make.

#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/annotations.h"
#include "util/rng.h"

namespace flashroute::util {

template <typename Slot, auto KeyMember = nullptr>
class FlatTable {
 public:
  /// Forward iterator over the occupied slots.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Slot;
    using difference_type = std::ptrdiff_t;
    using pointer = const Slot*;
    using reference = const Slot&;

    const_iterator() = default;
    reference operator*() const noexcept { return *slot_; }
    const_iterator& operator++() noexcept {
      ++slot_;
      skip_empty();
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const const_iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const const_iterator& other) const noexcept {
      return slot_ == other.slot_;
    }

   private:
    friend class FlatTable;
    const_iterator(const Slot* slot, const Slot* zero) noexcept
        : slot_(slot), zero_(zero) {
      skip_empty();
    }
    void skip_empty() noexcept {
      while (slot_ < zero_ && key_of(*slot_) == 0) ++slot_;
    }

    const Slot* slot_ = nullptr;
    const Slot* zero_ = nullptr;  ///< the key-0 slot, past the probe array
  };

  FlatTable() = default;
  FlatTable(const FlatTable&) = default;
  FlatTable& operator=(const FlatTable&) = default;
  /// A moved-from table is empty.
  FlatTable(FlatTable&& other) noexcept { *this = std::move(other); }
  FlatTable& operator=(FlatTable&& other) noexcept {
    slots_ = std::exchange(other.slots_, {});
    used_ = std::exchange(other.used_, 0);
    has_zero_ = std::exchange(other.has_zero_, false);
    return *this;
  }

  std::size_t size() const noexcept { return used_ + (has_zero_ ? 1 : 0); }

  /// Bytes of the slot array: the memory accounting of bench/full_scale.
  std::size_t memory_bytes() const noexcept {
    return slots_.capacity() * sizeof(Slot);
  }

  /// The slot holding `key`, or nullptr.
  [[nodiscard]] FR_HOT const Slot* lookup(std::uint32_t key) const noexcept {
    if (slots_.empty()) return nullptr;
    if (key == 0) return has_zero_ ? &slots_.back() : nullptr;
    const Slot& slot = slots_[slot_index(key)];
    return key_of(slot) == key ? &slot : nullptr;
  }

  /// The slot holding `key` and whether this call added it.  An added slot
  /// is value-initialized apart from its key; the caller fills in the rest.
  /// Adding may double the array, which moves every slot.
  [[nodiscard]] FR_HOT std::pair<Slot*, bool> claim(std::uint32_t key) {
    // fr-lint: allow(hot-call): the first claim allocates the array
    if (slots_.empty()) grow();
    if (key == 0) {
      const bool added = !has_zero_;
      has_zero_ = true;
      return {&slots_.back(), added};
    }
    std::size_t i = slot_index(key);
    if (key_of(slots_[i]) == key) return {&slots_[i], false};
    if ((used_ + 1) * 4 > capacity() * 3) {
      // fr-lint: allow(hot-call): the array doubles only when a new key
      // would lift the load past 3/4; once it holds every key a scan
      // meets, claims never allocate.
      grow();
      i = slot_index(key);
    }
    key_of(slots_[i]) = key;
    ++used_;
    return {&slots_[i], true};
  }

  const_iterator begin() const noexcept {
    return const_iterator(slots_.data(), zero_slot());
  }
  const_iterator end() const noexcept {
    return const_iterator(zero_slot() + (has_zero_ ? 1 : 0), zero_slot());
  }
  /// The iterator at `slot`, a slot of this table.
  const_iterator iterator_at(const Slot* slot) const noexcept {
    return const_iterator(slot, zero_slot());
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;  // power of two
  static constexpr bool kBareKeys =
      std::is_null_pointer_v<decltype(KeyMember)>;

  /// A slot's key: the slot itself, or its KeyMember field.
  FR_HOT static constexpr auto& key_of(auto& slot) noexcept
    requires(kBareKeys) {
    return slot;
  }
  FR_HOT static constexpr auto& key_of(auto& slot) noexcept
    requires(!kBareKeys) {
    return slot.*KeyMember;
  }

  std::size_t capacity() const noexcept {
    return slots_.empty() ? 0 : slots_.size() - 1;
  }
  const Slot* zero_slot() const noexcept { return slots_.data() + capacity(); }

  /// The slot holding `key` (nonzero), or the empty slot where it belongs.
  FR_HOT std::size_t slot_index(std::uint32_t key) const noexcept {
    const std::size_t mask = capacity() - 1;
    std::size_t i = mix64(key) & mask;
    while (key_of(slots_[i]) != 0 && key_of(slots_[i]) != key) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// Runs once per doubling, against millions of claims: cold keeps it out
  /// of the hot callers claim is inlined into.
  [[gnu::cold]] void grow() {
    const std::size_t new_capacity =
        slots_.empty() ? kMinCapacity : 2 * capacity();
    std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(new_capacity + 1));
    if (old.empty()) return;
    for (std::size_t i = 0; i + 1 < old.size(); ++i) {
      if (key_of(old[i]) != 0) slots_[slot_index(key_of(old[i]))] = old[i];
    }
    slots_.back() = old.back();
  }

  std::vector<Slot> slots_;  ///< capacity() probe slots, then the key-0 slot
  std::size_t used_ = 0;     ///< occupied probe slots
  bool has_zero_ = false;
};

/// A set of 32-bit keys (IPv4 addresses) with 4-byte slots.
class FlatSet {
 public:
  using value_type = std::uint32_t;
  using const_iterator = FlatTable<std::uint32_t>::const_iterator;
  using iterator = const_iterator;

  FlatSet() = default;
  FlatSet(std::initializer_list<std::uint32_t> keys) {
    insert(keys.begin(), keys.end());
  }

  /// Adds `key`; `.second` is true when it was not yet a member.
  std::pair<iterator, bool> insert(std::uint32_t key) {
    const auto [slot, added] = table_.claim(key);
    return {table_.iterator_at(slot), added};
  }
  template <typename InputIt>
  void insert(InputIt first, InputIt last) {
    for (; first != last; ++first) insert(*first);
  }

  bool contains(std::uint32_t key) const noexcept {
    return table_.lookup(key) != nullptr;
  }
  std::size_t size() const noexcept { return table_.size(); }
  bool empty() const noexcept { return table_.size() == 0; }
  std::size_t memory_bytes() const noexcept { return table_.memory_bytes(); }

  iterator begin() const noexcept { return table_.begin(); }
  iterator end() const noexcept { return table_.end(); }

  /// Set equality: the same keys, in whatever slot order.
  friend bool operator==(const FlatSet& a, const FlatSet& b) noexcept {
    if (a.size() != b.size()) return false;
    for (const std::uint32_t key : a) {
      if (!b.contains(key)) return false;
    }
    return true;
  }

 private:
  FlatTable<std::uint32_t> table_;
};

}  // namespace flashroute::util
