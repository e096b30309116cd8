// Flat per-responder ICMP rate-limiter storage.
//
// Every responder has a token bucket and a drop counter.  The ICMP rate and
// burst are the same for all of them (SimParams), so the table holds them
// once and an entry keeps only the bucket's level: 24 bytes of address,
// drops, tokens and last refill (util::TokenLevel, the refill rule
// util::TokenBucket uses too).  Responder addresses come in two shapes,
// and the table exploits both:
//
//  * interface-pool IPs (core routers, access chains, gateways, spines,
//    load-balancer branches) are densely allocated from
//    params.interface_pool_base upward — those index straight into a flat
//    array by pool offset: no hashing, no probing, no allocation;
//  * everything else (appliances, stub-interior interfaces, hosts — sparse
//    across the universe) lands in a util::FlatTable keyed by address,
//    which grows amortized and allocates nothing in steady state.
//
// The drop counter lives inside the entry, so the rate-limited path is one
// lookup.
//
// Buckets are pre-created full at t=0 in the dense array; this is
// behaviourally identical to creating them on first probe at t (the bucket
// starts full either way, and refill clamps at burst).

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "util/annotations.h"
#include "util/flat_table.h"
#include "util/token_bucket.h"

namespace flashroute::sim {

class RateLimitTable {
 public:
  struct Entry {
    std::uint32_t ip = 0;  ///< key of a sparse entry; 0 in the dense array
    std::uint32_t drops = 0;  ///< responses refused, saturating
    util::TokenLevel level;   ///< tokens and last refill
  };

  /// Pool IPs in [pool_base, pool_base + pool_size) take the dense path.
  RateLimitTable(double rate_per_second, double burst, std::uint32_t pool_base,
                 std::uint32_t pool_size)
      : rate_(rate_per_second),
        burst_(burst),
        pool_base_(pool_base),
        dense_(pool_size, Entry{0, 0, {burst, 0}}) {}

  /// Takes one token from `ip`'s bucket at time `t`; when the bucket is
  /// empty, counts a drop against `ip` and returns false.  `t` must be
  /// non-decreasing across calls.
  [[nodiscard]] FR_HOT bool admit(std::uint32_t ip, util::Nanos t) {
    Entry& e = entry(ip, t);
    if (e.level.try_consume(t, rate_, burst_)) return true;
    if (e.drops != std::numeric_limits<std::uint32_t>::max()) ++e.drops;
    return false;
  }

  /// The limiter entry for `ip`, created full at time `t` on first touch.
  FR_HOT Entry& entry(std::uint32_t ip, util::Nanos t) {
    const std::uint32_t offset = ip - pool_base_;  // wraps below pool_base
    if (offset < dense_.size()) return dense_[offset];
    const auto [e, added] = sparse_.claim(ip);
    if (added) e->level = {burst_, t};
    return *e;
  }

  /// Ground-truth drops per responder, materialized off the hot path.
  std::unordered_map<std::uint32_t, std::uint64_t> drops() const {
    std::unordered_map<std::uint32_t, std::uint64_t> out;
    for (std::uint32_t i = 0; i < dense_.size(); ++i) {
      if (dense_[i].drops > 0) out.emplace(pool_base_ + i, dense_[i].drops);
    }
    for (const Entry& e : sparse_) {
      if (e.drops > 0) out.emplace(e.ip, e.drops);
    }
    return out;
  }

  /// Bytes of both entry arrays: the memory accounting of bench/full_scale.
  std::size_t memory_bytes() const noexcept {
    return dense_.capacity() * sizeof(Entry) + sparse_.memory_bytes();
  }

 private:
  double rate_;
  double burst_;
  std::uint32_t pool_base_;
  std::vector<Entry> dense_;
  util::FlatTable<Entry, &Entry::ip> sparse_;
};

static_assert(sizeof(RateLimitTable::Entry) <= 24);

}  // namespace flashroute::sim
