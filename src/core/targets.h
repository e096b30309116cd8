// Target selection: one representative address per /24 block.
//
// Both the paper's tools and ours trace a single address per /24 (§5.4).
// The default is a random host octet; keeping the function shared (and
// keyed by an explicit target seed) lets comparative experiments probe the
// *same* targets with every tool, which is what makes Table 3 an
// apples-to-apples comparison.

#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace flashroute::core {

/// Deterministic random representative of `prefix` (a /24 index):
/// host octet in [1, 254].
inline std::uint32_t random_target(std::uint64_t target_seed,
                                   std::uint32_t prefix) noexcept {
  const auto octet = static_cast<std::uint8_t>(
      1 + util::stable_bounded(target_seed, prefix, 254));
  return (prefix << 8) | octet;
}

/// The address an engine probes in the /24 at `prefix_offset` of a scan
/// starting at `first_prefix`: the entry of `overrides` when it holds a
/// nonzero one (the §5.1 hitlist-bias experiments), else random_target.
inline std::uint32_t target_of(const std::vector<std::uint32_t>* overrides,
                               std::uint64_t target_seed,
                               std::uint32_t first_prefix,
                               std::uint32_t prefix_offset) noexcept {
  if (overrides != nullptr && prefix_offset < overrides->size() &&
      (*overrides)[prefix_offset] != 0) {
    return (*overrides)[prefix_offset];
  }
  return random_target(target_seed, first_prefix + prefix_offset);
}

}  // namespace flashroute::core
