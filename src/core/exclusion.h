// Exclusion lists and target lists.
//
// Ethics appendix: "We promptly added the involved addresses to our
// exclusion list thus removing them from all future experiments" — a real
// deployment must honour opt-outs, so the engine accepts a CIDR exclusion
// list checked before any probe is addressed to a prefix.
//
// §3.4: "FlashRoute also has an option to load IP addresses from an
// exterior file instead but would still only use one address per /24
// block" — the target-list loader implements exactly that: later entries
// for an already-covered /24 are ignored.
//
// File format for both: one entry per line; `#` starts a comment; blank
// lines ignored.  Exclusion entries are `a.b.c.d` or `a.b.c.d/len`;
// target entries are plain addresses.

#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/ipv4.h"

namespace flashroute::core {

/// A set of CIDR ranges, kept as sorted, disjoint, non-adjacent
/// [first, last] address ranges: every mutation merges, so the const
/// queries only read (binary search) and are safe from any number of
/// threads at once — every shard of a sharded scan asks.
class ExclusionList {
 public:
  /// Adds one CIDR range (prefix length 0..32).
  void add(net::Ipv4Address base, int prefix_length);

  /// Parses one `a.b.c.d[/len]` entry; returns false on malformed input.
  bool add_entry(std::string_view entry);

  /// Installs the bogon/reserved-range defaults the real FlashRoute's bogon
  /// filter ships with (RFC 1918, loopback, link-local, CGN, multicast,
  /// class E, this-network, broadcast) — the same set net::is_probe_excluded
  /// hard-codes, unified here so a standalone list can enforce it.
  void add_reserved_defaults();

  /// Loads entries from a stream and merges them in one pass; returns the
  /// number of entries read, or nullopt if any line was malformed (nothing
  /// is partially applied).
  std::optional<std::size_t> load(std::istream& input);

  /// True when `address` falls inside any excluded range.
  bool contains(net::Ipv4Address address) const;

  /// True when any address of the /24 block is excluded — the granularity
  /// at which the scanner skips targets (an excluded host excludes its
  /// whole block, the conservative reading of an opt-out).
  bool excludes_prefix24(std::uint32_t prefix_index) const;

  /// Bulk form of excludes_prefix24: ORs bit (p - first_prefix) into
  /// `bitmap` for every excluded /24 prefix p in the window.  One pass over
  /// the ranges that overlap the window; used at DCB-array construction.
  void mark_excluded_prefix24(std::uint32_t first_prefix, std::uint32_t count,
                              std::vector<std::uint64_t>& bitmap) const;

  /// Number of merged ranges.
  std::size_t size() const noexcept { return ranges_.size(); }
  bool empty() const noexcept { return ranges_.empty(); }

 private:
  struct Range {
    std::uint32_t first;
    std::uint32_t last;

    bool operator<(const Range& other) const noexcept {
      return first < other.first;
    }
  };

  /// The addresses of `base/prefix_length` (length clamped to 0..32).
  static Range cidr(std::uint32_t base, int prefix_length);

  /// The range of one `a.b.c.d[/len]` entry; nullopt when malformed.
  static std::optional<Range> parse_entry(std::string_view entry);

  /// Merges `added` into ranges_, keeping them sorted, disjoint and
  /// non-adjacent.
  void merge_in(std::vector<Range> added);

  /// The first range whose last address is at or above `address`: the
  /// range holding `address`, when one does.
  std::vector<Range>::const_iterator first_ending_at_or_after(
      std::uint32_t address) const;

  std::vector<Range> ranges_;
};

/// Loads a target list: one address per line, at most one target per /24
/// (§3.4).  Returns a per-prefix-offset vector sized `num_prefixes` with 0
/// where the file provided no target, suitable for
/// TracerConfig::target_override; out-of-universe entries are counted in
/// `skipped` (if provided) and otherwise ignored.  Returns nullopt if any
/// line is malformed.
std::optional<std::vector<std::uint32_t>> load_target_list(
    std::istream& input, std::uint32_t first_prefix,
    std::uint32_t num_prefixes, std::size_t* skipped = nullptr);

}  // namespace flashroute::core
