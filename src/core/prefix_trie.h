// Binary (patricia-style) trie over CIDR prefixes — the production-grade
// filtering structure of the real FlashRoute's trie/bogon filter.
//
// Where the sorted-range binary search pays O(log n) per query, the trie
// answers membership in at most 32 child steps independent of how many
// ranges are loaded, and — the full-scale win — enumerates every excluded
// /24 in one O(nodes + marked) DFS, so DCB-array construction pays O(1)
// amortized per prefix instead of a range query each (ISSUE 6).
//
// Invariants: a terminal node covers its entire subtree (inserting a
// shorter prefix over a longer one prunes the deeper structure — CIDR
// subsumption), and every reachable non-terminal node leads to at least one
// terminal, so "a node exists at /24 depth" alone proves the block
// intersects an excluded range.

#pragma once

#include <cstdint>
#include <vector>

#include "util/annotations.h"

namespace flashroute::core {

class PrefixTrie {
 public:
  PrefixTrie() { nodes_.push_back({}); }

  /// Removes every prefix (the root stays).
  void clear() {
    nodes_.clear();
    nodes_.push_back({});
  }

  /// Inserts one CIDR block (host bits of `base` are masked off;
  /// `prefix_length` clamps to 0..32).  Prefixes subsumed by an existing
  /// shorter prefix are no-ops; inserting a shorter prefix prunes the
  /// subsumed deeper structure.
  void insert(std::uint32_t base, int prefix_length);

  /// True when `address` falls inside any inserted block.
  FR_HOT bool contains(std::uint32_t address) const noexcept {
    std::int32_t node = 0;
    for (int depth = 0; depth < 32; ++depth) {
      const Node& n = nodes_[static_cast<std::size_t>(node)];
      if (n.terminal) return true;
      node = n.child[(address >> (31 - depth)) & 1];
      if (node < 0) return false;
    }
    return nodes_[static_cast<std::size_t>(node)].terminal;
  }

  /// True when any address of the /24 block (prefix_index = address >> 8)
  /// falls inside an inserted range.
  FR_HOT bool intersects_prefix24(std::uint32_t prefix_index) const noexcept {
    std::int32_t node = 0;
    for (int depth = 0; depth < 24; ++depth) {
      const Node& n = nodes_[static_cast<std::size_t>(node)];
      if (n.terminal) return true;
      node = n.child[(prefix_index >> (23 - depth)) & 1];
      if (node < 0) return false;
    }
    return true;  // a surviving /24-depth node always has a terminal below
  }

  /// Bulk pass: sets bit (p - first_prefix) in `bitmap` for every /24
  /// prefix p in [first_prefix, first_prefix + count) that intersects an
  /// inserted range.  One DFS over the trie — O(nodes + bits set), not
  /// O(count) queries.  `bitmap` must hold at least (count + 63) / 64 words
  /// and is OR-ed into, not cleared.
  void mark_prefix24(std::uint32_t first_prefix, std::uint32_t count,
                     std::vector<std::uint64_t>& bitmap) const;

  /// Trie size in bytes — the filter's memory accounting.
  std::size_t memory_bytes() const noexcept {
    return nodes_.size() * sizeof(Node);
  }
  bool empty() const noexcept {
    const Node& root = nodes_.front();
    return !root.terminal && root.child[0] < 0 && root.child[1] < 0;
  }

 private:
  struct Node {
    std::int32_t child[2] = {-1, -1};
    bool terminal = false;
  };

  void mark_node(std::int32_t node, int depth, std::uint32_t path,
                 std::uint32_t first_prefix, std::uint32_t count,
                 std::vector<std::uint64_t>& bitmap) const;

  std::vector<Node> nodes_;
};

}  // namespace flashroute::core
