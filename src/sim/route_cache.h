// Direct-mapped memoization of Topology::resolve.
//
// FlashRoute probes each /24 dozens of times with an identical
// (destination, flow, epoch) triple — one representative target per prefix,
// a Paris-constant flow label, and rounds that finish well inside one
// dynamics epoch.  Path caching is the standard trick for making per-packet
// route models tractable at scale (Leguay et al., "Describing and Simulating
// Internet Routes"); because Topology::resolve is a pure function of the
// exact triple, memoizing it is *provably* bit-identical: a hit returns the
// very Route a fresh resolution would produce, so cached and cache-bypassed
// scans yield the same ScanResult (tests/sim_hotpath_test.cc proves this
// seed by seed).
//
// Each entry memoizes the route *and* its RouteSilence — the per-hop
// interface_responds / host_responds answers for the probe's protocol, which
// are pure over (route, protocol).  The plan fills *lazily*: fill() resets
// it empty and the response path computes each hop/host answer on first
// query (Topology::hop_silent_at / host_answers_lazy).  A scan asks about
// 1-2 positions of a route per fill, so only those draws are ever made.
// The Route itself is an O(1) descriptor (template pointer, flow, segment
// lengths, up to four tail hops): a miss costs one resolve, not a copy of
// every hop, and Route::hop_at computes the one interface a probe expires
// at.  A hit saves the resolve's hash draws and the silence draws.
//
// The cache is direct-mapped: one tag check plus an array read on the common
// path, no probing chains, no allocation after construction.  Collisions
// simply overwrite (it is a cache, not a map).  Each SimNetwork owns one
// instance, so the engine's per-lane threading discipline carries over
// unchanged; the Topology itself stays immutable and shared.

#pragma once

#include <cstdint>
#include <vector>

#include "sim/topology.h"
#include "util/annotations.h"
#include "util/rng.h"

namespace flashroute::sim {

class RouteCache {
 public:
  /// One memoized resolution: the route plus its response plan.
  struct Entry {
    std::uint32_t destination = 0;
    std::uint64_t flow = 0;
    std::int64_t epoch = 0;
    std::uint8_t protocol = 0;
    bool valid = false;
    Route route;
    RouteSilence silence;
  };

  /// `bits` = log2 of the entry count.
  explicit RouteCache(int bits)
      : mask_((std::size_t{1} << bits) - 1),
        entries_(std::size_t{1} << bits) {}

  /// The cached entry for the key, or nullptr on a miss.  Mutable: the
  /// response path memoizes lazy silence answers into the entry's plan.
  FR_HOT Entry* find(net::Ipv4Address destination, std::uint64_t flow,
                     std::int64_t epoch, std::uint8_t protocol) noexcept {
    Entry& entry = entries_[slot(destination, flow, epoch)];
    if (entry.valid && entry.destination == destination.value() &&
        entry.flow == flow && entry.epoch == epoch &&
        entry.protocol == protocol) {
      return &entry;
    }
    return nullptr;
  }

  /// Resolves the key through `topology` into its cache slot (overwriting
  /// whatever lived there — it is a cache, not a map) and returns the
  /// freshly cached entry, or nullptr when the destination lies outside the
  /// universe (never cached; resolve bails before touching the slot's route
  /// in that case, and the cleared tag gates any reuse).
  FR_HOT Entry* fill(const Topology& topology, net::Ipv4Address destination,
                     std::uint64_t flow, std::int64_t epoch,
                     std::uint8_t protocol) noexcept {
    Entry& entry = entries_[slot(destination, flow, epoch)];
    if (!topology.resolve(destination, flow, epoch, entry.route)) {
      entry.valid = false;
      return nullptr;
    }
    entry.silence.reset_lazy();
    entry.destination = destination.value();
    entry.flow = flow;
    entry.epoch = epoch;
    entry.protocol = protocol;
    entry.valid = true;
    return &entry;
  }

  std::size_t capacity() const noexcept { return entries_.size(); }

 private:
  FR_HOT std::size_t slot(net::Ipv4Address destination, std::uint64_t flow,
                   std::int64_t epoch) const noexcept {
    return util::hash_combine(destination.value(), flow,
                              static_cast<std::uint64_t>(epoch)) &
           mask_;
  }

  std::size_t mask_;
  std::vector<Entry> entries_;
};

}  // namespace flashroute::sim
