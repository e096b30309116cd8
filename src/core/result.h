// Results of one scan: the discovered interface set, per-destination routes,
// and the counters every table of the paper's evaluation reports.

#pragma once

#include <cstdint>
#include <vector>

#include "util/clock.h"
#include "util/flat_table.h"

namespace flashroute::core {

/// One discovered hop of a route (responses of all kinds are recorded; the
/// flags tell route analyses which phase produced an entry and whether it
/// came from the destination itself rather than an en-route router).
struct RouteHop {
  static constexpr std::uint8_t kFromDestination = 0x01;
  static constexpr std::uint8_t kPreprobe = 0x02;
  static constexpr std::uint8_t kExtraScan = 0x04;

  std::uint32_t ip = 0;
  std::uint8_t ttl = 0;  ///< hop distance (derived distance for kFromDestination)
  std::uint8_t flags = 0;

  bool operator==(const RouteHop&) const = default;
};

/// One sent probe, for the Table 4 overprobing replay.
struct ProbeLogEntry {
  util::Nanos time = 0;
  std::uint32_t destination = 0;
  std::uint8_t ttl = 0;
  bool preprobe = false;  ///< sent during a (non-folded) preprobing phase

  bool operator==(const ProbeLogEntry&) const = default;
};

struct ScanResult {
  /// Unique responder addresses (router interfaces and responding targets) —
  /// the "Interfaces" column of Tables 1-3, and the Doubletree stop set.
  /// Iteration order is unspecified; every writer of a file or digest sorts.
  util::FlatSet interfaces;

  /// routes[prefix_offset]: hops recorded for that /24's target, unordered
  /// by TTL (responses arrive out of order).  Empty when collection is off.
  std::vector<std::vector<RouteHop>> routes;

  /// Distance to the destination derived from its unreachable responses
  /// (initial TTL - residual TTL + 1); 0 = destination never answered.
  std::vector<std::uint8_t> destination_distance;

  /// The smallest *initial* TTL whose probe elicited an unreachable from the
  /// destination — the "triggering TTL" of §3.3.2, i.e. the traditional
  /// traceroute distance.  Meaningful for scans that sweep TTLs upward;
  /// 0 = never triggered.
  std::vector<std::uint8_t> trigger_ttl;

  /// Preprobing outputs (§3.3): directly measured and proximity-predicted
  /// hop distances per prefix (0 = unavailable).
  std::vector<std::uint8_t> measured_distance;
  std::vector<std::uint8_t> predicted_distance;

  std::uint64_t probes_sent = 0;      ///< includes preprobes, per the paper
  std::uint64_t preprobe_probes = 0;
  std::uint64_t responses = 0;        ///< parsed, non-mismatching responses
  std::uint64_t mismatches = 0;       ///< §5.3 in-flight address modification
  std::uint64_t destinations_reached = 0;
  std::uint64_t distances_measured = 0;
  std::uint64_t distances_predicted = 0;
  std::uint64_t convergence_stops = 0;  ///< backward stops at known hops

  // Resilience counters (DESIGN.md §9).  Not part of the FRSC archive
  // payload — the v1 byte format is frozen; checkpoints carry them
  // separately.
  std::uint64_t send_failures = 0;   ///< try_send returned false
  std::uint64_t retransmits = 0;     ///< probes re-sent after a timeout
  std::uint64_t probe_timeouts = 0;  ///< timeouts with no retransmit budget
  std::uint64_t rate_backoffs = 0;   ///< adaptive rate-halving events

  util::Nanos scan_time = 0;     ///< total, including preprobing & extra scans
  util::Nanos preprobe_time = 0;

  std::vector<ProbeLogEntry> probe_log;  ///< only when requested
};

}  // namespace flashroute::core
