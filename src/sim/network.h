// The packet-level behaviour of the simulated Internet.
//
// `SimNetwork` receives the same IPv4 probe bytes a real deployment would
// put on the wire, walks the probe along the forwarding path its Topology
// resolves — honouring TTL decrement semantics, TTL-rewriting middleboxes,
// dark tails and forwarding loops — and returns the response bytes a real
// router or host would emit, with a delivery time reflecting the per-hop RTT.
//
// Per-interface ICMP generation is limited with a token bucket (default
// 500/s per Ravaioli et al., the assumption of the paper's §4.2.2 analysis),
// so an over-aggressive scan genuinely loses responses here, exactly the
// intrusiveness phenomenon Table 4 studies.
//
// Hot path (DESIGN.md §6): `process_into` is allocation-free in steady
// state.  Each probe resolves its route afresh in O(1): a Route is a
// descriptor, and only the interface the probe expires at is computed and
// asked whether it answers.  Nothing is memoized across probes.
// Responses are encoded straight into a caller-provided buffer —
// normally a recycled sim/response_pool.h slot — and the per-responder ICMP
// limiters live in a flat table indexed by interface-pool offset
// (sim/rate_limit_table.h).

#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/icmp.h"
#include "sim/fault_plane.h"
#include "sim/rate_limit_table.h"
#include "sim/response_pool.h"
#include "sim/topology.h"
#include "util/annotations.h"
#include "util/clock.h"

namespace flashroute::sim {

struct NetworkStats {
  std::uint64_t probes = 0;
  std::uint64_t malformed = 0;
  std::uint64_t out_of_universe = 0;
  std::uint64_t time_exceeded_sent = 0;
  std::uint64_t destination_responses = 0;  // port-unreachable / TCP RST
  std::uint64_t silent_interface = 0;
  std::uint64_t silent_host = 0;
  std::uint64_t rate_limited = 0;
  std::uint64_t dropped_dark = 0;  // probe died with no responder in range

  std::uint64_t responses() const noexcept {
    return time_exceeded_sent + destination_responses;
  }
};

/// A response encoded into the caller's buffer and the virtual time at which
/// it reaches the vantage.  When the fault plane duplicates the response,
/// `duplicate_arrival` is the (later) arrival time of the second copy;
/// 0 means no duplicate.
struct ProcessedResponse {
  util::Nanos arrival;
  std::size_t size;
  util::Nanos duplicate_arrival = 0;
};

/// A response packet and the virtual time at which it reaches the vantage
/// (allocating convenience form).
struct Delivery {
  util::Nanos arrival;
  std::vector<std::byte> packet;
};

/// A response on its way to the vantage: its bytes wait in a ResponsePool
/// slot until it is delivered at `arrival`.
struct InFlight {
  util::Nanos arrival;
  ResponsePool::Slot slot;
  std::uint32_t size;
};

/// What SimNetwork::transmit did with one probe.
struct Transmission {
  /// False when a local send fault kept the probe off the wire.
  bool sent = false;
  /// The first `count` entries are in flight: the response, then its
  /// fault-plane duplicate.
  std::uint32_t count = 0;
  std::array<InFlight, 2> responses{};
};

class SimNetwork {
 public:
  explicit SimNetwork(const Topology& topology);

  /// Overrides the topology's fault parameters (bench sweeps reuse one
  /// expensive Topology across fault configurations).
  SimNetwork(const Topology& topology, const FaultParams& faults);

  /// Processes one probe sent at `send_time`, encoding any response into
  /// `out` (which must hold at least net::kMaxResponseSize bytes).  Returns
  /// the response size and arrival time, or nullopt when the network stays
  /// silent.  `send_time` must be non-decreasing across calls (the rate
  /// limiters refill monotonically).  Never allocates in steady state.
  [[nodiscard]] FR_HOT std::optional<ProcessedResponse> process_into(
      std::span<const std::byte> probe, util::Nanos send_time,
      std::span<std::byte> out);

  /// Allocating wrapper over process_into (tests, tools).
  [[nodiscard]] std::optional<Delivery> process(std::span<const std::byte> probe,
                                  util::Nanos send_time);

  /// Puts one probe on the simulated wire at `send_time`: the one transmit
  /// step of every sim runtime.  Draws the fault plane's local send failure
  /// first; a failed probe never reaches the network.  Otherwise encodes the
  /// response, if any, into a freshly claimed `pool` slot, copies a
  /// fault-plane duplicate into a second one, and releases the slot again
  /// when the network stays silent.  `send_time` must be non-decreasing
  /// across calls, as for process_into.
  [[nodiscard]] FR_HOT Transmission transmit(std::span<const std::byte> probe,
                                             util::Nanos send_time,
                                             ResponsePool& pool);

  const NetworkStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = NetworkStats{}; }

  /// Ground-truth rate-limit drops per interface (for validating the
  /// Table 4 overprobing analysis against what "actually" happened).
  /// Materialized from the flat limiter table — not a hot-path accessor.
  std::unordered_map<std::uint32_t, std::uint64_t> rate_limit_drops() const {
    return rate_limiters_.drops();
  }

  /// Bytes of the rate-limit table (RateLimitTable::memory_bytes).
  std::size_t rate_limit_table_bytes() const noexcept {
    return rate_limiters_.memory_bytes();
  }

  const Topology& topology() const noexcept { return topology_; }

  /// The fault-injection plane, or nullptr when every fault knob is zero
  /// (the plane is then never constructed — the default path is unchanged).
  FR_HOT FaultPlane* fault_plane() noexcept {
    return fault_plane_ ? &*fault_plane_ : nullptr;
  }
  const FaultPlane* fault_plane() const noexcept {
    return fault_plane_ ? &*fault_plane_ : nullptr;
  }

 private:
  FR_HOT bool admit_response(std::uint32_t responder_ip, util::Nanos t);
  FR_HOT std::optional<ProcessedResponse> finish_response(
      std::uint32_t dst_value, std::uint8_t ttl, util::Nanos send_time,
      util::Nanos arrival, std::size_t size, std::span<std::byte> out);
  FR_HOT util::Nanos arrival_time(util::Nanos send_time, int hop,
                                  std::uint64_t jitter_key) const noexcept;

  const Topology& topology_;
  NetworkStats stats_;
  RateLimitTable rate_limiters_;
  /// The current probe's route, overwritten by every resolve.
  Route route_;
  /// Current dynamics epoch, memoized over the non-decreasing send times so
  /// the 64-bit division only runs at epoch boundaries.
  std::int64_t current_epoch_ = 0;
  util::Nanos epoch_end_ = 0;
  std::uint64_t seed_rtt_;
  /// Engaged only when FaultParams::any() — one branch on the hot path
  /// otherwise (DESIGN.md §9).
  std::optional<FaultPlane> fault_plane_;
};

}  // namespace flashroute::sim
