// The one response path: every engine matches and records its replies
// through a ResponseRecorder (DESIGN.md §11).
//
// FlashRoute reads each reply statelessly (§3.1): the ICMP quote names the
// probed destination, the quoted source port must equal the checksum of that
// destination or the reply was rewritten in flight (§5.3), and the residual
// TTL gives the hop distance (§3.3).  Yarrp and Doubletree-style probers read
// replies the same way, so the Tracer, Yarrp and Scamper share one copy of:
//
//  * result setup: the per-/24 vectors every engine fills;
//  * matching: decode the quote, tally and drop a flow mismatch, drop a
//    reply for a /24 outside the scan, tally the rest (responses, RTT
//    sample, telemetry tick);
//  * recording: a router hop (interface set, route entry) and a destination
//    reply (distance and triggering-TTL minima);
//  * destinations_reached, counted once per /24 by whichever destination
//    reply arrives first: an unreachable or Yarrp's TCP RST;
//  * the rule for which unreachable codes come from the destination itself.
//
// What a reply means for the probing algorithm (a DCB update, a fill chain,
// a trace state machine) stays in the engine.
//
// Threading contract: only the engine thread writes through a recorder.
// Every runtime hands replies to the engine's sink on the engine thread,
// inside drain and idle_until, so the result and the telemetry lane it
// writes have a single writer.

#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/probe_codec.h"
#include "core/result.h"
#include "net/icmp.h"
#include "obs/scan_metrics.h"
#include "util/annotations.h"
#include "util/clock.h"

namespace flashroute::core {

class ResponseRecorder {
 public:
  /// A reply matched to the probe it quotes.
  struct Match {
    std::uint32_t index;  ///< prefix offset of the probed /24
    DecodedProbe probe;
  };

  /// Records into `result` and `telemetry`, which must outlive the
  /// recorder, for a scan of `num_prefixes` /24s from `first_prefix`.
  ResponseRecorder(ScanResult& result, const obs::ScanTelemetry& telemetry,
                   std::uint32_t first_prefix, std::uint32_t num_prefixes,
                   bool collect_routes) noexcept
      : result_(result),
        telemetry_(telemetry),
        first_prefix_(first_prefix),
        num_prefixes_(num_prefixes),
        collect_routes_(collect_routes) {}

  ResponseRecorder(const ResponseRecorder&) = delete;
  ResponseRecorder& operator=(const ResponseRecorder&) = delete;

  /// Starts a scan: clears the result and sizes the per-/24 vectors.
  void reset() {
    result_ = ScanResult{};
    if (collect_routes_) result_.routes.assign(num_prefixes_, {});
    result_.destination_distance.assign(num_prefixes_, 0);
    result_.trigger_ttl.assign(num_prefixes_, 0);
    rst_reached_.assign(num_prefixes_, false);
  }

  /// Prefix offset of the /24 holding `address`; nullopt outside the scan.
  FR_HOT std::optional<std::uint32_t> index_of(
      std::uint32_t address) const noexcept {
    const std::uint32_t prefix = address >> 8;
    if (prefix < first_prefix_ || prefix - first_prefix_ >= num_prefixes_) {
      return std::nullopt;
    }
    return prefix - first_prefix_;
  }

  /// Matches an ICMP reply to the probe `codec` encoded.  Drops what is not
  /// one of our probes, a flow mismatch (tallied) and a /24 outside the
  /// scan; tallies the rest.
  FR_HOT std::optional<Match> match(const ProbeCodec& codec,
                                    const net::ParsedResponse& reply,
                                    util::Nanos arrival) {
    const std::optional<DecodedProbe> probe = codec.decode(reply);
    if (!probe) return std::nullopt;
    if (!probe->source_port_matches) {
      mismatch();
      return std::nullopt;
    }
    const std::optional<std::uint32_t> index =
        index_of(probe->destination.value());
    if (!index) return std::nullopt;
    tally(arrival, &*probe);
    return Match{*index, *probe};
  }

  /// A reply whose flow check failed: the destination was modified in
  /// flight (§5.3).
  FR_HOT void mismatch() noexcept {
    ++result_.mismatches;
    telemetry_.count(telemetry_.ids.mismatches);
  }

  /// True when an unreachable came from the probed host: port, host or
  /// protocol unreachable.  Other codes, such as 13 (administratively
  /// prohibited), come from a filter on the way.
  FR_HOT static bool is_destination_reply(
      const net::ParsedResponse& reply) noexcept {
    return reply.is_destination_unreachable() &&
           (reply.icmp_code == net::kIcmpCodePortUnreachable ||
            reply.icmp_code == net::kIcmpCodeHostUnreachable ||
            reply.icmp_code == net::kIcmpCodeProtoUnreachable);
  }

  /// Hop distance of the destination that answered `probe`, from the
  /// residual TTL in its quote (§3.3.1), clamped to [1, 255].
  FR_HOT static std::uint8_t distance(const DecodedProbe& probe) noexcept {
    const int hops = static_cast<int>(probe.initial_ttl) -
                     static_cast<int>(probe.residual_ttl) + 1;
    return static_cast<std::uint8_t>(std::clamp(hops, 1, 255));
  }

  /// Records one hop of the route to /24 `index`.  Router hops join the
  /// interface set (the Doubletree stop set); a destination's reply
  /// (RouteHop::kFromDestination) only gets its route entry here.  Returns
  /// true when `ip` is a newly discovered interface.
  FR_HOT bool record_hop(std::uint32_t index, std::uint32_t ip,
                         std::uint8_t ttl, std::uint8_t flags) {
    bool is_new = false;
    if ((flags & RouteHop::kFromDestination) == 0) {
      // fr-lint: allow(hot-banned): Doubletree stop-set insert — bounded by
      // the number of distinct interfaces, not by probe count
      is_new = result_.interfaces.insert(ip).second;
      if (is_new) {
        telemetry_.count(telemetry_.ids.interfaces_discovered);
        telemetry_.sample(telemetry_.ids.hop_distance, ttl);
      }
    }
    if (collect_routes_) {
      // fr-lint: allow(hot-banned): route output collection, bounded by
      // discovered hops; disable collect_routes for allocation-free scans
      result_.routes[index].push_back({ip, ttl, flags});
    }
    return is_new;
  }

  /// Records the destination's reply to `probe`: the route entry (flags
  /// gain kFromDestination), the distance and triggering-TTL minima, and
  /// destinations_reached if this is the /24's first destination reply.
  /// Returns the distance.
  FR_HOT std::uint8_t record_destination(std::uint32_t index,
                                         std::uint32_t ip,
                                         const DecodedProbe& probe,
                                         std::uint8_t flags) {
    const std::uint8_t hops = distance(probe);
    record_hop(index, ip, hops,
               static_cast<std::uint8_t>(flags | RouteHop::kFromDestination));
    count_reached(index);
    std::uint8_t& known = result_.destination_distance[index];
    if (known == 0 || hops < known) known = hops;
    std::uint8_t& trigger = result_.trigger_ttl[index];
    if (trigger == 0 || probe.initial_ttl < trigger) {
      trigger = probe.initial_ttl;
    }
    return hops;
  }

  /// Records a TCP RST from `ip`, the target of /24 `index`, that passed
  /// the engine's flow check.  A RST quotes nothing: it carries no distance
  /// and no RTT sample, and its route entry has TTL 0.
  FR_HOT void record_rst(std::uint32_t index, std::uint32_t ip,
                         util::Nanos arrival) {
    tally(arrival, nullptr);
    record_hop(index, ip, 0, RouteHop::kFromDestination);
    count_reached(index);
    rst_reached_[index] = true;
  }

  /// True once /24 `index` has a destination reply: an unreachable, which
  /// gives it a distance, or a RST.
  FR_HOT bool reached(std::uint32_t index) const noexcept {
    return result_.destination_distance[index] != 0 || rst_reached_[index];
  }

 private:
  /// Tallies one matched reply.  `quote` gives the RTT sample; a RST quotes
  /// nothing and passes null.
  FR_HOT void tally(util::Nanos arrival, const DecodedProbe* quote) {
    ++result_.responses;
    if (!telemetry_.enabled()) return;
    telemetry_.count(telemetry_.ids.responses);
    if (quote != nullptr) {
      const util::Nanos rtt = ProbeCodec::rtt(*quote, arrival);
      telemetry_.sample(
          telemetry_.ids.rtt_us,
          static_cast<std::uint64_t>(std::max<util::Nanos>(rtt, 0)) / 1000);
    }
    telemetry_.tick(arrival);
  }

  /// Counts /24 `index` in destinations_reached unless an earlier
  /// destination reply already did.  Runs before the reply's own state.
  FR_HOT void count_reached(std::uint32_t index) {
    if (reached(index)) return;
    ++result_.destinations_reached;
    telemetry_.count(telemetry_.ids.destinations_reached);
  }

  ScanResult& result_;
  const obs::ScanTelemetry& telemetry_;
  std::uint32_t first_prefix_;
  std::uint32_t num_prefixes_;
  bool collect_routes_;
  /// Per /24: the target answered a TCP-ACK probe with a RST.  Only a RST
  /// needs a bit: every other destination reply leaves a distance, which a
  /// checkpoint carries, so a resumed Tracer still counts each /24 once.
  std::vector<bool> rst_reached_;
};

}  // namespace flashroute::core
