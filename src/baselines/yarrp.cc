#include "baselines/yarrp.h"

#include "core/targets.h"
#include "net/checksum.h"
#include "net/icmp.h"
#include "util/permutation.h"

namespace flashroute::baselines {

Yarrp::Yarrp(const YarrpConfig& config, core::ScanRuntime& runtime)
    : config_(config),
      codec_(config.vantage),
      sender_(
          runtime,
          [this](std::span<const std::byte> packet, util::Nanos arrival) {
            on_packet(packet, arrival);
          },
          result_, config_.telemetry, config_.collect_probe_log) {}

std::uint32_t Yarrp::target_of(std::uint32_t prefix_offset) const noexcept {
  if (config_.target_override != nullptr &&
      prefix_offset < config_.target_override->size() &&
      (*config_.target_override)[prefix_offset] != 0) {
    return (*config_.target_override)[prefix_offset];
  }
  return core::random_target(config_.target_seed,
                             config_.first_prefix + prefix_offset);
}

// Yarrp is stateless by design: a probe lost at the sender is simply a
// silent hop — no state to retry from (the contrast the resilience bench
// measures).
FR_HOT void Yarrp::send_probe(std::uint32_t destination, std::uint8_t ttl) {
  const net::Ipv4Address target(destination);
  const bool tcp = config_.probe_type == YarrpConfig::ProbeType::kTcpAck;
  sender_.stage(destination, ttl, 0,
                [&](util::Nanos send_time, std::span<std::byte> slot) {
                  return tcp ? codec_.encode_tcp(target, ttl, send_time, slot)
                             : codec_.encode_udp(target, ttl,
                                                 /*preprobe=*/false,
                                                 send_time, slot);
                });
  sender_.drain_point();
}

core::ScanResult Yarrp::run() {
  const std::uint32_t n = config_.num_prefixes();
  result_ = core::ScanResult{};
  if (config_.collect_routes) result_.routes.assign(n, {});
  result_.destination_distance.assign(n, 0);
  result_.trigger_ttl.assign(n, 0);
  dest_done_.assign(n, false);
  last_new_interface_.assign(
      static_cast<std::size_t>(config_.protected_hops) + 1, sender_.now());

  const util::Nanos start = sender_.now();
  config_.telemetry.begin_phase(obs::ScanPhase::kMain, start);

  // The ZMap-inspired walk: a keyed bijection over every (prefix, TTL)
  // combination, generated on the fly — no target list in memory (§2).
  const std::uint64_t domain =
      std::uint64_t{n} * config_.exhaustive_ttl;
  const util::RandomPermutation permutation(domain, config_.seed);

  for (std::uint64_t i = 0; i < domain; ++i) {
    const std::uint64_t v = permutation(i);
    const auto prefix_offset = static_cast<std::uint32_t>(
        v / config_.exhaustive_ttl);
    const auto ttl =
        static_cast<std::uint8_t>(1 + v % config_.exhaustive_ttl);
    const std::uint32_t destination = target_of(prefix_offset);
    if (net::is_probe_excluded(net::Ipv4Address(destination))) continue;

    if (config_.protected_hops > 0 && ttl <= config_.protected_hops &&
        sender_.now() - last_new_interface_[ttl] >
            config_.protection_window) {
      continue;  // neighborhood protection: this hop radius has gone quiet
    }

    send_probe(destination, ttl);
    flush_fill_queue();
  }

  // Let the tail of responses land (and drive any remaining fill chains).
  for (int grace = 0; grace < 3; ++grace) {
    sender_.idle_until(sender_.now() + util::kSecond);
    flush_fill_queue();
  }

  sender_.submit();  // the last fill probes may still be staged
  result_.scan_time = sender_.now() - start;
  config_.telemetry.finish(sender_.now());
  return result_;
}

void Yarrp::flush_fill_queue() {
  while (!fill_queue_.empty()) {
    const FillProbe fill = fill_queue_.front();
    fill_queue_.pop_front();
    send_probe(fill.destination, fill.ttl);
  }
}

void Yarrp::on_packet(std::span<const std::byte> packet,
                      util::Nanos arrival) {
  const auto parsed = net::parse_response(packet);
  if (!parsed) return;
  const obs::ScanTelemetry& tel = config_.telemetry;

  if (parsed->is_tcp_rst) {
    // The destination answered our TCP-ACK with a RST: route endpoint.
    const std::uint32_t responder = parsed->responder.value();
    const std::uint32_t prefix = responder >> 8;
    if (prefix < config_.first_prefix ||
        prefix - config_.first_prefix >= config_.num_prefixes()) {
      return;
    }
    // Flow check: the RST's destination port echoes our source port, the
    // checksum of the target address.
    if (parsed->tcp_dst_port !=
        net::address_checksum(net::Ipv4Address(responder))) {
      ++result_.mismatches;
      tel.count(tel.ids.mismatches);
      return;
    }
    const std::uint32_t index = prefix - config_.first_prefix;
    ++result_.responses;
    if (tel.enabled()) {
      tel.count(tel.ids.responses);
      tel.tick(arrival);
    }
    if (config_.collect_routes) {
      result_.routes[index].push_back(
          {responder, 0, core::RouteHop::kFromDestination});
    }
    if (!dest_done_[index]) {
      dest_done_[index] = true;
      ++result_.destinations_reached;
      tel.count(tel.ids.destinations_reached);
    }
    return;
  }

  const auto probe = codec_.decode(*parsed);
  if (!probe) return;
  if (!probe->source_port_matches) {
    ++result_.mismatches;
    tel.count(tel.ids.mismatches);
    return;
  }
  const std::uint32_t prefix = probe->destination.value() >> 8;
  if (prefix < config_.first_prefix ||
      prefix - config_.first_prefix >= config_.num_prefixes()) {
    return;
  }
  const std::uint32_t index = prefix - config_.first_prefix;
  ++result_.responses;
  if (tel.enabled()) {
    tel.count(tel.ids.responses);
    const util::Nanos rtt = core::ProbeCodec::rtt(*probe, arrival);
    tel.sample(tel.ids.rtt_us,
               static_cast<std::uint64_t>(std::max<util::Nanos>(rtt, 0)) /
                   1000);
    tel.tick(arrival);
  }

  if (parsed->is_time_exceeded()) {
    const std::uint8_t ttl = probe->initial_ttl;
    const bool is_new =
        result_.interfaces.insert(parsed->responder.value()).second;
    if (is_new) {
      tel.count(tel.ids.interfaces_discovered);
      tel.sample(tel.ids.hop_distance, ttl);
    }
    if (config_.collect_routes) {
      result_.routes[index].push_back({parsed->responder.value(), ttl, 0});
    }
    if (is_new && config_.protected_hops > 0 &&
        ttl <= config_.protected_hops) {
      last_new_interface_[ttl] = sender_.now();
    }
    // Fill mode: the farthest probed hop responded and is not the target —
    // extend the trace by exactly one hop (inherent gap limit 1, §4.2.1).
    if (config_.fill_mode && !dest_done_[index] &&
        ttl >= config_.exhaustive_ttl && ttl < config_.fill_max_ttl) {
      fill_queue_.push_back({probe->destination.value(),
                             static_cast<std::uint8_t>(ttl + 1)});
    }
    return;
  }

  if (parsed->is_destination_unreachable()) {
    const int distance =
        std::max(1, static_cast<int>(probe->initial_ttl) -
                        static_cast<int>(probe->residual_ttl) + 1);
    const auto clamped =
        static_cast<std::uint8_t>(std::min(distance, 255));
    if (config_.collect_routes) {
      result_.routes[index].push_back({parsed->responder.value(), clamped,
                                       core::RouteHop::kFromDestination});
    }
    if (result_.destination_distance[index] == 0 ||
        clamped < result_.destination_distance[index]) {
      result_.destination_distance[index] = clamped;
    }
    if (result_.trigger_ttl[index] == 0 ||
        probe->initial_ttl < result_.trigger_ttl[index]) {
      result_.trigger_ttl[index] = probe->initial_ttl;
    }
    if (!dest_done_[index]) {
      dest_done_[index] = true;
      ++result_.destinations_reached;
      tel.count(tel.ids.destinations_reached);
    }
  }
}

}  // namespace flashroute::baselines
