#include "baselines/yarrp.h"

#include <utility>

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
          result_, telemetry_, config_.collect_probe_log),
      recorder_(result_, telemetry_, config.first_prefix,
                config.num_prefixes(), config.collect_routes) {}

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
  recorder_.reset();
  last_new_interface_.assign(
      static_cast<std::size_t>(config_.protected_hops) + 1, sender_.now());

  const util::Nanos start = sender_.now();

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
    const std::uint32_t destination = core::random_target(
        config_.target_seed, config_.first_prefix + prefix_offset);
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
  return std::move(result_);
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
  const std::uint32_t responder = parsed->responder.value();

  if (parsed->is_tcp_rst) {
    // The destination answered our TCP-ACK with a RST: route endpoint.
    const auto index = recorder_.index_of(responder);
    if (!index) return;
    // Flow check: the RST's destination port echoes our source port, the
    // checksum of the target address.
    if (parsed->tcp_dst_port != net::address_checksum(parsed->responder)) {
      recorder_.mismatch();
      return;
    }
    recorder_.record_rst(*index, responder, arrival);
    return;
  }

  const auto reply = recorder_.match(codec_, *parsed, arrival);
  if (!reply) return;
  const std::uint32_t index = reply->index;
  if (parsed->is_time_exceeded()) {
    const std::uint8_t ttl = reply->probe.initial_ttl;
    const bool is_new = recorder_.record_hop(index, responder, ttl, 0);
    if (is_new && config_.protected_hops > 0 &&
        ttl <= config_.protected_hops) {
      last_new_interface_[ttl] = sender_.now();
    }
    // Fill mode: the farthest probed hop responded and is not the target —
    // extend the trace by exactly one hop (inherent gap limit 1, §4.2.1).
    if (config_.fill_mode && !recorder_.reached(index) &&
        ttl >= config_.exhaustive_ttl && ttl < config_.fill_max_ttl) {
      fill_queue_.push_back({reply->probe.destination.value(),
                             static_cast<std::uint8_t>(ttl + 1)});
    }
  } else if (core::ResponseRecorder::is_destination_reply(*parsed)) {
    recorder_.record_destination(index, responder, reply->probe, 0);
  }
}

}  // namespace flashroute::baselines
