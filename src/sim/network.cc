#include "sim/network.h"

#include <cstring>

#include "net/checksum.h"
#include "net/headers.h"
#include "net/packet.h"

namespace flashroute::sim {

SimNetwork::SimNetwork(const Topology& topology)
    : SimNetwork(topology, topology.params().faults) {}

SimNetwork::SimNetwork(const Topology& topology, const FaultParams& faults)
    : topology_(topology),
      rate_limiters_(topology.params().icmp_rate_limit_pps,
                     topology.params().icmp_rate_limit_burst,
                     topology.params().interface_pool_base,
                     static_cast<std::uint32_t>(
                         topology.allocated_pool_interfaces())),
      seed_rtt_(util::hash_combine(topology.params().seed, 0x727474)) {
  if (faults.any()) fault_plane_.emplace(faults, topology.params().seed);
}

FR_HOT bool SimNetwork::admit_response(std::uint32_t responder_ip, util::Nanos t) {
  if (rate_limiters_.admit(responder_ip, t)) return true;
  ++stats_.rate_limited;
  return false;
}

FR_HOT util::Nanos SimNetwork::arrival_time(util::Nanos send_time, int hop,
                                     std::uint64_t jitter_key) const noexcept {
  const auto& params = topology_.params();
  const util::Nanos jitter =
      params.rtt_jitter > 0
          ? static_cast<util::Nanos>(util::stable_bounded(
                seed_rtt_, jitter_key,
                static_cast<std::uint64_t>(params.rtt_jitter)))
          : 0;
  return send_time + params.rtt_base + params.rtt_per_hop * hop + jitter;
}

FR_HOT std::optional<ProcessedResponse> SimNetwork::process_into(
    std::span<const std::byte> probe, util::Nanos send_time,
    std::span<std::byte> out) {
  ++stats_.probes;

  // Decode the probe.  Every probe the codecs emit is a canonical
  // options-free IPv4 header (version 4, IHL 5) over UDP or TCP — those take
  // the fast path: five field loads at fixed offsets, no ByteReader, no
  // optionals.  Anything else (IP options, other protocols, truncated or
  // garbage bytes) falls back to the full parser, which classifies it
  // exactly as before.
  std::uint8_t ttl = 0;
  std::uint8_t protocol = 0;
  std::uint32_t dst_value = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  const auto u8 = [&probe](std::size_t i) {
    return std::to_integer<std::uint32_t>(probe[i]);
  };
  bool decoded = false;
  if (probe.size() >= net::Ipv4Header::kSize + net::UdpHeader::kSize &&
      u8(0) == 0x45) {
    protocol = static_cast<std::uint8_t>(u8(9));
    if (protocol == net::kProtoUdp ||
        (protocol == net::kProtoTcp &&
         probe.size() >= net::Ipv4Header::kSize + net::TcpHeader::kSize)) {
      ttl = static_cast<std::uint8_t>(u8(8));
      dst_value = u8(16) << 24 | u8(17) << 16 | u8(18) << 8 | u8(19);
      src_port = static_cast<std::uint16_t>(u8(20) << 8 | u8(21));
      dst_port = static_cast<std::uint16_t>(u8(22) << 8 | u8(23));
      decoded = true;
    }
  }
  if (!decoded) {
    net::ByteReader reader(probe);
    const auto ip = net::Ipv4Header::parse(reader);
    if (!ip) {
      ++stats_.malformed;
      return std::nullopt;
    }
    if (ip->protocol == net::kProtoUdp) {
      const auto udp = net::UdpHeader::parse(reader);
      if (!udp) {
        ++stats_.malformed;
        return std::nullopt;
      }
      src_port = udp->src_port;
      dst_port = udp->dst_port;
    } else if (ip->protocol == net::kProtoTcp) {
      const auto tcp = net::TcpHeader::parse(reader);
      if (!tcp) {
        ++stats_.malformed;
        return std::nullopt;
      }
      src_port = tcp->src_port;
      dst_port = tcp->dst_port;
    } else {
      ++stats_.malformed;
      return std::nullopt;
    }
    ttl = ip->ttl;
    protocol = ip->protocol;
    dst_value = ip->dst.value();
  }
  if (ttl == 0) {
    ++stats_.malformed;
    return std::nullopt;
  }
  const net::Ipv4Address dst_address(dst_value);

  // Probe-direction faults: blackholed prefixes, flapping links, random
  // loss.  Drawn from (destination, ttl, send_time) — stateless, so the
  // schedule replays identically across runs and resumes.
  if (fault_plane_ &&
      fault_plane_->drop_probe(dst_value, ttl, send_time)) {
    return std::nullopt;
  }

  // Per-flow label: what a Paris-style load balancer hashes (§3, Paris
  // traceroute keeps these constant so one target sees one path).
  const std::uint64_t flow =
      util::hash_combine(dst_value, src_port, dst_port, protocol);
  // Memoize the epoch: send times are non-decreasing (a documented contract
  // of process_into), so the division only runs when an epoch boundary is
  // actually crossed.
  if (send_time >= epoch_end_) {
    current_epoch_ = send_time / topology_.params().dynamics_epoch;
    epoch_end_ = (current_epoch_ + 1) * topology_.params().dynamics_epoch;
  }
  const std::int64_t epoch = current_epoch_;

  if (!topology_.resolve(dst_address, flow, epoch, route_)) {
    ++stats_.out_of_universe;
    return std::nullopt;
  }
  const Route& route = route_;

  // Where does the probe's TTL run out?  A TTL-rewriting middlebox at
  // (1-based) hop m resets the residual TTL of packets it forwards, so a
  // probe that passes it expires reset-1 hops later regardless of its
  // original TTL (but a packet expiring *at* the middlebox still expires
  // there).  Closed form of the hop-by-hop decrement walk; `residual` is
  // the TTL the packet would arrive at the far end with.
  int residual;
  int expire_pos;
  const int ttl_signed = ttl;
  if (route.middlebox_pos >= 1 && route.middlebox_pos <= route.num_hops &&
      ttl_signed > route.middlebox_pos) {
    const int reborn = route.middlebox_pos + route.middlebox_reset - 1;
    if (route.middlebox_reset >= 2 && reborn <= route.num_hops) {
      expire_pos = reborn;
      residual = 1;
    } else {
      expire_pos = 0;
      residual = route.middlebox_pos + route.middlebox_reset - 1 -
                 route.num_hops;
    }
  } else if (ttl_signed <= route.num_hops) {
    expire_pos = ttl_signed;
    residual = 1;
  } else {
    expire_pos = 0;
    residual = ttl_signed - route.num_hops;
  }

  if (expire_pos == 0 && !route.delivers) {
    if (route.loops) {
      // The dark tail bounces between two hops; the probe expires
      // `residual` hops into the loop.
      expire_pos = route.num_hops + residual;
    } else {
      ++stats_.dropped_dark;
      return std::nullopt;
    }
  }

  if (expire_pos != 0) {
    const std::uint32_t responder = route.hop_at(expire_pos);
    if (!topology_.interface_responds(responder, protocol)) {
      ++stats_.silent_interface;
      return std::nullopt;
    }
    if (!admit_response(responder, send_time)) return std::nullopt;
    const std::size_t size = net::craft_icmp_response_into(
        net::kIcmpTimeExceeded, net::kIcmpCodeTtlExceeded,
        net::Ipv4Address(responder), probe, /*residual_ttl=*/1, out);
    if (size == 0) {
      ++stats_.malformed;
      return std::nullopt;
    }
    ++stats_.time_exceeded_sent;
    const std::uint64_t jitter_key = util::hash_combine(
        dst_value, ttl, flow, static_cast<std::uint64_t>(epoch));
    return finish_response(dst_value, ttl, send_time,
                           arrival_time(send_time, expire_pos, jitter_key),
                           size, out);
  }

  // Delivered to a host: `residual` is the TTL it arrives with.
  const net::Ipv4Address host(route.delivered_address);
  if (!topology_.host_responds_delivered(host, protocol)) {
    ++stats_.silent_host;
    return std::nullopt;
  }
  if (!admit_response(host.value(), send_time)) return std::nullopt;

  std::size_t size;
  if (protocol == net::kProtoTcp) {
    size = net::craft_tcp_rst_into(probe, out);
  } else {
    size = net::craft_icmp_response_into(
        net::kIcmpDestUnreachable, net::kIcmpCodePortUnreachable, host, probe,
        static_cast<std::uint8_t>(residual), out,
        route.rewritten ? std::optional(host) : std::nullopt);
  }
  if (size == 0) {
    ++stats_.malformed;
    return std::nullopt;
  }
  ++stats_.destination_responses;
  const std::uint64_t jitter_key = util::hash_combine(
      dst_value, ttl, flow, static_cast<std::uint64_t>(epoch) ^ 1);
  return finish_response(
      dst_value, ttl, send_time,
      arrival_time(send_time, route.num_hops + 1, jitter_key), size, out);
}

// Response-direction faults, applied after the router/host has "sent" the
// response (the generation counters above stay truthful): loss swallows it,
// corruption flips delivered bytes, reordering adds bounded delay, and
// duplication schedules a trailing second copy.
FR_HOT std::optional<ProcessedResponse> SimNetwork::finish_response(
    std::uint32_t dst_value, std::uint8_t ttl, util::Nanos send_time,
    util::Nanos arrival, std::size_t size, std::span<std::byte> out) {
  if (!fault_plane_) return ProcessedResponse{arrival, size};
  FaultPlane& plane = *fault_plane_;
  if (plane.drop_response(dst_value, ttl, send_time)) return std::nullopt;
  (void)plane.corrupt_response(dst_value, ttl, send_time, out.first(size));
  arrival += plane.reorder_delay(dst_value, ttl, send_time);
  const util::Nanos lag = plane.duplicate_lag(dst_value, ttl, send_time);
  return ProcessedResponse{arrival, size, lag > 0 ? arrival + lag : 0};
}

FR_HOT Transmission SimNetwork::transmit(std::span<const std::byte> probe,
                                        util::Nanos send_time,
                                        ResponsePool& pool) {
  Transmission tx;
  if (fault_plane_ && fault_plane_->fail_send(send_time)) return tx;
  tx.sent = true;
  const ResponsePool::Slot slot = pool.acquire();
  const auto response = process_into(probe, send_time, pool.buffer(slot));
  if (!response) {
    pool.release(slot);
    return tx;
  }
  const auto size = static_cast<std::uint32_t>(response->size);
  tx.responses[tx.count++] = InFlight{response->arrival, slot, size};
  if (response->duplicate_arrival > 0) {
    const ResponsePool::Slot copy = pool.acquire();
    std::memcpy(pool.buffer(copy).data(), pool.buffer(slot).data(), size);
    tx.responses[tx.count++] =
        InFlight{response->duplicate_arrival, copy, size};
  }
  return tx;
}

std::optional<Delivery> SimNetwork::process(std::span<const std::byte> probe,
                                            util::Nanos send_time) {
  std::vector<std::byte> packet(net::kMaxResponseSize);
  const auto response = process_into(probe, send_time, packet);
  if (!response) return std::nullopt;
  packet.resize(response->size);
  return Delivery{response->arrival, std::move(packet)};
}

}  // namespace flashroute::sim
