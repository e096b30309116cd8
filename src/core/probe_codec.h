// FlashRoute's stateless probe encoding (§3.1).
//
// Everything needed to interpret a response is carried inside the probe
// itself and echoed back in the ICMP quote:
//
//   IPID (16 bits):  [ 5 bits initial TTL-1 | 1 bit preprobe | 10 bits
//                      timestamp-ms (low) ]
//   UDP length:      8 (header) + payload, where payload carries the 6 high
//                    bits of the timestamp → 16-bit millisecond timestamp,
//                    wrapping in 65.536 s — "less than the official maximum
//                    segment lifetime but more than enough to derive the
//                    round-trip time" (§3.1)
//   UDP src port:    Internet checksum of the destination address, so a
//                    response whose quoted source port mismatches its quoted
//                    destination reveals in-flight address rewriting (§5.3)
//   UDP dst port:    33434 (+ a per-scan offset in discovery-optimized mode,
//                    which changes the flow label per extra scan, §5.2)
//
// The Yarrp baseline's Paris-TCP-ACK probes are also crafted here: they keep
// the checksum-as-source-port flow discipline and carry the elapsed time in
// the TCP sequence number, as Yarrp does.

#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/headers.h"
#include "net/icmp.h"
#include "net/ipv4.h"
#include "util/annotations.h"
#include "util/clock.h"

namespace flashroute::core {

/// Decoded view of the probe a response quotes.
struct DecodedProbe {
  net::Ipv4Address destination;  // quoted destination (post any rewriting)
  std::uint8_t initial_ttl = 0;
  bool preprobe = false;
  std::uint16_t timestamp_ms = 0;  // 16-bit wrapping milliseconds
  std::uint8_t residual_ttl = 0;   // TTL the probe had at the responder
  bool source_port_matches = false;  // checksum(dst) == quoted src port?
};

class ProbeCodec {
 public:
  /// `source` is the vantage address placed in every probe;
  /// `port_offset` shifts the source port in discovery-optimized extra scans
  /// (P' = P + i, §5.2) so per-flow load balancers pick different branches.
  ///
  /// Construction precomputes one serialized header template per protocol
  /// (all constant fields filled in, variable fields zeroed, IPv4 checksum
  /// computed once); encode_udp/encode_tcp then memcpy the template and
  /// patch only dst/TTL/IPID/src-port/length, folding the checksum with an
  /// RFC 1624 incremental update instead of re-summing the header — the
  /// technique Yarrp uses to sustain 100+ Kpps.
  explicit ProbeCodec(net::Ipv4Address source,
                      std::uint16_t port_offset = 0) noexcept;

  /// Crafts a FlashRoute UDP probe into `buffer`; returns the packet size.
  /// `buffer` must hold at least kMaxProbeSize bytes.
  [[nodiscard]] FR_HOT std::size_t encode_udp(net::Ipv4Address destination, std::uint8_t ttl,
                         bool preprobe, util::Nanos send_time,
                         std::span<std::byte> buffer) const noexcept;

  /// Crafts a Yarrp-style Paris-TCP-ACK probe.
  [[nodiscard]] FR_HOT std::size_t encode_tcp(net::Ipv4Address destination, std::uint8_t ttl,
                         util::Nanos send_time,
                         std::span<std::byte> buffer) const noexcept;

  /// Decodes the quoted probe of an ICMP response.  Returns nullopt when
  /// the quote is not one of our probes (wrong destination port family).
  [[nodiscard]] FR_HOT std::optional<DecodedProbe> decode(const net::ParsedResponse& response)
      const noexcept;

  /// Round-trip time implied by a decoded probe and its arrival instant,
  /// correcting for the 16-bit timestamp wraparound.
  [[nodiscard]] FR_HOT static util::Nanos rtt(const DecodedProbe& probe,
                         util::Nanos arrival) noexcept;

  /// Receive-path classifier for sharded runtimes: the /24 prefix index of
  /// the destination the response's quoted probe was aimed at, extracted
  /// with fixed-offset reads instead of a full parse — this runs on the
  /// single receiver thread for every arriving packet, so it must stay far
  /// cheaper than decode().  Returns nullopt for anything that is not an
  /// ICMP time-exceeded/unreachable quoting one of our UDP probes (notably
  /// TCP RSTs, which carry no quote to classify by).
  [[nodiscard]] FR_HOT static std::optional<std::uint32_t> classify_prefix24(
      std::span<const std::byte> packet) noexcept;

  std::uint16_t port_offset() const noexcept { return port_offset_; }

  /// Probe sizes: IP + UDP + up to 63 timestamp-encoding payload bytes.
  static constexpr std::size_t kMaxProbeSize =
      net::Ipv4Header::kSize + net::UdpHeader::kSize + 63;
  static constexpr std::size_t kTcpProbeSize =
      net::Ipv4Header::kSize + net::TcpHeader::kSize;

 private:
  FR_HOT static std::uint16_t timestamp_ms16(util::Nanos t) noexcept {
    return static_cast<std::uint16_t>((t / util::kMillisecond) & 0xFFFF);
  }

  net::Ipv4Address source_;
  std::uint16_t port_offset_;

  /// Precomputed probe templates (variable fields zeroed) and the IPv4
  /// checksum of each template header, the starting point of the per-probe
  /// incremental update.  The UDP template's payload region is all zeros, so
  /// one memcpy of `header + payload` bytes yields the finished packet body.
  /// The TCP template's segment checksum (over the pseudo-header) is patched
  /// the same way.  The UDP checksum stays 0, which means "none" in IPv4.
  std::array<std::byte, kMaxProbeSize> udp_template_{};
  std::array<std::byte, kTcpProbeSize> tcp_template_{};
  std::uint16_t udp_template_checksum_ = 0;
  std::uint16_t tcp_template_checksum_ = 0;
  std::uint16_t tcp_segment_checksum_ = 0;
};

}  // namespace flashroute::core
