#include "core/probe_codec.h"

#include <cstring>

#include "net/checksum.h"
#include "net/packet.h"

namespace flashroute::core {

namespace {

// IPID bit layout: [ttl-1 : 5][preprobe : 1][timestamp low bits : 10].
FR_HOT constexpr std::uint16_t pack_ipid(std::uint8_t ttl, bool preprobe,
                                  std::uint16_t ts_ms) noexcept {
  return static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>((ttl - 1) & 0x1F) << 11) |
      (static_cast<std::uint16_t>(preprobe ? 1 : 0) << 10) |
      (ts_ms & 0x03FF));
}

// Offsets of the fields encode_udp/encode_tcp patch into the templates.
constexpr std::size_t kIpTotalLength = 2;
constexpr std::size_t kIpId = 4;
constexpr std::size_t kIpTtlWord = 8;  // [ TTL | protocol ]
constexpr std::size_t kIpChecksum = 10;
constexpr std::size_t kIpSrc = 12;  // read for the TCP pseudo-header
constexpr std::size_t kIpDst = 16;
constexpr std::size_t kL4SrcPort = net::Ipv4Header::kSize;      // UDP & TCP
constexpr std::size_t kUdpLength = net::Ipv4Header::kSize + 4;
constexpr std::size_t kTcpSeq = net::Ipv4Header::kSize + 4;
constexpr std::size_t kTcpChecksum = net::Ipv4Header::kSize + 16;

std::uint16_t read_u16(std::span<const std::byte> buffer,
                       std::size_t offset) noexcept {
  return static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(buffer[offset]) << 8 |
      static_cast<std::uint16_t>(buffer[offset + 1]));
}

FR_HOT void patch_u16(std::span<std::byte> buffer, std::size_t offset,
               std::uint16_t v) noexcept {
  buffer[offset] = std::byte(v >> 8);
  buffer[offset + 1] = std::byte(v & 0xFF);
}

FR_HOT void patch_u32(std::span<std::byte> buffer, std::size_t offset,
               std::uint32_t v) noexcept {
  patch_u16(buffer, offset, static_cast<std::uint16_t>(v >> 16));
  patch_u16(buffer, offset + 2, static_cast<std::uint16_t>(v & 0xFFFF));
}

}  // namespace

ProbeCodec::ProbeCodec(net::Ipv4Address source,
                       std::uint16_t port_offset) noexcept
    : source_(source), port_offset_(port_offset) {
  // UDP template: zero-payload probe with dst/TTL/IPID/src-port zeroed.
  // The template checksum seeds the per-probe RFC 1624 update chain.
  {
    net::ByteWriter writer(udp_template_);
    net::Ipv4Header ip;
    ip.total_length = net::Ipv4Header::kSize + net::UdpHeader::kSize;
    ip.protocol = net::kProtoUdp;
    ip.src = source_;
    net::UdpHeader udp;
    udp.dst_port = net::kTracerouteDstPort;
    udp.length = net::UdpHeader::kSize;
    ip.serialize(writer);
    udp.serialize(writer);
    udp_template_checksum_ = read_u16(udp_template_, kIpChecksum);
  }
  // TCP template: Paris-TCP-ACK probe with dst/TTL/IPID/src-port/seq zeroed.
  {
    net::ByteWriter writer(tcp_template_);
    net::Ipv4Header ip;
    ip.total_length = kTcpProbeSize;
    ip.protocol = net::kProtoTcp;
    ip.src = source_;
    net::TcpHeader tcp;
    tcp.dst_port = 80;
    tcp.flags = net::TcpHeader::kFlagAck;
    tcp.window = 65535;
    ip.serialize(writer);
    tcp.serialize(writer);
    tcp_template_checksum_ = read_u16(tcp_template_, kIpChecksum);
    // The TCP checksum covers a pseudo-header (source and destination
    // address, protocol, TCP length) and the segment.
    const std::span<const std::byte> bytes(tcp_template_);
    std::uint32_t sum = net::checksum_partial(bytes.subspan(kIpSrc, 8));
    sum = net::checksum_partial(bytes.subspan(net::Ipv4Header::kSize), sum);
    tcp_segment_checksum_ =
        net::checksum_finish(sum + net::kProtoTcp + net::TcpHeader::kSize);
  }
}

FR_HOT std::size_t ProbeCodec::encode_udp(net::Ipv4Address destination,
                                   std::uint8_t ttl, bool preprobe,
                                   util::Nanos send_time,
                                   std::span<std::byte> buffer) const noexcept {
  const std::uint16_t ts = timestamp_ms16(send_time);
  // The 6 high timestamp bits ride in the payload length (§3.1) — unlike
  // Yarrp's UDP mode, which tries to fit the whole elapsed time there and
  // overruns the maximum packet size (§4.2.1 footnote).
  const std::size_t payload = (ts >> 10) & 0x3F;
  const std::size_t total =
      net::Ipv4Header::kSize + net::UdpHeader::kSize + payload;
  if (buffer.size() < total) return 0;

  // Fixed-size header copy (compiles to two vector moves) plus a zero fill
  // of the short payload; only five header fields remain to patch.
  constexpr std::size_t kHeaderBytes =
      net::Ipv4Header::kSize + net::UdpHeader::kSize;
  std::memcpy(buffer.data(), udp_template_.data(), kHeaderBytes);
  std::memset(buffer.data() + kHeaderBytes, 0, payload);
  const auto total_length = static_cast<std::uint16_t>(total);
  const std::uint16_t id = pack_ipid(ttl, preprobe, ts);
  const auto ttl_word =
      static_cast<std::uint16_t>(std::uint16_t{ttl} << 8 | net::kProtoUdp);
  const std::uint32_t dst = destination.value();
  patch_u16(buffer, kIpTotalLength, total_length);
  patch_u16(buffer, kIpId, id);
  patch_u16(buffer, kIpTtlWord, ttl_word);
  patch_u32(buffer, kIpDst, dst);
  patch_u16(buffer, kL4SrcPort,
            static_cast<std::uint16_t>(net::address_checksum(destination) +
                                       port_offset_));
  patch_u16(buffer, kUdpLength,
            static_cast<std::uint16_t>(net::UdpHeader::kSize + payload));

  std::uint16_t checksum = net::incremental_checksum_update(
      udp_template_checksum_,
      static_cast<std::uint16_t>(net::Ipv4Header::kSize +
                                 net::UdpHeader::kSize),
      total_length);
  checksum = net::incremental_checksum_update(checksum, 0, id);
  checksum =
      net::incremental_checksum_update(checksum, net::kProtoUdp, ttl_word);
  checksum = net::incremental_checksum_update(
      checksum, 0, static_cast<std::uint16_t>(dst >> 16));
  checksum = net::incremental_checksum_update(
      checksum, 0, static_cast<std::uint16_t>(dst & 0xFFFF));
  patch_u16(buffer, kIpChecksum, checksum);
  return total;
}

FR_HOT std::size_t ProbeCodec::encode_tcp(net::Ipv4Address destination,
                                   std::uint8_t ttl, util::Nanos send_time,
                                   std::span<std::byte> buffer) const noexcept {
  if (buffer.size() < kTcpProbeSize) return 0;
  std::memcpy(buffer.data(), tcp_template_.data(), kTcpProbeSize);

  const std::uint16_t id = pack_ipid(ttl, false, timestamp_ms16(send_time));
  const auto ttl_word =
      static_cast<std::uint16_t>(std::uint16_t{ttl} << 8 | net::kProtoTcp);
  const std::uint32_t dst = destination.value();
  const auto src_port = static_cast<std::uint16_t>(
      net::address_checksum(destination) + port_offset_);
  // Yarrp encodes the elapsed time into the sequence number of its TCP-ACK
  // probes; millisecond granularity is plenty for RTT purposes.
  const auto seq = static_cast<std::uint32_t>(send_time / util::kMillisecond);
  patch_u16(buffer, kIpId, id);
  patch_u16(buffer, kIpTtlWord, ttl_word);
  patch_u32(buffer, kIpDst, dst);
  patch_u16(buffer, kL4SrcPort, src_port);
  patch_u32(buffer, kTcpSeq, seq);

  std::uint16_t checksum =
      net::incremental_checksum_update(tcp_template_checksum_, 0, id);
  checksum =
      net::incremental_checksum_update(checksum, net::kProtoTcp, ttl_word);
  checksum = net::incremental_checksum_update(
      checksum, 0, static_cast<std::uint16_t>(dst >> 16));
  checksum = net::incremental_checksum_update(
      checksum, 0, static_cast<std::uint16_t>(dst & 0xFFFF));
  patch_u16(buffer, kIpChecksum, checksum);

  // The segment checksum sees the destination through the pseudo-header.
  std::uint16_t segment = tcp_segment_checksum_;
  for (const std::uint16_t word :
       {static_cast<std::uint16_t>(dst >> 16),
        static_cast<std::uint16_t>(dst & 0xFFFF), src_port,
        static_cast<std::uint16_t>(seq >> 16),
        static_cast<std::uint16_t>(seq & 0xFFFF)}) {
    segment = net::incremental_checksum_update(segment, 0, word);
  }
  patch_u16(buffer, kTcpChecksum, segment);
  return kTcpProbeSize;
}

FR_HOT std::optional<DecodedProbe> ProbeCodec::decode(
    const net::ParsedResponse& response) const noexcept {
  if (!response.is_icmp) return std::nullopt;

  DecodedProbe probe;
  probe.destination = response.inner.dst;
  probe.residual_ttl = response.inner.ttl;
  probe.initial_ttl =
      static_cast<std::uint8_t>(((response.inner.id >> 11) & 0x1F) + 1);
  probe.preprobe = ((response.inner.id >> 10) & 1) != 0;

  const std::uint16_t ts_low = response.inner.id & 0x03FF;
  std::uint16_t ts_high = 0;
  if (response.inner.protocol == net::kProtoUdp) {
    if (response.inner_udp_length < net::UdpHeader::kSize) return std::nullopt;
    ts_high = static_cast<std::uint16_t>(
        (response.inner_udp_length - net::UdpHeader::kSize) & 0x3F);
  }
  probe.timestamp_ms = static_cast<std::uint16_t>((ts_high << 10) | ts_low);

  const std::uint16_t expected = static_cast<std::uint16_t>(
      net::address_checksum(response.inner.dst) + port_offset_);
  probe.source_port_matches = response.inner_src_port == expected;
  return probe;
}

FR_HOT std::optional<std::uint32_t> ProbeCodec::classify_prefix24(
    std::span<const std::byte> packet) noexcept {
  const auto byte_at = [&](std::size_t i) {
    return static_cast<std::uint8_t>(packet[i]);
  };
  // Outer IPv4 header: version 4, honor IHL, protocol ICMP.
  if (packet.size() < net::Ipv4Header::kSize) return std::nullopt;
  if ((byte_at(0) >> 4) != 4) return std::nullopt;
  const std::size_t outer_ihl = static_cast<std::size_t>(byte_at(0) & 0x0F) * 4;
  if (outer_ihl < net::Ipv4Header::kSize) return std::nullopt;
  if (byte_at(9) != net::kProtoIcmp) return std::nullopt;

  // ICMP header: only the two traceroute response types quote a probe.
  const std::size_t icmp = outer_ihl;
  if (packet.size() < icmp + net::IcmpHeader::kSize) return std::nullopt;
  const std::uint8_t type = byte_at(icmp);
  if (type != net::kIcmpTimeExceeded && type != net::kIcmpDestUnreachable) {
    return std::nullopt;
  }

  // Quoted probe header: IPv4 over UDP; its destination names the /24.
  const std::size_t inner = icmp + net::IcmpHeader::kSize;
  if (packet.size() < inner + net::Ipv4Header::kSize) return std::nullopt;
  if ((byte_at(inner) >> 4) != 4) return std::nullopt;
  if (byte_at(inner + 9) != net::kProtoUdp) return std::nullopt;
  const std::uint32_t dst = (static_cast<std::uint32_t>(byte_at(inner + 16))
                             << 24) |
                            (static_cast<std::uint32_t>(byte_at(inner + 17))
                             << 16) |
                            (static_cast<std::uint32_t>(byte_at(inner + 18))
                             << 8) |
                            static_cast<std::uint32_t>(byte_at(inner + 19));
  return dst >> 8;
}

FR_HOT util::Nanos ProbeCodec::rtt(const DecodedProbe& probe,
                            util::Nanos arrival) noexcept {
  const std::uint16_t arrival_ms =
      static_cast<std::uint16_t>((arrival / util::kMillisecond) & 0xFFFF);
  const std::uint16_t delta =
      static_cast<std::uint16_t>(arrival_ms - probe.timestamp_ms);
  return static_cast<util::Nanos>(delta) * util::kMillisecond;
}

}  // namespace flashroute::core
