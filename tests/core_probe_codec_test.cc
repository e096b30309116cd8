// Tests for FlashRoute's probe encoding (§3.1): the IPID bit-packing
// (5-bit TTL, preprobe bit, 10 timestamp bits), the 6 timestamp bits in the
// UDP length, checksum-as-source-port, and the RTT wraparound arithmetic.
// Parameterized sweeps cover the full TTL range and the timestamp space.

#include "core/probe_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <tuple>

#include "net/checksum.h"
#include "net/headers.h"
#include "net/packet.h"

namespace flashroute::core {
namespace {

constexpr net::Ipv4Address kVantage(0xCB00710A);
constexpr net::Ipv4Address kTarget(0x01020364);
constexpr net::Ipv4Address kRouter(0xC8000009);

/// Encodes a probe, crafts a router response quoting it, and decodes —
/// the full path a field takes through the system.
std::optional<DecodedProbe> round_trip(const ProbeCodec& codec,
                                       net::Ipv4Address target,
                                       std::uint8_t ttl, bool preprobe,
                                       util::Nanos when,
                                       std::uint8_t residual = 1) {
  std::array<std::byte, ProbeCodec::kMaxProbeSize> buf;
  const std::size_t size = codec.encode_udp(target, ttl, preprobe, when, buf);
  if (size == 0) return std::nullopt;
  const auto response = net::craft_icmp_response(
      net::kIcmpTimeExceeded, net::kIcmpCodeTtlExceeded, kRouter,
      std::span<const std::byte>(buf.data(), size), residual);
  if (!response) return std::nullopt;
  const auto parsed = net::parse_response(*response);
  if (!parsed) return std::nullopt;
  return codec.decode(*parsed);
}

class CodecTtlSweep
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(CodecTtlSweep, TtlAndPreprobeBitSurviveRoundTrip) {
  const auto [ttl, preprobe] = GetParam();
  const ProbeCodec codec(kVantage);
  const auto decoded = round_trip(codec, kTarget,
                                  static_cast<std::uint8_t>(ttl), preprobe,
                                  777 * util::kMillisecond);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->initial_ttl, ttl);
  EXPECT_EQ(decoded->preprobe, preprobe);
  EXPECT_EQ(decoded->destination, kTarget);
  EXPECT_TRUE(decoded->source_port_matches);
}

INSTANTIATE_TEST_SUITE_P(
    AllTtls, CodecTtlSweep,
    ::testing::Combine(::testing::Range(1, 33), ::testing::Bool()));

class CodecTimestampSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(CodecTimestampSweep, TimestampSurvives16BitRoundTrip) {
  const util::Nanos when = GetParam() * util::kMillisecond;
  const ProbeCodec codec(kVantage);
  const auto decoded = round_trip(codec, kTarget, 16, false, when);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->timestamp_ms,
            static_cast<std::uint16_t>(GetParam() & 0xFFFF));
}

INSTANTIATE_TEST_SUITE_P(Timestamps, CodecTimestampSweep,
                         ::testing::Values(0, 1, 1023, 1024, 4095, 65535,
                                           65536, 65537, 100000, 1234567,
                                           987654321));

TEST(ProbeCodec, RttComputationAndWraparound) {
  const ProbeCodec codec(kVantage);
  const util::Nanos sent = 1000 * util::kMillisecond;
  const auto decoded = round_trip(codec, kTarget, 8, false, sent);
  ASSERT_TRUE(decoded);
  // Normal case: 250 ms later.
  EXPECT_EQ(ProbeCodec::rtt(*decoded, sent + 250 * util::kMillisecond),
            250 * util::kMillisecond);
  // Wraparound: the 16-bit ms counter wraps every 65.536 s (§3.1 —
  // "less than the official maximum segment lifetime but more than enough").
  const util::Nanos wrapped_arrival =
      sent + (65536 + 100) * util::kMillisecond;
  EXPECT_EQ(ProbeCodec::rtt(*decoded, wrapped_arrival),
            100 * util::kMillisecond);
}

TEST(ProbeCodec, UdpLengthCarriesHighTimestampBits) {
  const ProbeCodec codec(kVantage);
  std::array<std::byte, ProbeCodec::kMaxProbeSize> buf;
  // ts = 0b101010_1010101010 -> high 6 bits = 0b101010 = 42 payload bytes.
  const std::uint16_t ts = (42u << 10) | 0x2AA;
  const std::size_t size =
      codec.encode_udp(kTarget, 1, false, static_cast<util::Nanos>(ts) *
                                              util::kMillisecond, buf);
  ASSERT_EQ(size, net::Ipv4Header::kSize + net::UdpHeader::kSize + 42);
  net::ByteReader reader(std::span<const std::byte>(buf.data(), size));
  const auto ip = net::Ipv4Header::parse(reader);
  ASSERT_TRUE(ip);
  EXPECT_EQ(ip->id & 0x3FF, 0x2AA);  // low 10 bits in the IPID
  const auto udp = net::UdpHeader::parse(reader);
  ASSERT_TRUE(udp);
  EXPECT_EQ(udp->length, net::UdpHeader::kSize + 42);
}

TEST(ProbeCodec, ProbeIsRealIpv4WithValidChecksum) {
  const ProbeCodec codec(kVantage);
  std::array<std::byte, ProbeCodec::kMaxProbeSize> buf;
  const std::size_t size = codec.encode_udp(kTarget, 16, false, 0, buf);
  ASSERT_GT(size, 0u);
  EXPECT_TRUE(net::verify_ipv4_checksum(
      std::span<const std::byte>(buf.data(), size)));
  net::ByteReader reader(std::span<const std::byte>(buf.data(), size));
  const auto ip = net::Ipv4Header::parse(reader);
  ASSERT_TRUE(ip);
  EXPECT_EQ(ip->src, kVantage);
  EXPECT_EQ(ip->dst, kTarget);
  EXPECT_EQ(ip->ttl, 16);
  EXPECT_EQ(ip->protocol, net::kProtoUdp);
  EXPECT_EQ(ip->total_length, size);
}

TEST(ProbeCodec, SourcePortIsDestinationChecksum) {
  const ProbeCodec codec(kVantage);
  std::array<std::byte, ProbeCodec::kMaxProbeSize> buf;
  const std::size_t size = codec.encode_udp(kTarget, 16, false, 0, buf);
  net::ByteReader reader(std::span<const std::byte>(buf.data(), size));
  (void)net::Ipv4Header::parse(reader);
  const auto udp = net::UdpHeader::parse(reader);
  ASSERT_TRUE(udp);
  EXPECT_EQ(udp->src_port, net::address_checksum(kTarget));
  EXPECT_EQ(udp->dst_port, net::kTracerouteDstPort);
}

TEST(ProbeCodec, PortOffsetShiftsFlowAndStillVerifies) {
  // Discovery-optimized extra scans use P' = P + i (§5.2); the shifted
  // codec must still accept its own responses...
  const ProbeCodec shifted(kVantage, /*port_offset=*/3);
  const auto decoded = round_trip(shifted, kTarget, 12, false, 0);
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(decoded->source_port_matches);

  // ...and a response to a *different* pass's probe must not verify
  // (stale cross-pass responses are dropped as mismatches).
  const ProbeCodec base(kVantage);
  std::array<std::byte, ProbeCodec::kMaxProbeSize> buf;
  const std::size_t size = base.encode_udp(kTarget, 12, false, 0, buf);
  const auto response = net::craft_icmp_response(
      net::kIcmpTimeExceeded, net::kIcmpCodeTtlExceeded, kRouter,
      std::span<const std::byte>(buf.data(), size), 1);
  const auto parsed = net::parse_response(*response);
  const auto cross = shifted.decode(*parsed);
  ASSERT_TRUE(cross);
  EXPECT_FALSE(cross->source_port_matches);
}

TEST(ProbeCodec, DetectsRewrittenDestination) {
  const ProbeCodec codec(kVantage);
  std::array<std::byte, ProbeCodec::kMaxProbeSize> buf;
  const std::size_t size = codec.encode_udp(kTarget, 32, false, 0, buf);
  const net::Ipv4Address rewritten(kTarget.value() ^ 0x00000070);
  const auto response = net::craft_icmp_response(
      net::kIcmpDestUnreachable, net::kIcmpCodePortUnreachable, rewritten,
      std::span<const std::byte>(buf.data(), size), 5, rewritten);
  const auto parsed = net::parse_response(*response);
  ASSERT_TRUE(parsed);
  const auto decoded = codec.decode(*parsed);
  ASSERT_TRUE(decoded);
  EXPECT_FALSE(decoded->source_port_matches);  // §5.3: drop it
}

TEST(ProbeCodec, ResidualTtlExposed) {
  const ProbeCodec codec(kVantage);
  const auto decoded =
      round_trip(codec, kTarget, 32, true, 0, /*residual=*/13);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->residual_ttl, 13);
  // distance = 32 - 13 + 1 = 20, the §3.3.1 derivation.
  EXPECT_EQ(decoded->initial_ttl - decoded->residual_ttl + 1, 20);
}

TEST(ProbeCodec, EncodeTcpMatchesYarrpConventions) {
  const ProbeCodec codec(kVantage);
  std::array<std::byte, ProbeCodec::kMaxProbeSize> buf;
  const util::Nanos when = 5000 * util::kMillisecond;
  const std::size_t size = codec.encode_tcp(kTarget, 24, when, buf);
  ASSERT_EQ(size, ProbeCodec::kTcpProbeSize);
  net::ByteReader reader(std::span<const std::byte>(buf.data(), size));
  const auto ip = net::Ipv4Header::parse(reader);
  ASSERT_TRUE(ip);
  EXPECT_EQ(ip->protocol, net::kProtoTcp);
  EXPECT_EQ(ip->ttl, 24);
  const auto tcp = net::TcpHeader::parse(reader);
  ASSERT_TRUE(tcp);
  EXPECT_EQ(tcp->flags, net::TcpHeader::kFlagAck);
  EXPECT_EQ(tcp->dst_port, 80);
  EXPECT_EQ(tcp->src_port, net::address_checksum(kTarget));
  EXPECT_EQ(tcp->seq, 5000u);  // elapsed ms in the sequence number
}

TEST(ProbeCodec, EveryTcpProbeCarriesAValidTcpChecksum) {
  // A live host drops a TCP segment whose checksum fails, so a Yarrp TCP-ACK
  // probe would draw no RST.  The sum over the pseudo-header (source,
  // destination, zero, protocol, TCP length) and the segment must fold to
  // 0xFFFF for every destination, source port and sequence number.
  std::mt19937 rng(0x7C9);
  std::uniform_int_distribution<std::uint32_t> addr_dist;
  std::uniform_int_distribution<std::int64_t> ms_dist(0, 5'000'000'000);
  std::array<std::byte, ProbeCodec::kMaxProbeSize> buf;
  for (int trial = 0; trial < 2000; ++trial) {
    const net::Ipv4Address dst(addr_dist(rng));
    const ProbeCodec codec(kVantage,
                           /*port_offset=*/static_cast<std::uint16_t>(trial));
    const std::size_t size = codec.encode_tcp(
        dst, static_cast<std::uint8_t>(1 + trial % 32),
        ms_dist(rng) * util::kMillisecond, buf);
    ASSERT_EQ(size, ProbeCodec::kTcpProbeSize);
    std::array<std::byte, 12> pseudo{};
    std::copy(buf.begin() + 12, buf.begin() + 20, pseudo.begin());
    pseudo[9] = std::byte{net::kProtoTcp};
    pseudo[11] = std::byte{net::TcpHeader::kSize};
    const std::span<const std::byte> segment(
        buf.data() + net::Ipv4Header::kSize, net::TcpHeader::kSize);
    ASSERT_EQ(net::checksum_finish(net::checksum_partial(
                  segment, net::checksum_partial(pseudo))),
              0)
        << "trial " << trial;
  }
}

TEST(ProbeCodec, TemplatePatchingMatchesFullSerializationRandomized) {
  // The codec serializes from a precomputed template, patching only the
  // variable fields and updating the IP checksum incrementally (RFC 1624).
  // Over randomized (destination, TTL, preprobe, timestamp, port offset),
  // every emitted probe must carry a checksum indistinguishable from a full
  // RFC 1071 recompute, and every header field must parse back exactly.
  std::mt19937 rng(0xF1A5);
  std::uniform_int_distribution<std::uint32_t> addr_dist;
  std::uniform_int_distribution<int> ttl_dist(1, 32);
  std::uniform_int_distribution<std::int64_t> ms_dist(0, 1'000'000);
  std::array<std::byte, ProbeCodec::kMaxProbeSize> buf;
  for (int trial = 0; trial < 2000; ++trial) {
    const net::Ipv4Address dst(addr_dist(rng));
    const auto ttl = static_cast<std::uint8_t>(ttl_dist(rng));
    const bool preprobe = (trial & 1) != 0;
    const util::Nanos when = ms_dist(rng) * util::kMillisecond;
    const ProbeCodec codec(kVantage,
                           /*port_offset=*/static_cast<std::uint16_t>(trial % 4));

    const bool tcp = trial % 3 == 0;
    const std::size_t size =
        tcp ? codec.encode_tcp(dst, ttl, when, buf)
            : codec.encode_udp(dst, ttl, preprobe, when, buf);
    ASSERT_GT(size, 0u);
    const std::span<const std::byte> wire(buf.data(), size);
    ASSERT_TRUE(net::verify_ipv4_checksum(wire))
        << "trial " << trial << ": incremental checksum diverged from a "
        << "full recompute";

    net::ByteReader reader(wire);
    const auto ip = net::Ipv4Header::parse(reader);
    ASSERT_TRUE(ip);
    EXPECT_EQ(ip->src, kVantage);
    EXPECT_EQ(ip->dst, dst);
    EXPECT_EQ(ip->ttl, ttl);
    EXPECT_EQ(ip->total_length, size);
    EXPECT_EQ(ip->protocol, tcp ? net::kProtoTcp : net::kProtoUdp);
    const std::uint16_t expected_port = static_cast<std::uint16_t>(
        net::address_checksum(dst) + trial % 4);
    if (tcp) {
      const auto l4 = net::TcpHeader::parse(reader);
      ASSERT_TRUE(l4);
      EXPECT_EQ(l4->src_port, expected_port);
      EXPECT_EQ(l4->seq, static_cast<std::uint32_t>(when / util::kMillisecond));
    } else {
      const auto l4 = net::UdpHeader::parse(reader);
      ASSERT_TRUE(l4);
      EXPECT_EQ(l4->src_port, expected_port);
      const auto ts =
          static_cast<std::uint16_t>((when / util::kMillisecond) & 0xFFFF);
      EXPECT_EQ(ip->id & 0x3FF, ts & 0x3FF);
      EXPECT_EQ((ip->id >> 10) & 1, preprobe ? 1 : 0);
      EXPECT_EQ(l4->length, net::UdpHeader::kSize + (ts >> 10));
    }
  }
}

TEST(ProbeCodec, EncodeFailsOnTinyBuffer) {
  const ProbeCodec codec(kVantage);
  std::array<std::byte, 10> tiny;
  EXPECT_EQ(codec.encode_udp(kTarget, 1, false, 0, tiny), 0u);
  EXPECT_EQ(codec.encode_tcp(kTarget, 1, 0, tiny), 0u);
}

TEST(ProbeCodec, DecodeRejectsNonIcmp) {
  const ProbeCodec codec(kVantage);
  net::ParsedResponse rst;
  rst.is_tcp_rst = true;
  EXPECT_FALSE(codec.decode(rst));
}

}  // namespace
}  // namespace flashroute::core
