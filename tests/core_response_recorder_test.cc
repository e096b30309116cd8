// Tests for the one response path (core/response_recorder.h): matching a
// reply to its quoted probe, the §5.3 flow check, the scan-range check, the
// destination-distance derivation (§3.3.1) and its clamp, which unreachable
// codes count as the destination, and counting each reached /24 once,
// whether an unreachable or a TCP RST reaches it first.  Every case feeds
// hand-crafted replies to a recorder directly.

#include "core/response_recorder.h"

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <vector>

#include "net/headers.h"
#include "net/icmp.h"

namespace flashroute::core {
namespace {

constexpr net::Ipv4Address kVantage(0xCB00710A);
constexpr std::uint32_t kFirstPrefix = 0x010200;
constexpr std::uint32_t kNumPrefixes = 4;
constexpr net::Ipv4Address kTarget((kFirstPrefix + 1) << 8 | 0x64);
constexpr net::Ipv4Address kRouter(0xC8000009);
constexpr std::uint8_t kAdminProhibited = 13;

/// One engine's result, a disabled telemetry handle and a recorder over a
/// scan of kNumPrefixes /24s from kFirstPrefix.
struct Recording {
  ScanResult result;
  obs::ScanTelemetry telemetry;
  ProbeCodec codec{kVantage};
  ResponseRecorder recorder{result, telemetry, kFirstPrefix, kNumPrefixes,
                            /*collect_routes=*/true};

  Recording() { recorder.reset(); }

  /// A reply from `responder` quoting a TTL-`ttl` probe to `target` that
  /// arrived there with `residual` TTL left; `rewritten` replaces the
  /// quoted destination, as an in-flight middlebox would.
  static net::ParsedResponse reply(
      std::uint8_t type, std::uint8_t code, net::Ipv4Address responder,
      net::Ipv4Address target, std::uint8_t ttl, std::uint8_t residual,
      std::optional<net::Ipv4Address> rewritten = std::nullopt) {
    const ProbeCodec codec(kVantage);
    std::array<std::byte, ProbeCodec::kMaxProbeSize> probe;
    const std::size_t size = codec.encode_udp(target, ttl, false, 0, probe);
    const auto bytes = net::craft_icmp_response(
        type, code, responder, std::span(probe.data(), size), residual,
        rewritten);
    EXPECT_TRUE(bytes.has_value());
    const auto parsed = net::parse_response(*bytes);
    EXPECT_TRUE(parsed.has_value());
    return *parsed;
  }

  static net::ParsedResponse unreachable(std::uint8_t code, std::uint8_t ttl,
                                         std::uint8_t residual) {
    return reply(net::kIcmpDestUnreachable, code, kTarget, kTarget, ttl,
                 residual);
  }
};

TEST(ResponseRecorder, MatchesAReplyToItsQuotedProbe) {
  Recording r;
  const auto match = r.recorder.match(
      r.codec,
      Recording::reply(net::kIcmpTimeExceeded, net::kIcmpCodeTtlExceeded,
                       kRouter, kTarget, 9, 1),
      util::kSecond);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->index, 1u);
  EXPECT_EQ(match->probe.initial_ttl, 9);
  EXPECT_EQ(r.result.responses, 1u);
  EXPECT_EQ(r.result.mismatches, 0u);
}

TEST(ResponseRecorder, MismatchingQuoteIsTalliedAndDropped) {
  // The quoted destination no longer checksums to the quoted source port.
  Recording r;
  const net::Ipv4Address rewritten((kFirstPrefix + 2) << 8 | 0x07);
  const auto match = r.recorder.match(
      r.codec,
      Recording::reply(net::kIcmpDestUnreachable,
                       net::kIcmpCodePortUnreachable, rewritten, kTarget, 32,
                       20, rewritten),
      0);
  EXPECT_FALSE(match.has_value());
  EXPECT_EQ(r.result.mismatches, 1u);
  EXPECT_EQ(r.result.responses, 0u);
}

TEST(ResponseRecorder, QuoteOutsideTheScannedRangeIsDropped) {
  Recording r;
  for (const std::uint32_t prefix :
       {kFirstPrefix - 1, kFirstPrefix + kNumPrefixes}) {
    const auto match = r.recorder.match(
        r.codec,
        Recording::reply(net::kIcmpTimeExceeded, net::kIcmpCodeTtlExceeded,
                         kRouter, net::Ipv4Address(prefix << 8 | 1), 5, 1),
        0);
    EXPECT_FALSE(match.has_value()) << std::hex << prefix;
  }
  EXPECT_EQ(r.result.responses, 0u);
  EXPECT_EQ(r.result.mismatches, 0u);
}

TEST(ResponseRecorder, DistanceIsClampedToOneThrough255) {
  Recording r;
  // A residual TTL above the initial one (a middlebox reset it) still puts
  // the destination at least one hop away.
  const auto reset = r.recorder.match(
      r.codec, Recording::unreachable(net::kIcmpCodePortUnreachable, 4, 60),
      0);
  ASSERT_TRUE(reset.has_value());
  EXPECT_EQ(ResponseRecorder::distance(reset->probe), 1);
  EXPECT_EQ(r.recorder.record_destination(reset->index, kTarget.value(),
                                          reset->probe, 0),
            1);
  EXPECT_EQ(r.result.destination_distance[1], 1);

  DecodedProbe far;
  far.initial_ttl = 255;
  far.residual_ttl = 0;
  EXPECT_EQ(ResponseRecorder::distance(far), 255);

  const auto plain = r.recorder.match(
      r.codec, Recording::unreachable(net::kIcmpCodePortUnreachable, 32, 20),
      0);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(ResponseRecorder::distance(plain->probe), 13);
}

TEST(ResponseRecorder, OnlyPortHostAndProtocolUnreachablesAreTheDestination) {
  for (const std::uint8_t code :
       {net::kIcmpCodePortUnreachable, net::kIcmpCodeHostUnreachable,
        net::kIcmpCodeProtoUnreachable}) {
    EXPECT_TRUE(ResponseRecorder::is_destination_reply(
        Recording::unreachable(code, 32, 20)))
        << int{code};
  }
  for (const std::uint8_t code : {net::kIcmpCodeNetUnreachable,
                                  kAdminProhibited}) {
    EXPECT_FALSE(ResponseRecorder::is_destination_reply(
        Recording::unreachable(code, 32, 20)))
        << int{code};
  }
  EXPECT_FALSE(ResponseRecorder::is_destination_reply(
      Recording::reply(net::kIcmpTimeExceeded, net::kIcmpCodeTtlExceeded,
                       kRouter, kTarget, 5, 1)));
}

TEST(ResponseRecorder, SecondReplyFromTheSamePrefixDoesNotCountAgain) {
  Recording r;
  const auto far = r.recorder.match(
      r.codec, Recording::unreachable(net::kIcmpCodePortUnreachable, 20, 8),
      0);
  const auto near = r.recorder.match(
      r.codec, Recording::unreachable(net::kIcmpCodePortUnreachable, 16, 5),
      0);
  ASSERT_TRUE(far.has_value() && near.has_value());
  EXPECT_EQ(r.recorder.record_destination(far->index, kTarget.value(),
                                          far->probe, 0),
            13);
  EXPECT_EQ(r.recorder.record_destination(near->index, kTarget.value(),
                                          near->probe, 0),
            12);
  EXPECT_EQ(r.result.destinations_reached, 1u);
  EXPECT_EQ(r.result.destination_distance[1], 12);  // the minimum
  EXPECT_EQ(r.result.trigger_ttl[1], 16);
  // Destination replies are route entries, not discovered interfaces.
  EXPECT_TRUE(r.result.interfaces.empty());
  const std::vector<RouteHop> route = {
      {kTarget.value(), 13, RouteHop::kFromDestination},
      {kTarget.value(), 12, RouteHop::kFromDestination}};
  EXPECT_EQ(r.result.routes[1], route);
}

TEST(ResponseRecorder, PrefixReachedByARstAndAnUnreachableCountsOnce) {
  // A RST (Yarrp's TCP-ACK probe reached its target) carries no distance;
  // an unreachable from the same target gives the /24 its distance.  In
  // either order, the second reply finds the /24 already reached.
  for (const bool rst_first : {true, false}) {
    SCOPED_TRACE(rst_first ? "RST first" : "unreachable first");
    Recording r;
    const auto match = r.recorder.match(
        r.codec,
        Recording::unreachable(net::kIcmpCodePortUnreachable, 32, 20), 0);
    ASSERT_TRUE(match.has_value());
    EXPECT_FALSE(r.recorder.reached(1));
    if (rst_first) {
      r.recorder.record_rst(1, kTarget.value(), 0);
      EXPECT_EQ(r.result.destination_distance[1], 0);
    } else {
      r.recorder.record_destination(1, kTarget.value(), match->probe, 0);
    }
    EXPECT_TRUE(r.recorder.reached(1));
    EXPECT_EQ(r.result.destinations_reached, 1u);

    if (rst_first) {
      r.recorder.record_destination(1, kTarget.value(), match->probe, 0);
    } else {
      r.recorder.record_rst(1, kTarget.value(), 0);
    }
    EXPECT_EQ(r.result.destinations_reached, 1u);
    EXPECT_EQ(r.result.destination_distance[1], 13);
    EXPECT_EQ(r.result.responses, 2u);
    EXPECT_TRUE(r.result.interfaces.empty());
    EXPECT_EQ(r.result.routes[1].size(), 2u);
    EXPECT_FALSE(r.recorder.reached(0));
  }
}

TEST(ResponseRecorder, RouterHopJoinsTheInterfaceSetOnce) {
  Recording r;
  EXPECT_TRUE(r.recorder.record_hop(2, kRouter.value(), 3, 0));
  EXPECT_FALSE(r.recorder.record_hop(3, kRouter.value(), 3,
                                     RouteHop::kExtraScan));
  EXPECT_EQ(r.result.interfaces.size(), 1u);
  EXPECT_EQ(r.result.routes[2].size(), 1u);
  EXPECT_EQ(r.result.routes[3].front().flags, RouteHop::kExtraScan);
}

}  // namespace
}  // namespace flashroute::core
