// Real raw-socket path, end to end over loopback.
//
// When the environment grants CAP_NET_RAW (these tests skip cleanly when it
// does not), a FlashRoute UDP probe is written through the actual
// RawSocketRuntime to a loopback address; the kernel's own ICMP
// port-unreachable comes back through the raw ICMP socket and must decode
// through the §3.1 codec exactly like a simulated response.  This is the
// deployment path of examples/flashroute_cli --backend=raw.

#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "core/probe_codec.h"
#include "net/checksum.h"
#include "net/icmp.h"
#include "net/raw/raw_socket_transport.h"

namespace flashroute::net {
namespace {

std::unique_ptr<RawSocketRuntime> make_runtime_or_skip() {
  try {
    return std::make_unique<RawSocketRuntime>(/*pps=*/1000.0);
  } catch (const TransportError& error) {
    return nullptr;
  }
}

TEST(RawSocket, LoopbackProbeGetsKernelPortUnreachable) {
  auto runtime = make_runtime_or_skip();
  if (!runtime) GTEST_SKIP() << "raw sockets unavailable (need CAP_NET_RAW)";

  // Source and destination on loopback so the kernel answers locally.
  const Ipv4Address vantage = Ipv4Address::from_octets(127, 0, 0, 1);
  const Ipv4Address target = Ipv4Address::from_octets(127, 0, 0, 2);
  const core::ProbeCodec codec(vantage);

  std::array<std::byte, core::ProbeCodec::kMaxProbeSize> buf;
  const std::size_t size =
      codec.encode_udp(target, /*ttl=*/32, /*preprobe=*/true,
                       runtime->now(), buf);
  ASSERT_GT(size, 0u);
  EXPECT_TRUE(runtime->try_send({buf.data(), size}));

  // Collect responses for up to half a second of real time.
  std::optional<core::DecodedProbe> decoded;
  std::uint8_t icmp_type = 0, icmp_code = 0;
  const core::ScanRuntime::Sink sink = [&](std::span<const std::byte> packet,
                                           util::Nanos) {
    const auto parsed = parse_response(packet);
    if (!parsed || !parsed->is_destination_unreachable()) return;
    if (parsed->responder != target) return;
    const auto probe = codec.decode(*parsed);
    if (!probe || probe->destination != target) return;
    decoded = probe;
    icmp_type = parsed->icmp_type;
    icmp_code = parsed->icmp_code;
  };
  const util::Nanos deadline = runtime->now() + 500 * util::kMillisecond;
  while (!decoded && runtime->now() < deadline) {
    runtime->drain(sink);
  }

  if (!decoded) {
    GTEST_SKIP() << "no kernel ICMP on loopback in this environment";
  }
  EXPECT_EQ(icmp_type, kIcmpDestUnreachable);
  EXPECT_EQ(icmp_code, kIcmpCodePortUnreachable);
  // The kernel quoted our probe verbatim: every §3.1 field survives.
  EXPECT_EQ(decoded->initial_ttl, 32);
  EXPECT_TRUE(decoded->preprobe);
  EXPECT_TRUE(decoded->source_port_matches);
  // Loopback is zero hops of routing: residual TTL equals the initial TTL,
  // so the derived distance is 1.
  EXPECT_EQ(decoded->initial_ttl - decoded->residual_ttl + 1, 1);
}

TEST(RawSocket, PacingHoldsAtConfiguredRate) {
  auto runtime = make_runtime_or_skip();
  if (!runtime) GTEST_SKIP() << "raw sockets unavailable (need CAP_NET_RAW)";

  const Ipv4Address vantage = Ipv4Address::from_octets(127, 0, 0, 1);
  const core::ProbeCodec codec(vantage);
  std::array<std::byte, core::ProbeCodec::kMaxProbeSize> buf;
  const std::size_t size = codec.encode_udp(
      Ipv4Address::from_octets(127, 0, 0, 3), 32, false, 0, buf);

  const util::Nanos start = runtime->now();
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(runtime->try_send({buf.data(), size}));
  }
  const util::Nanos elapsed = runtime->now() - start;
  // 200 probes at 1 Kpps ≈ 200 ms minus the small initial burst allowance.
  EXPECT_GT(elapsed, 120 * util::kMillisecond);
  EXPECT_EQ(runtime->packets_sent(), 200u);
}

TEST(RawSocket, SetRateSlowsThePacing) {
  auto runtime = make_runtime_or_skip();
  if (!runtime) GTEST_SKIP() << "raw sockets unavailable (need CAP_NET_RAW)";

  const Ipv4Address vantage = Ipv4Address::from_octets(127, 0, 0, 1);
  const core::ProbeCodec codec(vantage);
  std::array<std::byte, core::ProbeCodec::kMaxProbeSize> buf;
  const std::size_t size = codec.encode_udp(
      Ipv4Address::from_octets(127, 0, 0, 3), 32, false, 0, buf);

  // Adaptive backoff drops the configured 1 Kpps to 200 pps: after the
  // 11-probe burst allowance, 60 probes take ≈ 245 ms instead of ≈ 49 ms.
  runtime->set_rate(200.0);
  const util::Nanos start = runtime->now();
  for (int i = 0; i < 60; ++i) {
    EXPECT_TRUE(runtime->try_send({buf.data(), size}));
  }
  EXPECT_GT(runtime->now() - start, 200 * util::kMillisecond);
}

}  // namespace
}  // namespace flashroute::net
