// Real raw-socket path, end to end over loopback.
//
// When the environment grants CAP_NET_RAW (these tests skip cleanly when it
// does not), FlashRoute probes go out through core::ThreadedRuntime over
// net::RawSocketWire — the deployment path of flashroute_cli --backend=raw —
// to loopback addresses only.  The kernel's own ICMP errors come back
// through the raw ICMP socket and must decode through the §3.1 codec
// exactly like simulated responses.  Other processes' traffic can reach the
// raw sockets too (tests running in parallel, the host's own TCP), so every
// check picks out its own replies by content.

#include <sys/resource.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/probe_codec.h"
#include "core/threaded_runtime.h"
#include "net/checksum.h"
#include "net/headers.h"
#include "net/icmp.h"
#include "net/raw/raw_socket_wire.h"
#include "thread_allocations.h"

namespace flashroute::net {
namespace {

/// The live wire and the runtime over it.  Members destroy in reverse
/// order, so the receiver thread is joined before the wire's sockets close.
struct RawRuntime {
  RawSocketWire wire;
  core::ThreadedRuntime runtime{wire, /*probes_per_second=*/1000.0};
};

std::unique_ptr<RawRuntime> make_runtime_or_skip() {
  try {
    return std::make_unique<RawRuntime>();
  } catch (const TransportError& error) {
    return nullptr;
  }
}

constexpr std::uint16_t kClosedPort = kTracerouteDstPort;

/// A UDP datagram of `total_size` bytes (IPv4 header included) to a closed
/// port, its payload a byte-index pattern.
std::vector<std::byte> udp_datagram(Ipv4Address src, Ipv4Address dst,
                                    std::size_t total_size) {
  std::vector<std::byte> packet(total_size);
  ByteWriter writer(packet);
  Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(total_size);
  ip.ttl = 64;
  ip.protocol = kProtoUdp;
  ip.src = src;
  ip.dst = dst;
  ip.serialize(writer);
  UdpHeader udp;
  udp.src_port = 40'000;
  udp.dst_port = kClosedPort;
  udp.length = static_cast<std::uint16_t>(total_size - Ipv4Header::kSize);
  udp.serialize(writer);
  for (std::size_t i = writer.written(); i < total_size; ++i) {
    packet[i] = std::byte(i & 0xFF);
  }
  return packet;
}

/// The IPv4 total-length field of a received packet.
std::size_t ip_total_length(std::span<const std::byte> packet) {
  return (std::to_integer<std::size_t>(packet[2]) << 8) |
         std::to_integer<std::size_t>(packet[3]);
}

/// True when `packet` is the kernel's port-unreachable for a datagram this
/// file sent to `target`.
bool is_reply_from(std::span<const std::byte> packet, Ipv4Address target) {
  const auto parsed = parse_response(packet);
  return parsed && parsed->is_destination_unreachable() &&
         parsed->icmp_code == kIcmpCodePortUnreachable &&
         parsed->responder == target && parsed->inner_dst_port == kClosedPort;
}

TEST(RawSocket, LoopbackProbeGetsKernelPortUnreachable) {
  auto raw = make_runtime_or_skip();
  if (!raw) GTEST_SKIP() << "raw sockets unavailable (need CAP_NET_RAW)";
  core::ThreadedRuntime& runtime = raw->runtime;

  // Source and destination on loopback so the kernel answers locally.
  const Ipv4Address vantage = Ipv4Address::from_octets(127, 0, 0, 1);
  const Ipv4Address target = Ipv4Address::from_octets(127, 0, 0, 2);
  const core::ProbeCodec codec(vantage);

  std::array<std::byte, core::ProbeCodec::kMaxProbeSize> buf;
  const std::size_t size =
      codec.encode_udp(target, /*ttl=*/32, /*preprobe=*/true,
                       runtime.now(), buf);
  ASSERT_GT(size, 0u);
  EXPECT_TRUE(runtime.try_send({buf.data(), size}));

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
  const util::Nanos deadline = runtime.now() + 500 * util::kMillisecond;
  while (!decoded && runtime.now() < deadline) {
    runtime.drain(sink);
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

TEST(RawSocket, TcpAckGetsKernelRst) {
  auto raw = make_runtime_or_skip();
  if (!raw) GTEST_SKIP() << "raw sockets unavailable (need CAP_NET_RAW)";
  core::ThreadedRuntime& runtime = raw->runtime;

  // The kernel answers Yarrp's TCP-ACK probe with a bare RST only when the
  // probe's TCP checksum holds.  The RST quotes nothing, so the runtime must
  // deliver it unclassified; its destination port echoes the probe's source
  // port, the checksum of the target address.
  const Ipv4Address target = Ipv4Address::from_octets(127, 0, 0, 8);
  const core::ProbeCodec codec(Ipv4Address::from_octets(127, 0, 0, 1));
  std::array<std::byte, core::ProbeCodec::kTcpProbeSize> probe;
  ASSERT_EQ(codec.encode_tcp(target, 32, runtime.now(), probe),
            probe.size());
  EXPECT_TRUE(runtime.try_send(probe));

  bool rst = false;
  const core::ScanRuntime::Sink sink = [&](std::span<const std::byte> packet,
                                           util::Nanos) {
    const auto parsed = parse_response(packet);
    rst = rst || (parsed && parsed->is_tcp_rst && parsed->responder == target &&
                  parsed->tcp_dst_port == address_checksum(target));
  };
  const util::Nanos deadline = runtime.now() + 500 * util::kMillisecond;
  while (!rst && runtime.now() < deadline) {
    runtime.idle_until(runtime.now() + util::kMillisecond, sink);
  }
  EXPECT_TRUE(rst);
}

TEST(RawSocket, PacingHoldsAtConfiguredRate) {
  auto raw = make_runtime_or_skip();
  if (!raw) GTEST_SKIP() << "raw sockets unavailable (need CAP_NET_RAW)";
  core::ThreadedRuntime& runtime = raw->runtime;

  const Ipv4Address vantage = Ipv4Address::from_octets(127, 0, 0, 1);
  const core::ProbeCodec codec(vantage);
  std::array<std::byte, core::ProbeCodec::kMaxProbeSize> buf;
  const std::size_t size = codec.encode_udp(
      Ipv4Address::from_octets(127, 0, 0, 3), 32, false, 0, buf);

  const util::Nanos start = runtime.now();
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(runtime.try_send({buf.data(), size}));
  }
  const util::Nanos elapsed = runtime.now() - start;
  // 200 probes at 1 Kpps ≈ 200 ms minus the small initial burst allowance.
  EXPECT_GT(elapsed, 120 * util::kMillisecond);
  EXPECT_EQ(runtime.packets_sent(), 200u);
}

TEST(RawSocket, SetRateSlowsThePacing) {
  auto raw = make_runtime_or_skip();
  if (!raw) GTEST_SKIP() << "raw sockets unavailable (need CAP_NET_RAW)";
  core::ThreadedRuntime& runtime = raw->runtime;

  const Ipv4Address vantage = Ipv4Address::from_octets(127, 0, 0, 1);
  const core::ProbeCodec codec(vantage);
  std::array<std::byte, core::ProbeCodec::kMaxProbeSize> buf;
  const std::size_t size = codec.encode_udp(
      Ipv4Address::from_octets(127, 0, 0, 3), 32, false, 0, buf);

  // Adaptive backoff drops the configured 1 Kpps to 200 pps: after the
  // 11-probe burst allowance, 60 probes take ≈ 245 ms instead of ≈ 49 ms.
  runtime.set_rate(200.0);
  const util::Nanos start = runtime.now();
  for (int i = 0; i < 60; ++i) {
    EXPECT_TRUE(runtime.try_send({buf.data(), size}));
  }
  EXPECT_GT(runtime.now() - start, 200 * util::kMillisecond);
}

util::Nanos process_cpu_time() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);  // every thread of the process
  return (static_cast<util::Nanos>(usage.ru_utime.tv_sec) +
          usage.ru_stime.tv_sec) * util::kSecond +
         (static_cast<util::Nanos>(usage.ru_utime.tv_usec) +
          usage.ru_stime.tv_usec) * util::kMicrosecond;
}

TEST(RawSocket, IdleSleepsInsteadOfSpinning) {
  auto raw = make_runtime_or_skip();
  if (!raw) GTEST_SKIP() << "raw sockets unavailable (need CAP_NET_RAW)";
  core::ThreadedRuntime& runtime = raw->runtime;

  const core::ScanRuntime::Sink sink = [](std::span<const std::byte>,
                                          util::Nanos) {};
  const util::Nanos cpu_before = process_cpu_time();
  const util::Nanos start = runtime.now();
  runtime.idle_until(start + 300 * util::kMillisecond, sink);
  const util::Nanos wall = runtime.now() - start;
  const util::Nanos cpu = process_cpu_time() - cpu_before;

  // The receiver thread sleeps in poll(2) and the engine thread between
  // drains: a round barrier with nothing arriving costs a few percent of
  // one core, not all of it.
  EXPECT_GE(wall, 300 * util::kMillisecond);
  EXPECT_LT(cpu, wall / 4) << "idle used " << cpu << " ns of CPU in "
                           << wall << " ns";
}

TEST(RawSocket, DrainOfParkedRepliesDoesNotAllocate) {
  auto raw = make_runtime_or_skip();
  if (!raw) GTEST_SKIP() << "raw sockets unavailable (need CAP_NET_RAW)";
  core::ThreadedRuntime& runtime = raw->runtime;

  const Ipv4Address vantage = Ipv4Address::from_octets(127, 0, 0, 1);
  const core::ProbeCodec codec(vantage);
  std::array<std::byte, core::ProbeCodec::kMaxProbeSize> buf;
  for (std::uint8_t host = 1; host <= 16; ++host) {
    const std::size_t size = codec.encode_udp(
        Ipv4Address::from_octets(127, 0, 1, host), 32, false, 0, buf);
    EXPECT_TRUE(runtime.try_send({buf.data(), size}));
  }
  // Let the receiver thread park the kernel's replies in the ring.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // The sink is constructed (and any std::function storage allocated)
  // before the measurement window opens.
  std::uint64_t delivered = 0;
  const core::ScanRuntime::Sink sink =
      [&delivered](std::span<const std::byte>, util::Nanos) { ++delivered; };
  const std::uint64_t before = g_thread_allocations;
  runtime.drain(sink);
  const std::uint64_t after = g_thread_allocations;

  if (delivered == 0) {
    GTEST_SKIP() << "no kernel ICMP on loopback in this environment";
  }
  EXPECT_EQ(after - before, 0u)
      << "drain allocated while delivering " << delivered << " packets";
}

TEST(RawSocket, FullSizeIcmpErrorArrivesIntact) {
  auto raw = make_runtime_or_skip();
  if (!raw) GTEST_SKIP() << "raw sockets unavailable (need CAP_NET_RAW)";
  core::ThreadedRuntime& runtime = raw->runtime;

  // Linux quotes an offending datagram whole, up to the RFC 1812 cap: a
  // 64-byte datagram draws a 20 + 8 + 64 = 92-byte port unreachable, a
  // 548-byte one the largest ICMP error there is, 576 bytes.
  const Ipv4Address vantage = Ipv4Address::from_octets(127, 0, 0, 1);
  const Ipv4Address small_target = Ipv4Address::from_octets(127, 0, 0, 5);
  const Ipv4Address target = Ipv4Address::from_octets(127, 0, 0, 6);
  const std::vector<std::byte> datagram = udp_datagram(vantage, target, 548);
  EXPECT_TRUE(runtime.try_send(udp_datagram(vantage, small_target, 64)));
  EXPECT_TRUE(runtime.try_send(datagram));

  std::vector<std::byte> small_reply, reply;
  const core::ScanRuntime::Sink sink = [&](std::span<const std::byte> packet,
                                           util::Nanos) {
    if (is_reply_from(packet, small_target)) {
      small_reply.assign(packet.begin(), packet.end());
    }
    if (is_reply_from(packet, target)) {
      reply.assign(packet.begin(), packet.end());
    }
  };
  const util::Nanos deadline = runtime.now() + 500 * util::kMillisecond;
  while ((small_reply.empty() || reply.empty()) && runtime.now() < deadline) {
    runtime.idle_until(runtime.now() + util::kMillisecond, sink);
  }

  if (small_reply.empty() && reply.empty()) {
    GTEST_SKIP() << "no kernel ICMP on loopback in this environment";
  }
  EXPECT_EQ(small_reply.size(), 92u);
  ASSERT_EQ(reply.size(), 576u);
  EXPECT_EQ(ip_total_length(reply), reply.size());
  // The quote is the whole datagram: its UDP header and payload come back
  // byte for byte (the kernel may fill in the quoted IPv4 ID and checksum).
  constexpr std::size_t kQuote = 2 * Ipv4Header::kSize + 8;
  EXPECT_TRUE(std::equal(reply.begin() + kQuote, reply.end(),
                         datagram.begin() + Ipv4Header::kSize));
  EXPECT_EQ(runtime.packets_dropped(), 0u);
}

TEST(RawSocketWire, ReceiveIntoDropsRepliesLongerThanTheBuffer) {
  std::optional<RawSocketWire> wire;
  try {
    wire.emplace();
  } catch (const TransportError&) {
    GTEST_SKIP() << "raw sockets unavailable (need CAP_NET_RAW)";
  }
  const util::MonotonicClock clock;
  const Ipv4Address vantage = Ipv4Address::from_octets(127, 0, 0, 1);
  const Ipv4Address target = Ipv4Address::from_octets(127, 0, 0, 7);
  const std::vector<std::byte> datagram = udp_datagram(vantage, target, 548);
  std::vector<std::byte> buffer(65'536);

  // With room for it, the 576-byte reply arrives whole.
  ASSERT_TRUE(wire->try_transmit(datagram));
  bool answered = false;
  for (const util::Nanos deadline = clock.now() + util::kSecond;
       !answered && clock.now() < deadline;) {
    const std::size_t size =
        wire->receive_into(buffer, 10 * util::kMillisecond);
    answered = size == 576 && is_reply_from({buffer.data(), size}, target);
  }
  if (!answered) {
    GTEST_SKIP() << "no kernel ICMP on loopback in this environment";
  }

  // One byte short of it, the reply is consumed and dropped: the call
  // returns 0 without waiting out its timeout.  Whatever else arrives
  // meanwhile comes back whole, and nothing of ours does.
  ASSERT_TRUE(wire->try_transmit(datagram));
  const std::span<std::byte> short_buffer(buffer.data(), 575);
  constexpr util::Nanos kSlice = 100 * util::kMillisecond;
  bool returned_zero_early = false;
  for (const util::Nanos deadline = clock.now() + 3 * kSlice;
       clock.now() < deadline;) {
    const util::Nanos start = clock.now();
    const std::size_t size = wire->receive_into(short_buffer, kSlice);
    if (size == 0) {
      returned_zero_early |= clock.now() - start < kSlice * 9 / 10;
      continue;
    }
    EXPECT_EQ(ip_total_length(short_buffer.first(size)), size);
    EXPECT_FALSE(is_reply_from(short_buffer.first(size), target))
        << "a truncated prefix of the reply was delivered";
  }
  EXPECT_TRUE(returned_zero_early);
  // ...and it is gone, not left pending.
  for (const util::Nanos deadline = clock.now() + 50 * util::kMillisecond;
       clock.now() < deadline;) {
    const std::size_t size =
        wire->receive_into(buffer, 10 * util::kMillisecond);
    EXPECT_FALSE(size > 0 && is_reply_from({buffer.data(), size}, target))
        << "the dropped reply was still delivered";
  }
}

TEST(RawSocketWire, ReceiveIntoTimesOutWhenNothingIsPending) {
  std::optional<RawSocketWire> wire;
  try {
    wire.emplace();
  } catch (const TransportError&) {
    GTEST_SKIP() << "raw sockets unavailable (need CAP_NET_RAW)";
  }
  const util::MonotonicClock clock;
  std::vector<std::byte> buffer(65'536);
  constexpr util::Nanos kTimeout = 50 * util::kMillisecond;
  // Another process's packet ends a wait early; retry until one window
  // stays quiet.
  for (const util::Nanos deadline = clock.now() + 10 * util::kSecond;
       clock.now() < deadline;) {
    const util::Nanos start = clock.now();
    const std::size_t size = wire->receive_into(buffer, kTimeout);
    const util::Nanos waited = clock.now() - start;
    if (size > 0) continue;
    EXPECT_GE(waited, kTimeout - util::kMillisecond);
    EXPECT_LT(waited, 3 * kTimeout);
    return;
  }
  FAIL() << "no 50 ms window in 10 s was free of other traffic";
}

}  // namespace
}  // namespace flashroute::net
