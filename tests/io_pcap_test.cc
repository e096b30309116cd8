// Tests for the pcap capture layer (io/pcap.h): format round-trips,
// endianness/precision handling, and the CapturingRuntime decorator
// recording a real scan's traffic.

#include "io/pcap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>

#include "core/probe_codec.h"
#include "core/tracer.h"
#include "net/icmp.h"
#include "sim/network.h"
#include "sim/runtime.h"
#include "sim/topology.h"

namespace flashroute::io {
namespace {

std::vector<std::byte> bytes_of(std::initializer_list<unsigned> values) {
  std::vector<std::byte> out;
  for (const unsigned v : values) out.push_back(std::byte(v));
  return out;
}

TEST(Pcap, RoundTripsPackets) {
  std::stringstream stream;
  write_pcap_header(stream);
  const auto a = bytes_of({0x45, 0x00, 0x01});
  const auto b = bytes_of({0xDE, 0xAD, 0xBE, 0xEF, 0x99});
  write_pcap_packet(stream, 1'500'000'123, a);
  write_pcap_packet(stream, 2'000'000'456, b);

  const auto packets = read_pcap(stream);
  ASSERT_TRUE(packets);
  ASSERT_EQ(packets->size(), 2u);
  EXPECT_EQ((*packets)[0].time, 1'500'000'123);
  EXPECT_EQ((*packets)[0].bytes, a);
  EXPECT_EQ((*packets)[1].time, 2'000'000'456);
  EXPECT_EQ((*packets)[1].bytes, b);
}

TEST(Pcap, EmptyCaptureIsValid) {
  std::stringstream stream;
  write_pcap_header(stream);
  const auto packets = read_pcap(stream);
  ASSERT_TRUE(packets);
  EXPECT_TRUE(packets->empty());
}

TEST(Pcap, RejectsBadMagic) {
  std::stringstream stream("not a pcap file at all............");
  EXPECT_FALSE(read_pcap(stream));
}

TEST(Pcap, RejectsTruncatedRecord) {
  std::stringstream stream;
  write_pcap_header(stream);
  write_pcap_packet(stream, 0, bytes_of({1, 2, 3, 4}));
  const std::string full = stream.str();
  std::stringstream truncated(full.substr(0, full.size() - 2));
  EXPECT_FALSE(read_pcap(truncated));
}

TEST(Pcap, ReadsMicrosecondCaptures) {
  // Hand-build a little-endian microsecond capture with one packet.
  std::stringstream stream;
  const auto put_u32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) stream.put(static_cast<char>((v >> (8 * i)) & 0xFF));
  };
  put_u32(0xA1B2C3D4);  // microsecond magic
  put_u32(0x00040002);  // version 2.4 (little-endian u16 pair)
  put_u32(0);
  put_u32(0);
  put_u32(65535);
  put_u32(101);
  put_u32(3);      // seconds
  put_u32(500);    // microseconds
  put_u32(2);      // captured
  put_u32(2);      // original
  stream.put(0x45);
  stream.put(0x00);

  const auto packets = read_pcap(stream);
  ASSERT_TRUE(packets);
  ASSERT_EQ(packets->size(), 1u);
  EXPECT_EQ((*packets)[0].time, 3 * util::kSecond + 500'000);
  EXPECT_EQ((*packets)[0].bytes.size(), 2u);
}

TEST(CapturingRuntime, RecordsProbesAndResponses) {
  sim::SimParams params;
  params.prefix_bits = 6;
  const sim::Topology topology(params);
  sim::SimNetwork network(topology);
  sim::SimScanRuntime inner(
      network, sim::scaled_probe_rate(100'000.0, params.prefix_bits));

  std::stringstream capture;
  CapturingRuntime runtime(inner, capture);

  core::TracerConfig config;
  config.first_prefix = params.first_prefix;
  config.prefix_bits = params.prefix_bits;
  config.vantage = net::Ipv4Address(params.vantage_address);
  config.probes_per_second = sim::scaled_probe_rate(100'000.0, 6);
  config.preprobe = core::PreprobeMode::kNone;
  core::Tracer tracer(config, runtime);
  const auto result = tracer.run();

  const auto packets = read_pcap(capture);
  ASSERT_TRUE(packets);
  // Every probe and every processed response is in the capture.
  EXPECT_EQ(packets->size(), result.probes_sent + result.responses);

  // The capture decomposes into valid probes and valid responses.
  std::size_t probes = 0, responses = 0;
  for (const auto& packet : *packets) {
    if (net::parse_response(packet.bytes)) {
      ++responses;
    } else {
      ++probes;
    }
  }
  EXPECT_EQ(probes, result.probes_sent);
  EXPECT_EQ(responses, result.responses);

  // Probe timestamps are non-decreasing (virtual pacing).  Responses carry
  // their logical *arrival* time, which may predate later-written probes
  // (they are recorded when the engine drains them), so only the probe
  // stream is checked.
  util::Nanos last = 0;
  for (const auto& packet : *packets) {
    if (net::parse_response(packet.bytes)) continue;
    EXPECT_GE(packet.time, last);
    last = packet.time;
  }
}

core::TracerConfig capture_config(const sim::SimParams& params) {
  core::TracerConfig config;
  config.first_prefix = params.first_prefix;
  config.prefix_bits = params.prefix_bits;
  config.vantage = net::Ipv4Address(params.vantage_address);
  config.probes_per_second =
      sim::scaled_probe_rate(100'000.0, params.prefix_bits);
  config.preprobe = core::PreprobeMode::kNone;
  return config;
}

TEST(CapturingRuntime, ProbesCarryTheirOwnSendSlot) {
  // Each destination's backward and forward probe go out in consecutive
  // slots; at this rate a slot is seconds long, so a probe stamped with
  // any other slot's instant would encode a different timestamp.
  sim::SimParams params;
  params.prefix_bits = 6;
  const sim::Topology topology(params);
  sim::SimNetwork network(topology);
  const core::TracerConfig config = capture_config(params);
  sim::SimScanRuntime inner(network, config.probes_per_second);
  const util::Nanos interval = inner.send_time_of(1) - inner.send_time_of(0);

  std::stringstream capture;
  CapturingRuntime runtime(inner, capture);
  const auto result = core::Tracer(config, runtime).run();

  const auto packets = read_pcap(capture);
  ASSERT_TRUE(packets);
  const core::ProbeCodec codec(config.vantage);
  std::size_t probes = 0;
  for (const auto& packet : *packets) {
    if (net::parse_response(packet.bytes)) continue;
    ++probes;
    // The capture records a probe once it left, one slot after the instant
    // the probe was encoded at.
    const auto& bytes = packet.bytes;
    ASSERT_GE(bytes.size(), 20u);
    const std::uint32_t destination =
        (std::to_integer<std::uint32_t>(bytes[16]) << 24) |
        (std::to_integer<std::uint32_t>(bytes[17]) << 16) |
        (std::to_integer<std::uint32_t>(bytes[18]) << 8) |
        std::to_integer<std::uint32_t>(bytes[19]);
    std::array<std::byte, core::ProbeCodec::kMaxProbeSize> expected;
    const std::size_t size = codec.encode_udp(
        net::Ipv4Address(destination), std::to_integer<std::uint8_t>(bytes[8]),
        false, packet.time - interval, expected);
    ASSERT_EQ(bytes.size(), size);
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), expected.begin()))
        << "probe recorded at " << packet.time;
  }
  EXPECT_EQ(probes, result.probes_sent);
}

TEST(CapturingRuntime, CapturedScanUnderFaultsAndBackoffIsTheBareScan) {
  // Heavy loss drives adaptive backoff, which must slow the runtime under
  // the capture exactly as it slows a bare one.
  sim::SimParams params;
  params.prefix_bits = 8;
  params.seed = 6;
  params.faults.probe_loss = 0.7;
  params.faults.response_loss = 0.5;
  const sim::Topology topology(params);
  core::TracerConfig config = capture_config(params);
  config.probes_per_second = 100'000.0;
  config.min_round_duration = 100 * util::kMillisecond;
  config.max_retransmits = 1;
  config.adaptive_backoff = true;

  const auto scan = [&](bool captured) {
    sim::SimNetwork network(topology);
    sim::SimScanRuntime inner(network, config.probes_per_second);
    std::stringstream capture;
    CapturingRuntime capturing(inner, capture);
    core::ScanRuntime& runtime =
        captured ? static_cast<core::ScanRuntime&>(capturing) : inner;
    return core::Tracer(config, runtime).run();
  };
  const core::ScanResult bare = scan(false);
  const core::ScanResult captured = scan(true);

  ASSERT_GT(bare.rate_backoffs, 0u);
  EXPECT_EQ(captured.probes_sent, bare.probes_sent);
  EXPECT_EQ(captured.scan_time, bare.scan_time);
  EXPECT_EQ(captured.responses, bare.responses);
  EXPECT_EQ(captured.retransmits, bare.retransmits);
  EXPECT_EQ(captured.probe_timeouts, bare.probe_timeouts);
  EXPECT_EQ(captured.rate_backoffs, bare.rate_backoffs);
  EXPECT_EQ(captured.interfaces, bare.interfaces);
  EXPECT_EQ(captured.routes, bare.routes);
  EXPECT_EQ(captured.destination_distance, bare.destination_distance);
}

/// An inner runtime whose receive ring overflowed: it reports drops.
class DroppingRuntime final : public core::ScanRuntime {
 public:
  util::Nanos now() const noexcept override { return 0; }
  [[nodiscard]] bool try_send(std::span<const std::byte>) override {
    return true;
  }
  void drain(const Sink&) override {}
  void idle_until(util::Nanos, const Sink&) override {}
  std::uint64_t packets_dropped() const noexcept override { return 17; }
};

TEST(CapturingRuntime, ReportsTheInnerRuntimesDrops) {
  // A capture over a runtime that drops responses (a ThreadedRuntime whose
  // receive ring overflows) must not report a clean receive path.
  DroppingRuntime inner;
  std::stringstream capture;
  const CapturingRuntime runtime(inner, capture);
  EXPECT_EQ(runtime.packets_dropped(), 17u);
}

TEST(CapturingRuntime, CaptureOfAFaultedScanMatchesItsGoldenDigest) {
  // The decorator leaves the batch virtuals at their per-packet defaults,
  // so a captured scan sends every probe through the sim runtime's scalar
  // try_send, here with failed sends and duplicated responses.  The digest
  // is FNV-1a over every byte of the capture: each probe and response,
  // its timestamp and its place in the stream.
  sim::SimParams params;
  params.prefix_bits = 8;
  params.seed = 5;
  params.faults.duplicate_prob = 0.1;
  params.faults.send_fail_prob = 0.1;
  const sim::Topology topology(params);
  sim::SimNetwork network(topology);
  core::TracerConfig config = capture_config(params);
  config.preprobe = core::PreprobeMode::kRandom;
  config.max_retransmits = 1;
  sim::SimScanRuntime inner(network, config.probes_per_second);

  std::stringstream capture;
  CapturingRuntime runtime(inner, capture);
  const auto result = core::Tracer(config, runtime).run();

  ASSERT_GT(result.send_failures, 0u);
  ASSERT_GT(network.fault_plane()->stats().responses_duplicated, 0u);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const char c : capture.str()) {
    digest = (digest ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  EXPECT_EQ(digest, 0x284b02fe664b78deULL) << std::hex << digest;
}

}  // namespace
}  // namespace flashroute::io
