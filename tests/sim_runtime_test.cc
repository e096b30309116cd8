// Tests for the virtual-time scan runtime (sim/runtime.h): pacing, response
// delivery ordering, the round-barrier idle, and the NullRuntime used by the
// Table 5 speed bench.

#include "sim/runtime.h"

#include <gtest/gtest.h>

#include <array>

#include "core/probe_codec.h"
#include "core/runtime.h"
#include "net/icmp.h"
#include "sim/network.h"

namespace flashroute::sim {
namespace {

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest()
      : params_([] {
          SimParams p;
          p.prefix_bits = 8;
          p.seed = 4;
          return p;
        }()),
        topology_(params_),
        network_(topology_),
        codec_(net::Ipv4Address(params_.vantage_address)) {}

  std::vector<std::byte> make_probe(std::uint32_t prefix_offset,
                                    std::uint8_t ttl, util::Nanos when) {
    std::array<std::byte, core::ProbeCodec::kMaxProbeSize> buf;
    const net::Ipv4Address dest(
        ((params_.first_prefix + prefix_offset) << 8) | 1);
    const std::size_t size = codec_.encode_udp(dest, ttl, false, when, buf);
    return {buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(size)};
  }

  SimParams params_;
  Topology topology_;
  SimNetwork network_;
  core::ProbeCodec codec_;
};

TEST_F(RuntimeTest, SendAdvancesClockByProbeInterval) {
  SimScanRuntime runtime(network_, /*pps=*/1000.0);
  EXPECT_EQ(runtime.now(), 0);
  EXPECT_TRUE(runtime.try_send(make_probe(0, 1, 0)));
  EXPECT_EQ(runtime.now(), util::kMillisecond);  // 1/1000 s per probe
  EXPECT_TRUE(runtime.try_send(make_probe(0, 2, runtime.now())));
  EXPECT_EQ(runtime.now(), 2 * util::kMillisecond);
  EXPECT_EQ(runtime.packets_sent(), 2u);
}

TEST_F(RuntimeTest, ResponsesArriveOnlyAfterTheirRtt) {
  SimScanRuntime runtime(network_, 1000.0);
  EXPECT_TRUE(runtime.try_send(make_probe(0, 1, 0)));
  int delivered = 0;
  const core::ScanRuntime::Sink sink =
      [&](std::span<const std::byte>, util::Nanos) { ++delivered; };
  runtime.drain(sink);  // RTT hasn't elapsed yet at 1 ms of virtual time
  EXPECT_EQ(delivered, 0);
  runtime.idle_until(runtime.now() + util::kSecond, sink);
  EXPECT_EQ(delivered, 1);
}

TEST_F(RuntimeTest, DeliveryCarriesArrivalTime) {
  SimScanRuntime runtime(network_, 1000.0);
  EXPECT_TRUE(runtime.try_send(make_probe(0, 1, 0)));
  util::Nanos arrival = -1;
  runtime.idle_until(util::kSecond, [&](std::span<const std::byte>,
                                        util::Nanos t) { arrival = t; });
  ASSERT_GE(arrival, params_.rtt_base);
  EXPECT_LE(arrival, util::kSecond);
}

TEST_F(RuntimeTest, ResponsesDeliveredInArrivalOrder) {
  SimScanRuntime runtime(network_, 100'000.0);
  // A far probe first, then a near probe: the near response must still be
  // delivered first (its RTT is shorter).
  EXPECT_TRUE(runtime.try_send(make_probe(0, 12, 0)));
  EXPECT_TRUE(runtime.try_send(make_probe(0, 1, runtime.now())));
  std::vector<util::Nanos> arrivals;
  runtime.idle_until(util::kSecond, [&](std::span<const std::byte>,
                                        util::Nanos t) {
    arrivals.push_back(t);
  });
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_LE(arrivals[0], arrivals[1]);
}

TEST_F(RuntimeTest, IdleUntilAdvancesClockEvenWithoutEvents) {
  SimScanRuntime runtime(network_, 1000.0);
  const core::ScanRuntime::Sink sink = [](std::span<const std::byte>,
                                          util::Nanos) {};
  runtime.idle_until(5 * util::kSecond, sink);
  EXPECT_EQ(runtime.now(), 5 * util::kSecond);
  // Idling backwards is a no-op.
  runtime.idle_until(util::kSecond, sink);
  EXPECT_EQ(runtime.now(), 5 * util::kSecond);
}

TEST_F(RuntimeTest, PacketBytesSurviveQueueing) {
  SimScanRuntime runtime(network_, 1000.0);
  EXPECT_TRUE(runtime.try_send(make_probe(0, 1, 0)));
  bool parsed_ok = false;
  runtime.idle_until(util::kSecond,
                     [&](std::span<const std::byte> packet, util::Nanos) {
                       parsed_ok = net::parse_response(packet).has_value();
                     });
  EXPECT_TRUE(parsed_ok);
}

TEST(NullRuntime, CountsAndDiscards) {
  core::NullRuntime runtime;
  const std::array<std::byte, 4> packet{};
  EXPECT_TRUE(runtime.try_send(packet));
  EXPECT_TRUE(runtime.try_send(packet));
  EXPECT_EQ(runtime.packets_sent(), 2u);
  int delivered = 0;
  const core::ScanRuntime::Sink sink =
      [&](std::span<const std::byte>, util::Nanos) { ++delivered; };
  runtime.drain(sink);
  runtime.idle_until(runtime.now() + util::kSecond, sink);  // returns now
  EXPECT_EQ(delivered, 0);
}

TEST(NullRuntime, ClockIsReal) {
  core::NullRuntime runtime;
  const util::Nanos a = runtime.now();
  const util::Nanos b = runtime.now();
  EXPECT_LE(a, b);
}

}  // namespace
}  // namespace flashroute::sim
