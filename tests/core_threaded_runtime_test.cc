// Tests for the real-time decoupled runtime (core/threaded_runtime.h): the
// paper's sender/receiver thread architecture running an actual FlashRoute
// scan against the simulator over an in-memory wire, in real time, with
// and without retransmissions under probe loss.

#include "core/threaded_runtime.h"

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <stdexcept>
#include <vector>

#include "core/tracer.h"
#include "sim/network.h"
#include "sim/runtime.h"
#include "sim/sim_wire.h"
#include "sim/topology.h"

namespace flashroute::core {
namespace {

using sim::RealTimeSimWire;

TEST(ThreadedRuntime, RealTimeScanMatchesVirtualTimeScan) {
  sim::SimParams params;
  params.prefix_bits = 6;  // 64 prefixes: a sub-second real-time scan
  params.seed = 12;
  // Shrink RTTs so responses land within the shortened rounds.
  params.rtt_base = 200'000;     // 0.2 ms
  params.rtt_per_hop = 50'000;   // 0.05 ms
  params.rtt_jitter = 100'000;
  const sim::Topology topology(params);

  TracerConfig config;
  config.first_prefix = params.first_prefix;
  config.prefix_bits = params.prefix_bits;
  config.vantage = net::Ipv4Address(params.vantage_address);
  config.preprobe = PreprobeMode::kNone;
  config.min_round_duration = 10 * util::kMillisecond;
  config.probes_per_second = 20'000.0;

  // Real time, decoupled threads.
  RealTimeSimWire wire(topology, params.first_prefix,
                       std::uint32_t{1} << params.prefix_bits);
  ScanResult threaded;
  {
    ThreadedRuntime runtime(wire, config.probes_per_second);
    Tracer tracer(config, runtime);
    threaded = tracer.run();
  }

  // Virtual time, single-threaded reference.
  sim::SimNetwork virtual_network(topology);
  sim::SimScanRuntime virtual_runtime(virtual_network,
                                      config.probes_per_second);
  auto reference_config = config;
  reference_config.min_round_duration = util::kSecond;
  Tracer reference_tracer(reference_config, virtual_runtime);
  const ScanResult reference = reference_tracer.run();

  // Real-time scheduling is nondeterministic, but the discovered topology
  // must be essentially the same world.
  EXPECT_GT(threaded.probes_sent, 0u);
  EXPECT_GT(threaded.interfaces.size(), reference.interfaces.size() * 8 / 10);
  EXPECT_LT(threaded.interfaces.size(),
            reference.interfaces.size() * 12 / 10 + 10);
  EXPECT_GT(threaded.destinations_reached,
            reference.destinations_reached * 7 / 10);
  // The engine adapted: backward probing stopped at convergence points even
  // with the receiver racing the sender (the per-DCB locks at work).
  EXPECT_GT(threaded.convergence_stops, 0u);
  // ...which keeps the probe count well below exhaustive probing.
  EXPECT_LT(threaded.probes_sent,
            std::uint64_t{config.num_prefixes()} * 32u);
}

TEST(ThreadedRuntime, RetransmittingScanCompletes) {
  sim::SimParams params;
  params.prefix_bits = 6;
  params.seed = 12;
  params.rtt_base = 200'000;     // 0.2 ms
  params.rtt_per_hop = 50'000;   // 0.05 ms
  params.rtt_jitter = 100'000;
  params.faults.probe_loss = 0.2;
  const sim::Topology topology(params);

  TracerConfig config;
  config.first_prefix = params.first_prefix;
  config.prefix_bits = params.prefix_bits;
  config.vantage = net::Ipv4Address(params.vantage_address);
  config.preprobe = PreprobeMode::kNone;
  config.min_round_duration = 10 * util::kMillisecond;
  config.probes_per_second = 20'000.0;
  config.max_retransmits = 2;
  config.retransmit_timeout = 5 * util::kMillisecond;

  // Retransmission deadlines come from the wall clock here: the queue's
  // non-decreasing-deadline precondition must hold on this path too.
  RealTimeSimWire wire(topology, params.first_prefix,
                       std::uint32_t{1} << params.prefix_bits);
  ThreadedRuntime runtime(wire, config.probes_per_second);
  Tracer tracer(config, runtime);
  const ScanResult result = tracer.run();

  EXPECT_FALSE(tracer.aborted());
  EXPECT_GT(result.retransmits, 0u);
  EXPECT_GT(result.interfaces.size(), 0u);
  EXPECT_GT(result.destinations_reached, 0u);
}

TEST(ThreadedRuntime, DrainDeliversFromReceiverThread) {
  sim::SimParams params;
  params.prefix_bits = 4;
  params.rtt_base = 100'000;
  params.rtt_per_hop = 10'000;
  params.rtt_jitter = 0;
  const sim::Topology topology(params);
  RealTimeSimWire wire(topology, params.first_prefix,
                       std::uint32_t{1} << params.prefix_bits);
  ThreadedRuntime runtime(wire, 10'000.0);

  const ProbeCodec codec(net::Ipv4Address(params.vantage_address));
  std::array<std::byte, ProbeCodec::kMaxProbeSize> buf;
  const net::Ipv4Address dest((params.first_prefix << 8) | 1);
  const std::size_t size = codec.encode_udp(dest, 1, false, 0, buf);
  EXPECT_TRUE(runtime.try_send({buf.data(), size}));

  int received = 0;
  const ScanRuntime::Sink sink = [&](std::span<const std::byte> packet,
                                     util::Nanos) {
    if (net::parse_response(packet)) ++received;
  };
  runtime.idle_until(runtime.now() + 200 * util::kMillisecond, sink);
  EXPECT_EQ(received, 1);
}

TEST(ThreadedRuntime, ThrottlePacesSends) {
  sim::SimParams params;
  params.prefix_bits = 4;
  const sim::Topology topology(params);
  RealTimeSimWire wire(topology, params.first_prefix,
                       std::uint32_t{1} << params.prefix_bits);
  ThreadedRuntime runtime(wire, /*pps=*/2'000.0);

  const ProbeCodec codec(net::Ipv4Address(params.vantage_address));
  std::array<std::byte, ProbeCodec::kMaxProbeSize> buf;
  const net::Ipv4Address dest((params.first_prefix << 8) | 1);
  const std::size_t size = codec.encode_udp(dest, 1, false, 0, buf);

  const util::Nanos start = runtime.now();
  for (int i = 0; i < 400; ++i) {
    EXPECT_TRUE(runtime.try_send({buf.data(), size}));
  }
  const util::Nanos elapsed = runtime.now() - start;
  // 400 probes at 2 Kpps ≈ 200 ms (minus the initial burst allowance).
  EXPECT_GT(elapsed, 120 * util::kMillisecond);
  EXPECT_EQ(runtime.packets_sent(), 400u);
}

TEST(ThreadedRuntime, SetRateSlowsThePacing) {
  sim::SimParams params;
  params.prefix_bits = 4;
  const sim::Topology topology(params);
  RealTimeSimWire wire(topology, params.first_prefix,
                       std::uint32_t{1} << params.prefix_bits);
  ThreadedRuntime runtime(wire, /*pps=*/1'000.0);

  const ProbeCodec codec(net::Ipv4Address(params.vantage_address));
  std::array<std::byte, ProbeCodec::kMaxProbeSize> buf;
  const net::Ipv4Address dest((params.first_prefix << 8) | 1);
  const std::size_t size = codec.encode_udp(dest, 1, false, 0, buf);

  // Adaptive backoff drops the configured 1 Kpps to 200 pps: after the
  // 11-probe burst allowance, 60 probes take ≈ 245 ms instead of ≈ 49 ms.
  runtime.set_rate(200.0);
  const util::Nanos start = runtime.now();
  for (int i = 0; i < 60; ++i) {
    EXPECT_TRUE(runtime.try_send({buf.data(), size}));
  }
  EXPECT_GT(runtime.now() - start, 200 * util::kMillisecond);
}

TEST(RealTimeSimWire, LaneCountMustDivideThePrefixes) {
  sim::SimParams params;
  params.prefix_bits = 6;
  const sim::Topology topology(params);
  // 64 /24s over 3 lanes would leave offset 63 past the last lane; 0 lanes
  // leaves nothing to receive from.
  EXPECT_THROW(RealTimeSimWire(topology, params.first_prefix, 64, 3),
               std::invalid_argument);
  EXPECT_THROW(RealTimeSimWire(topology, params.first_prefix, 64, 0),
               std::invalid_argument);

  RealTimeSimWire wire(topology, params.first_prefix, 64, 4);
  const ProbeCodec codec(net::Ipv4Address(params.vantage_address));
  std::array<std::byte, ProbeCodec::kMaxProbeSize> buf;
  const net::Ipv4Address last((params.first_prefix + 63) << 8 | 1);
  const std::size_t size = codec.encode_udp(last, 1, false, 0, buf);
  EXPECT_TRUE(wire.try_transmit({buf.data(), size}));
}

/// What a fresh single-lane wire did with one probe: whether it went out,
/// and every packet the wire then handed back.
struct WireRun {
  bool transmitted = false;
  std::vector<std::vector<std::byte>> received;
};

WireRun transmit_once(const sim::Topology& topology,
                      std::span<const std::byte> probe) {
  const sim::SimParams& params = topology.params();
  RealTimeSimWire wire(topology, params.first_prefix,
                       std::uint32_t{1} << params.prefix_bits);
  WireRun run;
  run.transmitted = wire.try_transmit(probe);
  std::array<std::byte, net::kMaxResponseSize> buffer;
  while (const std::size_t size =
             wire.receive_into(buffer, 50 * util::kMillisecond)) {
    run.received.emplace_back(buffer.begin(), buffer.begin() + size);
  }
  return run;
}

TEST(RealTimeSimWire, FaultPlaneDuplicatesAndFailsSends) {
  sim::SimParams params;
  params.prefix_bits = 6;
  params.seed = 12;
  params.rtt_base = 200'000;  // 0.2 ms: replies land well inside the wait
  params.rtt_per_hop = 50'000;
  params.rtt_jitter = 0;
  const sim::Topology clean(params);

  // A probe the world answers: a wire's first send leaves at virtual time
  // 0, so ask a fault-free network at that instant.
  sim::SimNetwork oracle(clean);
  const ProbeCodec codec(net::Ipv4Address(params.vantage_address));
  std::array<std::byte, ProbeCodec::kMaxProbeSize> buf;
  std::size_t size = 0;
  for (std::uint8_t ttl = 1; ttl <= 32 && size == 0; ++ttl) {
    size = codec.encode_udp(
        net::Ipv4Address((params.first_prefix + 5) << 8 | 9), ttl, false, 0,
        buf);
    if (!oracle.process({buf.data(), size}, 0)) size = 0;
  }
  ASSERT_NE(size, 0u);
  const std::span<const std::byte> probe(buf.data(), size);

  const WireRun answered = transmit_once(clean, probe);
  EXPECT_TRUE(answered.transmitted);
  ASSERT_EQ(answered.received.size(), 1u);

  sim::SimParams duplicating = params;
  duplicating.faults.duplicate_prob = 1.0;
  const WireRun twice = transmit_once(sim::Topology(duplicating), probe);
  EXPECT_TRUE(twice.transmitted);
  ASSERT_EQ(twice.received.size(), 2u);
  EXPECT_EQ(twice.received[0], answered.received[0]);
  EXPECT_EQ(twice.received[1], answered.received[0]);

  sim::SimParams failing = params;
  failing.faults.send_fail_prob = 1.0;
  const WireRun none = transmit_once(sim::Topology(failing), probe);
  EXPECT_FALSE(none.transmitted);
  EXPECT_TRUE(none.received.empty());
}

}  // namespace
}  // namespace flashroute::core
