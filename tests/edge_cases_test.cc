// Edge-case and boundary-condition tests across modules: degenerate
// configurations, loops actually looping, dark space behaviour, and the
// engine's handling of unusual (but legal) parameter combinations.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "baselines/scamper.h"
#include "baselines/yarrp.h"
#include "core/probe_codec.h"
#include "core/tracer.h"
#include "net/checksum.h"
#include "net/icmp.h"
#include "sim/network.h"
#include "sim/runtime.h"
#include "sim/topology.h"

namespace flashroute {
namespace {

sim::SimParams tiny(std::uint64_t seed = 1, int bits = 8) {
  sim::SimParams params;
  params.prefix_bits = bits;
  params.seed = seed;
  return params;
}

core::TracerConfig config_for(const sim::SimParams& params) {
  core::TracerConfig config;
  config.first_prefix = params.first_prefix;
  config.prefix_bits = params.prefix_bits;
  config.vantage = net::Ipv4Address(params.vantage_address);
  config.probes_per_second =
      sim::scaled_probe_rate(100'000.0, params.prefix_bits);
  config.preprobe = core::PreprobeMode::kNone;
  return config;
}

core::ScanResult scan(const sim::Topology& topology,
                      const core::TracerConfig& config) {
  sim::SimNetwork network(topology);
  sim::SimScanRuntime runtime(network, config.probes_per_second);
  core::Tracer tracer(config, runtime);
  return tracer.run();
}

TEST(EdgeCases, MinimalUniverse) {
  // A single /24 (prefix_bits = 1 gives two blocks; the constructor rejects
  // 0).  The engine must simply work.
  const sim::Topology topology(tiny(1, 1));
  auto config = config_for(topology.params());
  const auto result = scan(topology, config);
  EXPECT_GT(result.probes_sent, 0u);
  EXPECT_LE(result.probes_sent, 2u * (16 + 5));
}

TEST(EdgeCases, SplitOneExploresForwardOnly) {
  const sim::Topology topology(tiny());
  auto config = config_for(topology.params());
  config.split_ttl = 1;
  config.collect_probe_log = true;
  const auto result = scan(topology, config);
  // Backward probing from TTL 1 costs exactly one probe per destination.
  std::uint64_t at_ttl1 = 0;
  for (const auto& probe : result.probe_log) {
    if (probe.ttl == 1) ++at_ttl1;
  }
  EXPECT_EQ(at_ttl1, config.num_prefixes());
  EXPECT_GT(result.interfaces.size(), 0u);
}

TEST(EdgeCases, MaxTtlBelowSplitClampsSplit) {
  const sim::Topology topology(tiny());
  auto config = config_for(topology.params());
  config.split_ttl = 30;
  config.max_ttl = 8;
  config.collect_probe_log = true;
  const auto result = scan(topology, config);
  for (const auto& probe : result.probe_log) {
    EXPECT_LE(probe.ttl, 8);
  }
}

TEST(EdgeCases, HugeGapLimitTerminates) {
  const sim::Topology topology(tiny());
  auto config = config_for(topology.params());
  config.gap_limit = 200;  // horizon far beyond max_ttl
  const auto result = scan(topology, config);
  EXPECT_GT(result.probes_sent, 0u);
  // Forward probing is still capped by max_ttl = 32.
  EXPECT_LE(result.probes_sent,
            std::uint64_t{config.num_prefixes()} * (16 + 16 + 1));
}

TEST(EdgeCases, LoopingDarkTailsAnswerAboveTheDropPoint) {
  // Force loops everywhere and verify the simulator actually bounces:
  // probes beyond the drop point elicit alternating responders.
  sim::SimParams params = tiny(4);
  params.dark_loop_prob = 1.0;
  params.interface_silent_prob = 0.0;
  params.filtered_tail_cum_pct[0] = 100;
  params.filtered_tail_cum_pct[1] = 100;
  params.filtered_tail_cum_pct[2] = 100;
  params.filtered_tail_cum_pct[3] = 100;
  params.filtered_tail_cum_pct[4] = 100;
  params.unassigned_reach_appliance_prob = 0.0;  // always loop instead
  const sim::Topology topology(params);
  const core::ProbeCodec codec(net::Ipv4Address(params.vantage_address));
  sim::SimNetwork network(topology);

  // Find an unassigned host in a routed prefix.
  for (std::uint32_t i = 0; i < params.num_prefixes(); ++i) {
    const std::uint32_t prefix = params.first_prefix + i;
    if (!topology.prefix_routed(prefix)) continue;
    net::Ipv4Address dark(0);
    for (int octet = 2; octet < 255; ++octet) {
      const net::Ipv4Address candidate((prefix << 8) |
                                       static_cast<std::uint32_t>(octet));
      if (!topology.host_exists(candidate)) {
        dark = candidate;
        break;
      }
    }
    if (dark.value() == 0) continue;

    sim::Route route;
    const auto flow = util::hash_combine(
        dark.value(), net::address_checksum(dark), net::kTracerouteDstPort,
        net::kProtoUdp);
    ASSERT_TRUE(topology.resolve(dark, flow, 0, route));
    ASSERT_TRUE(route.loops);

    // Probe two TTLs past the end: both answer, from alternating hops.
    std::array<std::byte, core::ProbeCodec::kMaxProbeSize> buf;
    std::vector<std::uint32_t> responders;
    for (int extra = 1; extra <= 2; ++extra) {
      const std::size_t size = codec.encode_udp(
          dark, static_cast<std::uint8_t>(route.num_hops + extra), false,
          extra * util::kSecond, buf);
      const auto delivery = network.process(
          std::span<const std::byte>(buf.data(), size),
          extra * util::kSecond);
      ASSERT_TRUE(delivery);
      const auto parsed = net::parse_response(delivery->packet);
      ASSERT_TRUE(parsed);
      ASSERT_TRUE(parsed->is_time_exceeded());
      responders.push_back(parsed->responder.value());
    }
    EXPECT_EQ(responders[0], route.loop_a());
    EXPECT_EQ(responders[1], route.loop_b());
    EXPECT_NE(responders[0], responders[1]);
    return;
  }
  GTEST_SKIP() << "no dark host found in tiny universe";
}

TEST(EdgeCases, ScamperWindowOfOneAndTinyTimeout) {
  sim::SimParams params = tiny(2, 5);
  const sim::Topology topology(params);
  baselines::ScamperConfig config;
  config.first_prefix = params.first_prefix;
  config.prefix_bits = params.prefix_bits;
  config.vantage = net::Ipv4Address(params.vantage_address);
  config.probes_per_second =
      sim::scaled_probe_rate(10'000.0, params.prefix_bits);
  config.window = 1;
  config.probe_timeout = 50 * util::kMillisecond;  // shorter than some RTTs
  sim::SimNetwork network(topology);
  sim::SimScanRuntime runtime(network, config.probes_per_second);
  baselines::Scamper scamper(config, runtime);
  const auto result = scamper.run();
  // Premature timeouts lose responses but never wedge the state machine.
  EXPECT_GT(result.probes_sent, 0u);
}

TEST(EdgeCases, YarrpProtectionWindowExpiry) {
  // With an instant protection window, near probing shuts off as soon as a
  // hop's novelty dries up; the scan still completes.
  const sim::Topology topology(tiny());
  baselines::YarrpConfig config;
  config.first_prefix = topology.params().first_prefix;
  config.prefix_bits = topology.params().prefix_bits;
  config.vantage = net::Ipv4Address(topology.params().vantage_address);
  config.probes_per_second =
      sim::scaled_probe_rate(100'000.0, config.prefix_bits);
  config.protected_hops = 6;
  config.protection_window = 1;  // 1 ns: essentially always protected
  sim::SimNetwork network(topology);
  sim::SimScanRuntime runtime(network, config.probes_per_second);
  baselines::Yarrp yarrp(config, runtime);
  const auto result = yarrp.run();
  EXPECT_LT(result.probes_sent,
            std::uint64_t{config.num_prefixes()} * 32u);
  EXPECT_GT(result.probes_sent,
            std::uint64_t{config.num_prefixes()} * 25u);
}

TEST(EdgeCases, TracerSurvivesWrongHitlistSize) {
  const sim::Topology topology(tiny());
  auto config = config_for(topology.params());
  config.preprobe = core::PreprobeMode::kHitlist;
  const std::vector<std::uint32_t> short_hitlist(3, 0);  // too short
  config.hitlist = &short_hitlist;
  const auto result = scan(topology, config);  // falls back to targets
  EXPECT_GT(result.probes_sent, 0u);
}

TEST(EdgeCases, ProbesToBroadcastStyleOctetsStillWork) {
  // Target override pointing at .0 and .255 (legal to probe, weird hosts).
  const sim::Topology topology(tiny());
  auto config = config_for(topology.params());
  std::vector<std::uint32_t> targets(config.num_prefixes(), 0);
  targets[0] = (config.first_prefix + 0) << 8;          // .0
  targets[1] = ((config.first_prefix + 1) << 8) | 255;  // .255
  config.target_override = &targets;
  const auto result = scan(topology, config);
  EXPECT_GT(result.probes_sent, 0u);
}

TEST(EdgeCases, ExtraScansWithEverythingDisabled) {
  const sim::Topology topology(tiny());
  auto config = config_for(topology.params());
  config.redundancy_removal = false;  // extra scans without a stop set
  config.extra_scans = 1;
  const auto result = scan(topology, config);
  // Without convergence stops the extra scan walks all the way to TTL 1.
  EXPECT_GT(result.probes_sent,
            std::uint64_t{config.num_prefixes()} * 16u);
}

TEST(EdgeCases, ResultCountersAreInternallyConsistent) {
  // Extra scans reach destinations the main scan already reached; each /24
  // still counts once.
  const sim::Topology topology(tiny(9, 10));
  for (const int extra_scans : {0, 2}) {
    auto config = config_for(topology.params());
    config.preprobe = core::PreprobeMode::kRandom;
    config.collect_probe_log = true;
    config.extra_scans = extra_scans;
    const auto result = scan(topology, config);
    EXPECT_EQ(result.probe_log.size(), result.probes_sent);
    EXPECT_LE(result.preprobe_probes, result.probes_sent);
    EXPECT_LE(result.destinations_reached, config.num_prefixes());
    EXPECT_LE(result.distances_measured, config.num_prefixes());
    std::uint64_t reached = 0;
    for (std::uint32_t i = 0; i < config.num_prefixes(); ++i) {
      if (result.destination_distance[i] != 0) ++reached;
    }
    EXPECT_GT(reached, 0u);
    EXPECT_EQ(reached, result.destinations_reached)
        << "extra_scans=" << extra_scans;
  }
}

/// Answers every probe at once from the probed address: with a TCP RST
/// when `rst` is set and the probe is TCP, then with an ICMP unreachable of
/// `code` quoting the probe with a residual TTL.
class AnsweringRuntime final : public core::ScanRuntime {
 public:
  AnsweringRuntime(std::uint8_t code, bool rst) : code_(code), rst_(rst) {}

  util::Nanos now() const noexcept override { return now_; }
  [[nodiscard]] bool try_send(std::span<const std::byte> probe) override {
    now_ += 10 * util::kMicrosecond;
    ++packets_sent_;
    net::ByteReader reader(probe);
    const auto ip = net::Ipv4Header::parse(reader);
    if (!ip) return true;
    if (rst_) {
      if (auto reset = net::craft_tcp_rst(probe)) {
        pending_.push_back(std::move(*reset));
      }
    }
    auto reply = net::craft_icmp_response(net::kIcmpDestUnreachable, code_,
                                          ip->dst, probe,
                                          /*residual_ttl=*/20);
    if (reply) pending_.push_back(std::move(*reply));
    return true;
  }
  void drain(const Sink& sink) override {
    for (const auto& reply : pending_) sink(reply, now_);
    pending_.clear();
  }
  void idle_until(util::Nanos t, const Sink& sink) override {
    now_ = std::max(now_, t);
    drain(sink);
  }

 private:
  std::uint8_t code_;
  bool rst_;
  util::Nanos now_ = 0;
  std::vector<std::vector<std::byte>> pending_;
};

TEST(EdgeCases, ProhibitedUnreachableIsNotTheDestination) {
  // Only port, host and protocol unreachables come from the probed host;
  // no engine takes a filter's code 13 ("administratively prohibited") for
  // the destination.
  constexpr int kBits = 4;
  constexpr std::uint8_t kAdminProhibited = 13;
  const auto expect_no_destination = [](const core::ScanResult& result,
                                        const char* engine) {
    SCOPED_TRACE(engine);
    EXPECT_GT(result.responses, 0u);
    EXPECT_EQ(result.destinations_reached, 0u);
    EXPECT_EQ(result.distances_measured, 0u);
    EXPECT_EQ(std::count(result.destination_distance.begin(),
                         result.destination_distance.end(), 0),
              static_cast<std::ptrdiff_t>(result.destination_distance.size()));
    std::size_t hops = 0;
    for (const auto& route : result.routes) hops += route.size();
    EXPECT_EQ(hops, 0u);
  };

  core::TracerConfig tracer;
  tracer.prefix_bits = kBits;
  tracer.preprobe = core::PreprobeMode::kRandom;
  tracer.forward_probing = false;
  tracer.split_ttl = 2;
  tracer.min_round_duration = util::kMillisecond;
  AnsweringRuntime tracer_runtime(kAdminProhibited, /*rst=*/false);
  expect_no_destination(core::Tracer(tracer, tracer_runtime).run(), "tracer");

  baselines::YarrpConfig yarrp;
  yarrp.prefix_bits = kBits;
  yarrp.exhaustive_ttl = 2;
  yarrp.probe_type = baselines::YarrpConfig::ProbeType::kUdp;
  AnsweringRuntime yarrp_runtime(kAdminProhibited, /*rst=*/false);
  expect_no_destination(baselines::Yarrp(yarrp, yarrp_runtime).run(), "yarrp");

  baselines::ScamperConfig scamper;
  scamper.prefix_bits = kBits;
  scamper.first_ttl = 2;
  scamper.max_ttl = 3;
  AnsweringRuntime scamper_runtime(kAdminProhibited, /*rst=*/false);
  expect_no_destination(baselines::Scamper(scamper, scamper_runtime).run(),
                        "scamper");
}

TEST(EdgeCases, YarrpCountsATargetOnceWhenARstAndAnUnreachableReachIt) {
  // Every TCP-ACK probe draws a RST and then a port unreachable from its
  // target.  The RST reaches the /24 first; the unreachable gives it a
  // distance but is not a second reached destination.
  baselines::YarrpConfig config;
  config.prefix_bits = 4;
  config.exhaustive_ttl = 2;
  AnsweringRuntime runtime(net::kIcmpCodePortUnreachable, /*rst=*/true);
  const auto result = baselines::Yarrp(config, runtime).run();
  const auto with_distance =
      std::count_if(result.destination_distance.begin(),
                    result.destination_distance.end(),
                    [](std::uint8_t distance) { return distance != 0; });
  EXPECT_EQ(with_distance, std::ptrdiff_t{1} << config.prefix_bits);
  EXPECT_EQ(result.destinations_reached,
            static_cast<std::uint64_t>(with_distance));
  EXPECT_EQ(result.responses, 2 * result.probes_sent);
  EXPECT_EQ(result.mismatches, 0u);
}

}  // namespace
}  // namespace flashroute
