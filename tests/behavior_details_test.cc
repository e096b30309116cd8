// Fine-grained behavioural tests for mechanisms whose effects the benches
// only show in aggregate: fold-mode prediction (§3.3.5 + §3.3.3), the
// backward-jump on preprobe measurements, Scamper's one-hop-late
// convergence stop, and composition of runtime decorators with exclusions.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "baselines/scamper.h"
#include "core/exclusion.h"
#include "core/tracer.h"
#include "io/pcap.h"
#include "io/scan_archive.h"
#include "sim/network.h"
#include "sim/runtime.h"
#include "sim/topology.h"

namespace flashroute {
namespace {

sim::SimParams world_params(std::uint64_t seed = 1, int bits = 10) {
  sim::SimParams params;
  params.prefix_bits = bits;
  params.seed = seed;
  return params;
}

core::TracerConfig base_config(const sim::SimParams& params) {
  core::TracerConfig config;
  config.first_prefix = params.first_prefix;
  config.prefix_bits = params.prefix_bits;
  config.vantage = net::Ipv4Address(params.vantage_address);
  config.probes_per_second =
      sim::scaled_probe_rate(100'000.0, params.prefix_bits);
  return config;
}

core::ScanResult scan(const sim::Topology& topology,
                      const core::TracerConfig& config) {
  sim::SimNetwork network(topology);
  sim::SimScanRuntime runtime(network, config.probes_per_second);
  core::Tracer tracer(config, runtime);
  return tracer.run();
}

TEST(FoldMode, PredictionSavesProbesOverMeasurementAlone) {
  // §3.3.5 + §3.3.3: after the folded first round, the engine predicts the
  // neighbours of measured blocks and jumps their backward probing.  With
  // prediction disabled (span 0) the same scan must cost more probes.
  const sim::Topology topology(world_params(6, 11));
  auto config = base_config(topology.params());
  config.split_ttl = 32;
  config.preprobe = core::PreprobeMode::kRandom;  // fold applies

  config.proximity_span = 5;
  const auto with_prediction = scan(topology, config);
  EXPECT_GT(with_prediction.distances_predicted, 0u);

  config.proximity_span = 0;
  const auto without_prediction = scan(topology, config);
  EXPECT_EQ(without_prediction.distances_predicted, 0u);

  EXPECT_LT(with_prediction.probes_sent, without_prediction.probes_sent);
  // Both still measure the same distances in round one.
  EXPECT_EQ(with_prediction.distances_measured,
            without_prediction.distances_measured);
}

TEST(FoldMode, MeasuredDestinationsSkipTheirUnreachableTail) {
  // A destination measured at distance d in the folded round must not be
  // probed backward through (d, 32): the jump goes straight below d.
  const sim::Topology topology(world_params(6, 9));
  auto config = base_config(topology.params());
  config.split_ttl = 32;
  config.preprobe = core::PreprobeMode::kRandom;
  config.proximity_span = 0;  // isolate the measurement jump
  config.collect_probe_log = true;
  const auto result = scan(topology, config);

  std::map<std::uint32_t, std::set<int>> probed;
  for (const auto& probe : result.probe_log) {
    probed[(probe.destination >> 8) - config.first_prefix].insert(probe.ttl);
  }
  int checked = 0;
  for (std::uint32_t i = 0; i < config.num_prefixes(); ++i) {
    const auto measured = result.measured_distance[i];
    if (measured == 0 || measured > 28) continue;
    // TTLs strictly between measured+1 and 31 should be skipped (32 was the
    // folded first round; allow measured+1 as the one-round overshoot).
    int deep_probes = 0;
    for (const int ttl : probed[i]) {
      if (ttl > measured + 1 && ttl < 32) ++deep_probes;
    }
    EXPECT_LE(deep_probes, 1) << "prefix offset " << i << " measured "
                              << int(measured);
    ++checked;
  }
  EXPECT_GT(checked, 5);
}

TEST(Scamper, StopsOneHopLaterThanSingleKnownHop) {
  // Above the pause region Scamper requires two consecutive known hops —
  // so for destinations converging there, its minimum backward TTL is one
  // below what a single-known-hop rule would give.  Verify the mechanism
  // directly: no destination stops backward at the very first known hop
  // above redundancy_pause_high.
  sim::SimParams params = world_params(4, 9);
  params.interface_silent_prob = 0.0;  // make responses deterministic
  for (auto& p : params.filtered_tail_cum_pct) p = 100;
  const sim::Topology topology(params);

  baselines::ScamperConfig config;
  config.first_prefix = params.first_prefix;
  config.prefix_bits = params.prefix_bits;
  config.vantage = net::Ipv4Address(params.vantage_address);
  config.probes_per_second =
      sim::scaled_probe_rate(10'000.0, params.prefix_bits);
  config.window = 64;
  config.first_ttl = 20;  // backward region spans the pause-high threshold
  config.redundancy_pause_high = 16;
  config.redundancy_pause_low = 4;
  config.collect_probe_log = true;
  sim::SimNetwork network(topology);
  sim::SimScanRuntime runtime(network, config.probes_per_second);
  baselines::Scamper scamper(config, runtime);
  const auto result = scamper.run();

  // Count destinations whose backward walk stopped at each TTL (their
  // minimum probed TTL).  Stops at TTL >= pause_high require two known
  // hops: a stop at 19 means 19 and... 19's stop required a known streak of
  // 2 — i.e. the hop at 20 (forward-phase start) was also known.  The
  // mechanism's observable: nobody stops at the first backward probe
  // unless its predecessor already hit a known hop, so stops at TTL ==
  // first_ttl - 1 are rare compared to TTL == first_ttl - 2.
  std::map<std::uint32_t, int> min_ttl;
  for (const auto& probe : result.probe_log) {
    auto [it, inserted] = min_ttl.try_emplace(probe.destination, probe.ttl);
    if (!inserted) it->second = std::min<int>(it->second, probe.ttl);
  }
  std::map<int, int> stops;
  for (const auto& [destination, ttl] : min_ttl) ++stops[ttl];
  // The pause region [5, 15] must show essentially no stops.
  int pause_stops = 0;
  for (int ttl = config.redundancy_pause_low + 1;
       ttl < config.redundancy_pause_high; ++ttl) {
    pause_stops += stops[ttl];
  }
  int below_stops = 0;
  for (int ttl = 1; ttl <= config.redundancy_pause_low; ++ttl) {
    below_stops += stops[ttl];
  }
  EXPECT_EQ(pause_stops, 0);
  EXPECT_GT(below_stops, 0);
}

TEST(Composition, CapturingRuntimeWithExclusionsAndArchive) {
  // All the optional plumbing at once: exclusions narrow the scan, the
  // capture decorator records it, and the archive round-trips the result.
  const sim::Topology topology(world_params(8, 8));
  auto config = base_config(topology.params());
  config.preprobe = core::PreprobeMode::kRandom;

  core::ExclusionList exclusions;
  ASSERT_TRUE(exclusions.add_entry("1.0.0.0/18"));  // first quarter
  config.exclusions = &exclusions;

  sim::SimNetwork network(topology);
  sim::SimScanRuntime inner(network, config.probes_per_second);
  std::stringstream capture;
  io::CapturingRuntime runtime(inner, capture);
  core::Tracer tracer(config, runtime);
  const auto result = tracer.run();

  EXPECT_GT(result.probes_sent, 0u);
  const auto packets = io::read_pcap(capture);
  ASSERT_TRUE(packets);
  EXPECT_EQ(packets->size(), result.probes_sent + result.responses);

  io::Writer archive;
  io::write_archive(result, {config.first_prefix, config.prefix_bits, 8},
                    archive);
  const auto loaded = io::read_archive(archive.str());
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->result.interfaces, result.interfaces);
  // The excluded quarter has no recorded hops.
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_TRUE(loaded->result.routes[i].empty()) << i;
  }
}

}  // namespace
}  // namespace flashroute
