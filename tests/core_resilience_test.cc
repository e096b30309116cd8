// Tests for the engine resilience layer (DESIGN.md §9): retransmission
// recovering discovery under loss, send-failure accounting, adaptive rate
// backoff, telemetry counters, worker-count invariance of a sharded scan
// under an active fault plane, and a second run() on the same Tracer
// starting from a clean resilience state.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>

#include "core/runtime.h"
#include "core/sharded_tracer.h"
#include "core/tracer.h"
#include "obs/metrics.h"
#include "obs/scan_metrics.h"
#include "sim/network.h"
#include "sim/runtime.h"
#include "sim/topology.h"

namespace flashroute::core {
namespace {

sim::SimParams world_params(int bits = 8) {
  sim::SimParams params;
  params.prefix_bits = bits;
  params.seed = 6;
  return params;
}

TracerConfig base_config(const sim::SimParams& params) {
  TracerConfig config;
  config.first_prefix = params.first_prefix;
  config.prefix_bits = params.prefix_bits;
  config.vantage = net::Ipv4Address(params.vantage_address);
  config.probes_per_second = 20'000.0;
  config.preprobe = PreprobeMode::kNone;
  config.min_round_duration = 50 * util::kMillisecond;
  return config;
}

/// Virtual time in which no probe is ever answered: every main-phase probe
/// times out, so the retransmission queue and the backoff see only loss.
class SilentRuntime final : public ScanRuntime {
 public:
  explicit SilentRuntime(double probes_per_second, util::Nanos start = 0)
      : now_(start), interval_(interval_of(probes_per_second)) {}

  util::Nanos now() const noexcept override { return now_; }
  [[nodiscard]] bool try_send(std::span<const std::byte>) override {
    now_ += interval_;
    ++packets_sent_;
    return true;
  }
  void set_rate(double probes_per_second) override {
    interval_ = interval_of(probes_per_second);
  }
  void drain(const Sink&) override {}
  void idle_until(util::Nanos t, const Sink&) override {
    now_ = std::max(now_, t);
  }

 private:
  static util::Nanos interval_of(double probes_per_second) {
    return static_cast<util::Nanos>(static_cast<double>(util::kSecond) /
                                    probes_per_second);
  }

  util::Nanos now_;
  util::Nanos interval_;
};

ScanResult scan(const sim::Topology& topology, const sim::FaultParams& faults,
                const TracerConfig& config) {
  sim::SimNetwork network(topology, faults);
  sim::SimScanRuntime runtime(network, config.probes_per_second);
  Tracer tracer(config, runtime);
  return tracer.run();
}

TEST(Resilience, RetransmissionRecoversDiscoveryUnderLoss) {
  const sim::SimParams params = world_params();
  const sim::Topology topology(params);
  sim::FaultParams faults;
  faults.probe_loss = 0.25;
  faults.response_loss = 0.25;

  TracerConfig config = base_config(params);
  const ScanResult plain = scan(topology, faults, config);
  EXPECT_EQ(plain.retransmits, 0u);

  config.max_retransmits = 3;
  const ScanResult resilient = scan(topology, faults, config);
  EXPECT_GT(resilient.retransmits, 0u);
  // The retransmission budget buys back lost probes: strictly more probes,
  // at least as many interfaces (comfortably more at 25% loss).
  EXPECT_GT(resilient.probes_sent, plain.probes_sent);
  EXPECT_GT(resilient.interfaces.size(), plain.interfaces.size());
}

TEST(Resilience, ZeroLossKeepsDiscoveryIdentical) {
  const sim::SimParams params = world_params();
  const sim::Topology topology(params);

  TracerConfig config = base_config(params);
  // Slow enough that the sim's per-interface ICMP rate limiters never
  // engage: retransmissions shift later probes' send times, and a scan fast
  // enough to trip the limiters would see *different* drops, not none.
  config.probes_per_second = 2'000.0;
  const ScanResult plain = scan(topology, sim::FaultParams{}, config);

  config.max_retransmits = 2;
  const ScanResult resilient = scan(topology, sim::FaultParams{}, config);
  // With nothing lost, retransmission only re-probes genuinely silent hops;
  // it discovers exactly the same topology.
  EXPECT_EQ(resilient.interfaces, plain.interfaces);
  EXPECT_EQ(resilient.destinations_reached, plain.destinations_reached);
}

TEST(Resilience, SendFailuresAreCountedAndRecovered) {
  const sim::SimParams params = world_params();
  const sim::Topology topology(params);
  sim::FaultParams faults;
  faults.send_fail_prob = 0.2;

  TracerConfig config = base_config(params);
  config.max_retransmits = 3;
  const ScanResult result = scan(topology, faults, config);
  EXPECT_GT(result.send_failures, 0u);

  // Retransmission treats a failed send like a lost probe, so discovery
  // stays close to the clean scan.
  const ScanResult clean = scan(topology, sim::FaultParams{},
                                base_config(params));
  EXPECT_GT(result.interfaces.size(), clean.interfaces.size() * 9 / 10);
}

TEST(Resilience, AdaptiveBackoffEngagesUnderHeavyLoss) {
  const sim::SimParams params = world_params();
  const sim::Topology topology(params);
  sim::FaultParams faults;
  faults.probe_loss = 0.7;
  faults.response_loss = 0.5;

  TracerConfig config = base_config(params);
  config.max_retransmits = 1;
  config.adaptive_backoff = true;
  config.backoff_loss_threshold = 0.3;
  const ScanResult result = scan(topology, faults, config);
  EXPECT_GT(result.rate_backoffs, 0u);
  // Backed-off rounds stretch the virtual timeline beyond the clean scan's.
  const ScanResult clean = scan(topology, sim::FaultParams{},
                                base_config(params));
  EXPECT_GT(result.scan_time, clean.scan_time);
}

TEST(Resilience, TelemetryCountsResilienceEvents) {
  const sim::SimParams params = world_params();
  const sim::Topology topology(params);
  sim::FaultParams faults;
  faults.probe_loss = 0.3;
  faults.response_loss = 0.3;
  faults.send_fail_prob = 0.1;

  obs::MetricsRegistry registry;
  TracerConfig config = base_config(params);
  config.max_retransmits = 2;
  config.telemetry.registry = &registry;
  config.telemetry.ids = obs::register_scan_metrics(registry,
                                                    /*resilience=*/true);
  registry.freeze(1);
  config.telemetry.lane = registry.lane(0);
  config.telemetry.lane_id = 0;

  const ScanResult result = scan(topology, faults, config);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  const auto counter = [&](const char* name) -> std::uint64_t {
    for (std::size_t i = 0; i < snapshot.counter_names.size(); ++i) {
      if (snapshot.counter_names[i] == name) return snapshot.counters[i];
    }
    return 0;
  };
  EXPECT_EQ(counter("scan.retransmits"), result.retransmits);
  EXPECT_EQ(counter("scan.send_failures"), result.send_failures);
  EXPECT_EQ(counter("scan.probe_timeouts"), result.probe_timeouts);
  EXPECT_GT(result.retransmits, 0u);
  EXPECT_GT(result.send_failures, 0u);
}

TEST(Resilience, ShardedScanUnderFaultsIsWorkerCountInvariant) {
  sim::SimParams params = world_params(9);
  params.faults.probe_loss = 0.2;
  params.faults.response_loss = 0.15;
  params.faults.blackhole_fraction = 0.05;
  params.faults.send_fail_prob = 0.05;
  const sim::Topology topology(params);

  ShardedTracerConfig config;
  config.base = base_config(params);
  config.base.max_retransmits = 2;
  config.base.adaptive_backoff = true;
  config.shard_prefix_bits = config.base.prefix_bits - 2;  // 4 shards

  const auto run_with = [&](int workers) {
    config.num_workers = workers;
    sim::SimShardRuntimeProvider provider(topology, config);
    ShardedTracer tracer(config, provider);
    return tracer.run();
  };

  const ScanResult one = run_with(1);
  const ScanResult four = run_with(4);
  EXPECT_GT(one.retransmits, 0u);
  EXPECT_EQ(one.interfaces, four.interfaces);
  EXPECT_EQ(one.probes_sent, four.probes_sent);
  EXPECT_EQ(one.responses, four.responses);
  EXPECT_EQ(one.routes, four.routes);
  EXPECT_EQ(one.retransmits, four.retransmits);
  EXPECT_EQ(one.send_failures, four.send_failures);
  EXPECT_EQ(one.probe_timeouts, four.probe_timeouts);
  EXPECT_EQ(one.rate_backoffs, four.rate_backoffs);
  EXPECT_EQ(one.destination_distance, four.destination_distance);
}

TEST(Resilience, RunAfterACancelledRunMatchesAFreshTracer) {
  const sim::SimParams params = world_params();
  TracerConfig config = base_config(params);
  config.max_retransmits = 2;
  std::atomic<bool> cancel{true};
  config.cancel = &cancel;

  SilentRuntime runtime(config.probes_per_second);
  Tracer tracer(config, runtime);
  // Stops at the first round barrier with every probe of the round still
  // awaiting its timeout.
  (void)tracer.run();
  ASSERT_TRUE(tracer.aborted());
  cancel = false;
  const util::Nanos start = runtime.now();
  const ScanResult again = tracer.run();

  SilentRuntime fresh_runtime(config.probes_per_second, start);
  Tracer fresh_tracer(config, fresh_runtime);
  const ScanResult fresh = fresh_tracer.run();
  EXPECT_FALSE(tracer.aborted());
  EXPECT_GT(fresh.probe_timeouts, 0u);
  // The cancelled run's outstanding probes must not expire against the new
  // run's budgets.
  EXPECT_EQ(again.probe_timeouts, fresh.probe_timeouts);
  EXPECT_EQ(again.retransmits, fresh.retransmits);
  EXPECT_EQ(again.probes_sent, fresh.probes_sent);
  EXPECT_EQ(again.scan_time, fresh.scan_time);
}

TEST(Resilience, RunAfterABackedOffRunStartsAtTheConfiguredRate) {
  const sim::SimParams params = world_params(12);
  TracerConfig config = base_config(params);
  config.adaptive_backoff = true;

  SilentRuntime runtime(config.probes_per_second);
  Tracer tracer(config, runtime);
  // Every round loses every probe, so the run ends backed off.
  const ScanResult first = tracer.run();
  ASSERT_GT(first.rate_backoffs, 0u);
  const util::Nanos start = runtime.now();
  const ScanResult again = tracer.run();

  SilentRuntime fresh_runtime(config.probes_per_second, start);
  Tracer fresh_tracer(config, fresh_runtime);
  const ScanResult fresh = fresh_tracer.run();
  EXPECT_EQ(again.rate_backoffs, fresh.rate_backoffs);
  EXPECT_EQ(again.probes_sent, fresh.probes_sent);
  EXPECT_EQ(again.scan_time, fresh.scan_time);
}

}  // namespace
}  // namespace flashroute::core
