// Tests for the engine resilience layer (DESIGN.md §9): retransmission
// recovering discovery under loss, send-failure accounting, adaptive rate
// backoff, telemetry counters, worker-count invariance of a sharded scan
// under an active fault plane, and a second run() of every engine — the
// Tracer after a cancelled, backed-off or preempted run, Yarrp and
// Scamper after a finished one — equalling a fresh engine's.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <utility>

#include "baselines/scamper.h"
#include "baselines/yarrp.h"
#include "core/runtime.h"
#include "core/sharded_tracer.h"
#include "core/tracer.h"
#include "io/checkpoint.h"
#include "net/headers.h"
#include "net/icmp.h"
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

/// Virtual time in which every probe is answered one millisecond after it
/// leaves: a time-exceeded from hop `ttl` of one shared path below
/// kDistance, a port unreachable from the destination at it.  Traces run
/// without a single timeout, so a scan finishes in well under a second.
class EchoRuntime final : public ScanRuntime {
 public:
  static constexpr std::uint8_t kDistance = 18;

  explicit EchoRuntime(double probes_per_second)
      : interval_(static_cast<util::Nanos>(static_cast<double>(util::kSecond) /
                                           probes_per_second)) {}

  util::Nanos now() const noexcept override { return now_; }
  [[nodiscard]] bool try_send(std::span<const std::byte> packet) override {
    now_ += interval_;
    ++packets_sent_;
    const auto ttl = std::to_integer<std::uint8_t>(packet[8]);
    std::uint32_t destination = 0;
    for (int i = 16; i < 20; ++i) {  // the IPv4 destination, big-endian
      destination = destination << 8 |
                    std::to_integer<std::uint32_t>(packet[i]);
    }
    Reply reply{now_ + util::kMillisecond, {}, 0};
    reply.size =
        ttl >= kDistance
            ? net::craft_icmp_response_into(
                  net::kIcmpDestUnreachable, net::kIcmpCodePortUnreachable,
                  net::Ipv4Address(destination), packet,
                  static_cast<std::uint8_t>(ttl - kDistance + 1), reply.bytes)
            : net::craft_icmp_response_into(
                  net::kIcmpTimeExceeded, net::kIcmpCodeTtlExceeded,
                  net::Ipv4Address(0x0A000000u | ttl), packet, 1, reply.bytes);
    replies_.push_back(reply);
    return true;
  }
  void drain(const Sink& sink) override { idle_until(now_, sink); }
  void idle_until(util::Nanos t, const Sink& sink) override {
    while (!replies_.empty() && replies_.front().arrival <= t) {
      const Reply reply = replies_.front();
      replies_.pop_front();
      now_ = std::max(now_, reply.arrival);
      sink(std::span<const std::byte>(reply.bytes.data(), reply.size),
           reply.arrival);
    }
    now_ = std::max(now_, t);
  }

 private:
  struct Reply {
    util::Nanos arrival;
    std::array<std::byte, net::kMaxResponseSize> bytes;
    std::size_t size;
  };

  util::Nanos now_ = 0;
  util::Nanos interval_;
  std::deque<Reply> replies_;
};

/// Forwards to a runtime that can be replaced between runs, so an engine's
/// second run() meets a fresh world exactly as a new engine does: any
/// difference between the two is state the engine carried over.
class SwappableRuntime final : public ScanRuntime {
 public:
  explicit SwappableRuntime(ScanRuntime& inner) : inner_(&inner) {}
  void swap_to(ScanRuntime& inner) { inner_ = &inner; }

  util::Nanos now() const noexcept override { return inner_->now(); }
  [[nodiscard]] bool try_send(std::span<const std::byte> packet) override {
    return inner_->try_send(packet);
  }
  [[nodiscard]] std::uint64_t try_send_batch(
      const ProbeBatch& batch) override {
    return inner_->try_send_batch(batch);
  }
  void drain_batch(const Sink& sink) override { inner_->drain_batch(sink); }
  std::uint32_t batch_budget() const noexcept override {
    return inner_->batch_budget();
  }
  util::Nanos send_time_of(std::uint32_t k) const noexcept override {
    return inner_->send_time_of(k);
  }
  void set_rate(double probes_per_second) override {
    inner_->set_rate(probes_per_second);
  }
  void drain(const Sink& sink) override { inner_->drain(sink); }
  void idle_until(util::Nanos t, const Sink& sink) override {
    inner_->idle_until(t, sink);
  }

 private:
  ScanRuntime* inner_;
};

void expect_same_scan(const ScanResult& a, const ScanResult& b) {
  EXPECT_EQ(a.interfaces, b.interfaces);
  EXPECT_EQ(a.routes, b.routes);
  EXPECT_EQ(a.destination_distance, b.destination_distance);
  EXPECT_EQ(a.trigger_ttl, b.trigger_ttl);
  EXPECT_EQ(a.probes_sent, b.probes_sent);
  EXPECT_EQ(a.responses, b.responses);
  EXPECT_EQ(a.destinations_reached, b.destinations_reached);
  EXPECT_EQ(a.convergence_stops, b.convergence_stops);
  EXPECT_EQ(a.probe_timeouts, b.probe_timeouts);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.scan_time, b.scan_time);
}

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

TEST(Resilience, RunAfterAPreemptedRunMatchesAFreshTracer) {
  const sim::SimParams params = world_params();
  TracerConfig config = base_config(params);
  config.max_retransmits = 2;
  config.checkpoint_interval = 200 * util::kMillisecond;
  // The first barrier preempts the first run, and the sink takes its
  // checkpoint — the scan's result with it.  Every later barrier continues.
  std::optional<io::ScanCheckpoint> kept;
  config.checkpoint_sink = [&kept](io::ScanCheckpoint& checkpoint) {
    if (kept.has_value()) return true;
    kept = std::move(checkpoint);
    return false;
  };

  SilentRuntime runtime(config.probes_per_second);
  Tracer tracer(config, runtime);
  const ScanResult preempted = tracer.run();
  ASSERT_TRUE(tracer.aborted());
  ASSERT_TRUE(kept.has_value());
  EXPECT_GT(kept->result.probes_sent, 0u);
  EXPECT_EQ(preempted.probes_sent, kept->result.probes_sent);
  const util::Nanos start = runtime.now();
  const ScanResult again = tracer.run();

  SilentRuntime fresh_runtime(config.probes_per_second, start);
  Tracer fresh_tracer(config, fresh_runtime);
  const ScanResult fresh = fresh_tracer.run();
  EXPECT_FALSE(tracer.aborted());
  EXPECT_GT(fresh.probe_timeouts, 0u);
  expect_same_scan(again, fresh);
  EXPECT_EQ(again.measured_distance, fresh.measured_distance);
  EXPECT_EQ(again.predicted_distance, fresh.predicted_distance);
}

// The baselines have no cancel or checkpoint, but they keep per-run state
// too: Yarrp's fill queue and protection clocks, Scamper's traces and
// timeout queue.
TEST(Resilience, SecondYarrpRunMatchesAFreshYarrp) {
  const sim::SimParams params = world_params();
  const sim::Topology topology(params);
  baselines::YarrpConfig config;
  config.first_prefix = params.first_prefix;
  config.prefix_bits = params.prefix_bits;
  config.vantage = net::Ipv4Address(params.vantage_address);
  config.probes_per_second = 20'000.0;
  config.fill_mode = true;
  config.exhaustive_ttl = 16;

  // The second run meets a fresh simulator whose clock starts where the
  // first run ended, exactly as a new Yarrp does.
  sim::SimNetwork first_network(topology);
  sim::SimScanRuntime first(first_network, config.probes_per_second);
  SwappableRuntime runtime(first);
  baselines::Yarrp yarrp(config, runtime);
  (void)yarrp.run();
  const util::Nanos start = first.now();
  sim::SimNetwork second_network(topology);
  sim::SimScanRuntime second(second_network, config.probes_per_second, start);
  runtime.swap_to(second);
  const ScanResult again = yarrp.run();

  sim::SimNetwork fresh_network(topology);
  sim::SimScanRuntime fresh_runtime(fresh_network, config.probes_per_second,
                                    start);
  baselines::Yarrp fresh_yarrp(config, fresh_runtime);
  const ScanResult fresh = fresh_yarrp.run();
  EXPECT_GT(fresh.interfaces.size(), 0u);
  expect_same_scan(again, fresh);
}

TEST(Resilience, SecondScamperRunMatchesAFreshScamper) {
  // Every probe of the first run is answered, and the run ends within a
  // probe timeout of its start, so it leaves the timeout of every answered
  // probe queued — among them one (index, token 1) per trace.  The second
  // run is silent: each new trace waits out its first probe's timeout, and
  // a leftover entry carrying the same (index, token) must not cut that
  // wait short.
  const sim::SimParams params = world_params();
  baselines::ScamperConfig config;
  config.first_prefix = params.first_prefix;
  config.prefix_bits = params.prefix_bits;
  config.vantage = net::Ipv4Address(params.vantage_address);

  EchoRuntime echo(config.probes_per_second);
  SwappableRuntime runtime(echo);
  baselines::Scamper scamper(config, runtime);
  const ScanResult first = scamper.run();
  ASSERT_EQ(first.probe_timeouts, 0u);
  ASSERT_LT(echo.now(), config.probe_timeout);
  const util::Nanos start = echo.now();
  SilentRuntime silent(config.probes_per_second, start);
  runtime.swap_to(silent);
  const ScanResult again = scamper.run();

  SilentRuntime fresh_runtime(config.probes_per_second, start);
  baselines::Scamper fresh_scamper(config, fresh_runtime);
  const ScanResult fresh = fresh_scamper.run();
  EXPECT_GT(fresh.probe_timeouts, 0u);
  expect_same_scan(again, fresh);
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
