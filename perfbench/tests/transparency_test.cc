// Transparency of the benchmark's timing decorator: a scan run through
// frbench::TimedRuntime must produce exactly the ScanResult of the same scan
// on the bare sim::SimScanRuntime, on the batched path and on the
// retransmit / fault-plane (scalar) path.

#include <gtest/gtest.h>

#include <vector>

#include "core/tracer.h"
#include "sim/network.h"
#include "sim/runtime.h"
#include "sim/topology.h"
#include "trace.h"

namespace {

namespace fr = flashroute;

struct Scenario {
  fr::sim::SimParams params;
  fr::core::TracerConfig config;
};

Scenario scenario(bool lossy) {
  Scenario s;
  s.params.prefix_bits = 12;
  s.params.seed = 5;
  if (lossy) {
    s.params.faults.probe_loss = 0.10;
    s.params.faults.response_loss = 0.10;
  }
  fr::core::TracerConfig& c = s.config;
  c.first_prefix = s.params.first_prefix;
  c.prefix_bits = s.params.prefix_bits;
  c.vantage = fr::net::Ipv4Address(s.params.vantage_address);
  c.probes_per_second =
      fr::sim::scaled_probe_rate(100'000.0, s.params.prefix_bits);
  c.preprobe = fr::core::PreprobeMode::kHitlist;
  c.collect_routes = true;
  if (lossy) {
    c.max_retransmits = 2;
    c.adaptive_backoff = true;
  }
  return s;
}

fr::core::ScanResult scan(const Scenario& s, const fr::sim::Topology& topology,
                          const std::vector<std::uint32_t>& hitlist,
                          frbench::SpanRecorder* spans) {
  fr::core::TracerConfig config = s.config;
  config.hitlist = &hitlist;
  fr::sim::SimNetwork network(topology);
  fr::sim::SimScanRuntime runtime(network, config.probes_per_second);
  if (spans == nullptr) return fr::core::Tracer(config, runtime).run();
  frbench::TimedRuntime timed(runtime, *spans);
  return fr::core::Tracer(config, timed).run();
}

void expect_identical(const fr::core::ScanResult& a,
                      const fr::core::ScanResult& b) {
  EXPECT_EQ(a.interfaces, b.interfaces);
  EXPECT_EQ(a.routes, b.routes);
  EXPECT_EQ(a.destination_distance, b.destination_distance);
  EXPECT_EQ(a.trigger_ttl, b.trigger_ttl);
  EXPECT_EQ(a.measured_distance, b.measured_distance);
  EXPECT_EQ(a.predicted_distance, b.predicted_distance);
  EXPECT_EQ(a.probes_sent, b.probes_sent);
  EXPECT_EQ(a.preprobe_probes, b.preprobe_probes);
  EXPECT_EQ(a.responses, b.responses);
  EXPECT_EQ(a.mismatches, b.mismatches);
  EXPECT_EQ(a.destinations_reached, b.destinations_reached);
  EXPECT_EQ(a.convergence_stops, b.convergence_stops);
  EXPECT_EQ(a.send_failures, b.send_failures);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.probe_timeouts, b.probe_timeouts);
  EXPECT_EQ(a.rate_backoffs, b.rate_backoffs);
  EXPECT_EQ(a.scan_time, b.scan_time);
  EXPECT_EQ(a.preprobe_time, b.preprobe_time);
}

TEST(TimedRuntimeTransparency, BatchedPathScanIsUnchanged) {
  const Scenario s = scenario(/*lossy=*/false);
  const fr::sim::Topology topology(s.params);
  const std::vector<std::uint32_t> hitlist = topology.generate_hitlist();

  const fr::core::ScanResult bare = scan(s, topology, hitlist, nullptr);
  frbench::SpanRecorder spans;
  const fr::core::ScanResult timed = scan(s, topology, hitlist, &spans);

  ASSERT_GT(bare.interfaces.size(), 0u);
  expect_identical(bare, timed);
  // The decorator saw the batched main phase and the wrapped Sink.
  EXPECT_GT(spans[frbench::kTrySendBatch].units, 0u);
  EXPECT_GE(spans[frbench::kSink].count, timed.responses);
}

TEST(TimedRuntimeTransparency, RetransmitFaultPathScanIsUnchanged) {
  const Scenario s = scenario(/*lossy=*/true);
  const fr::sim::Topology topology(s.params);
  const std::vector<std::uint32_t> hitlist = topology.generate_hitlist();

  const fr::core::ScanResult bare = scan(s, topology, hitlist, nullptr);
  frbench::SpanRecorder spans;
  const fr::core::ScanResult timed = scan(s, topology, hitlist, &spans);

  ASSERT_GT(bare.retransmits, 0u);
  expect_identical(bare, timed);
  // Retransmission keeps the main phase on the scalar send loop.
  EXPECT_GT(spans[frbench::kTrySend].count, 0u);
  EXPECT_EQ(spans[frbench::kTrySendBatch].count, 0u);
}

}  // namespace
