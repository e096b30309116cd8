// End-to-end tests for the telemetry JSONL export (obs/snapshot_exporter.h)
// over real virtual-time scans:
//
//  * the determinism anchor — two same-seed sim scans emit byte-identical
//    JSONL streams, because every capture lands on a virtual-time tick;
//  * summary counters agree with the engine's own ScanResult;
//  * sharded runs are invariant under the worker count (modulo scan_time,
//    which is the parallel makespan by design — the summary here is written
//    with a pinned scan_time so the whole stream can be compared bytewise).

#include "obs/snapshot_exporter.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/sharded_tracer.h"
#include "core/tracer.h"
#include "obs/metrics.h"
#include "obs/scan_metrics.h"
#include "obs/scan_tracer.h"
#include "sim/network.h"
#include "sim/params.h"
#include "sim/runtime.h"
#include "sim/topology.h"

namespace flashroute::obs {
namespace {

sim::SimParams world_params(std::uint64_t seed) {
  sim::SimParams params;
  params.prefix_bits = 8;  // 256 prefixes — small but phase-complete
  params.seed = seed;
  return params;
}

struct MeteredScan {
  std::string jsonl;
  core::ScanResult result;
};

/// One full single-lane scan with telemetry wired exactly as the CLI wires
/// it, exported to a string.
MeteredScan run_metered_scan(std::uint64_t seed) {
  const sim::Topology topology(world_params(seed));
  const sim::SimParams& params = topology.params();

  core::TracerConfig config;
  config.first_prefix = params.first_prefix;
  config.prefix_bits = params.prefix_bits;
  config.vantage = net::Ipv4Address(params.vantage_address);
  config.probes_per_second =
      sim::scaled_probe_rate(100'000.0, params.prefix_bits);
  config.preprobe = core::PreprobeMode::kRandom;

  MetricsRegistry registry;
  config.telemetry.registry = &registry;
  config.telemetry.ids = register_scan_metrics(registry);
  registry.freeze(1);
  ScanTracer tracer(registry, 200 * util::kMillisecond);
  config.telemetry.tracer = &tracer;
  config.telemetry.lane = registry.lane(0);
  config.telemetry.lane_id = 0;

  sim::SimNetwork network(topology);
  sim::SimScanRuntime runtime(network, config.probes_per_second);
  runtime.register_gauges(registry, 0);

  MeteredScan out;
  core::Tracer engine(config, runtime);
  out.result = engine.run();

  std::ostringstream stream;
  SnapshotExporter exporter(stream);
  exporter.write_intervals(tracer, registry);
  exporter.write_summary(tracer, registry, out.result.scan_time);
  out.jsonl = stream.str();
  return out;
}

std::size_t count_lines(const std::string& s) {
  std::size_t n = 0;
  for (const char c : s) n += c == '\n';
  return n;
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(SnapshotExport, SameSeedStreamsAreByteIdentical) {
  const MeteredScan a = run_metered_scan(9);
  const MeteredScan b = run_metered_scan(9);
  ASSERT_FALSE(a.jsonl.empty());
  EXPECT_GT(count_lines(a.jsonl), 10u);  // intervals actually captured
  EXPECT_EQ(a.jsonl, b.jsonl);

  const MeteredScan c = run_metered_scan(10);
  EXPECT_NE(a.jsonl, c.jsonl);  // the stream reflects the scan, not a stub
}

TEST(SnapshotExport, SummaryCountersMatchScanResult) {
  const MeteredScan scan = run_metered_scan(9);
  const core::ScanResult& r = scan.result;
  ASSERT_GT(r.probes_sent, 0u);
  ASSERT_GT(r.responses, 0u);

  // Exactly one summary record, and it is the last line.
  const std::string marker = "{\"type\":\"summary\"";
  const std::size_t first = scan.jsonl.find(marker);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(scan.jsonl.find(marker, first + 1), std::string::npos);
  EXPECT_EQ(scan.jsonl.find('\n', first), scan.jsonl.size() - 1);

  const std::string summary = scan.jsonl.substr(first);
  const auto counter = [&](const char* name, std::uint64_t value) {
    return contains(summary, "\"" + std::string(name) +
                                 "\":" + std::to_string(value));
  };
  EXPECT_TRUE(counter("scan.probes_sent", r.probes_sent));
  EXPECT_TRUE(counter("scan.preprobe_probes", r.preprobe_probes));
  EXPECT_TRUE(counter("scan.responses", r.responses));
  EXPECT_TRUE(counter("scan.mismatches", r.mismatches));
  EXPECT_TRUE(counter("scan.destinations_reached", r.destinations_reached));
  EXPECT_TRUE(counter("scan.interfaces_discovered", r.interfaces.size()));
  EXPECT_TRUE(counter("scan.convergence_stops", r.convergence_stops));
  EXPECT_TRUE(
      contains(summary, "\"scan_time_ns\":" + std::to_string(r.scan_time)));

  // Histograms were populated: as many RTT samples as responses.
  EXPECT_TRUE(contains(summary, "\"scan.rtt_us\":{\"total\":" +
                                    std::to_string(r.responses)));
  EXPECT_TRUE(contains(summary, "\"scan.hop_distance\":{\"total\":" +
                                    std::to_string(r.interfaces.size())));

  // The sim gauges registered on lane 0 made it into the summary.
  EXPECT_TRUE(contains(summary, "\"sim.response_pool_slots\""));
  EXPECT_TRUE(contains(summary, "\"sim.rate_limit_drops\""));
}

TEST(SnapshotExport, IntervalRecordsCarryPhaseAndDeltas) {
  const MeteredScan scan = run_metered_scan(9);
  EXPECT_TRUE(contains(scan.jsonl, "\"phase\":\"preprobe\""));
  EXPECT_TRUE(contains(scan.jsonl, "\"phase\":\"main\""));
  EXPECT_TRUE(contains(scan.jsonl, "\"deltas\":{\"scan.probes_sent\":"));
  EXPECT_TRUE(contains(scan.jsonl, "\"gauges\":{\"sim.rate_limit_drops\":"));
}

struct ShardedMetered {
  std::string intervals;
  std::string summary;  // written with scan_time pinned to 0 (see below)
  core::ScanResult result;
};

/// A sharded metered scan: 4 logical shards over `num_workers` threads,
/// telemetry lane i owned by shard i (the ShardedTracer wiring under test).
ShardedMetered run_sharded_metered(int num_workers) {
  const sim::Topology topology(world_params(33));
  const sim::SimParams& params = topology.params();

  core::ShardedTracerConfig config;
  config.base.first_prefix = params.first_prefix;
  config.base.prefix_bits = params.prefix_bits;
  config.base.vantage = net::Ipv4Address(params.vantage_address);
  config.base.probes_per_second =
      sim::scaled_probe_rate(100'000.0, params.prefix_bits);
  config.base.preprobe = core::PreprobeMode::kRandom;
  config.num_workers = num_workers;
  config.shard_prefix_bits = 6;  // 4 shards of 64 /24s each

  MetricsRegistry registry;
  config.base.telemetry.registry = &registry;
  config.base.telemetry.ids = register_scan_metrics(registry);
  registry.freeze(config.num_shards());
  ScanTracer tracer(registry, 200 * util::kMillisecond);
  config.base.telemetry.tracer = &tracer;

  sim::SimShardRuntimeProvider provider(topology, config);
  provider.register_gauges(registry);

  ShardedMetered out;
  core::ShardedTracer engine(config, provider);
  out.result = engine.run();

  {
    std::ostringstream stream;
    SnapshotExporter(stream).write_intervals(tracer, registry);
    out.intervals = stream.str();
  }
  {
    // scan_time is the parallel makespan — the ONE field that legitimately
    // varies with the worker count — so it is pinned here to let the test
    // compare everything else bytewise.
    std::ostringstream stream;
    SnapshotExporter(stream).write_summary(tracer, registry,
                                           /*scan_time=*/0);
    out.summary = stream.str();
  }
  return out;
}

TEST(SnapshotExport, ShardedStreamInvariantUnderWorkerCount) {
  const ShardedMetered one = run_sharded_metered(1);
  const ShardedMetered two = run_sharded_metered(2);

  ASSERT_FALSE(one.intervals.empty());
  EXPECT_GT(count_lines(one.intervals), 10u);
  EXPECT_EQ(one.intervals, two.intervals);
  EXPECT_EQ(one.summary, two.summary);

  // Sanity on the merged result itself (the repo's determinism anchor).
  EXPECT_EQ(one.result.probes_sent, two.result.probes_sent);
  EXPECT_EQ(one.result.interfaces, two.result.interfaces);

  // All four lanes captured intervals and the counters reflect the scan.
  for (int lane = 0; lane < 4; ++lane) {
    EXPECT_TRUE(
        contains(one.intervals, "\"lane\":" + std::to_string(lane) + ","));
  }
  EXPECT_TRUE(contains(one.summary, "\"lanes\":4"));
  EXPECT_TRUE(contains(one.summary,
                       "\"scan.probes_sent\":" +
                           std::to_string(one.result.probes_sent)));
}

}  // namespace
}  // namespace flashroute::obs
