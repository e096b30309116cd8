// Tests for the sharded multi-core scan engine (core/sharded_tracer.h):
//
//  * the determinism anchor — the merged ScanResult is bit-identical for any
//    worker count, because the shard decomposition, per-shard permutation
//    seeds, and merge order depend only on the configuration;
//  * the shard plan itself (contiguous coverage, balanced workers, budget
//    slicing);
//  * the real-time sharded runtime end to end over the in-memory wire;
//  * the zero-allocation guarantee of the receive hot path.

#include "core/sharded_tracer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/exclusion.h"
#include "core/targets.h"
#include "core/threaded_runtime.h"
#include "core/tracer.h"
#include "sim/params.h"
#include "sim/runtime.h"
#include "sim/sim_wire.h"
#include "sim/topology.h"
#include "thread_allocations.h"

namespace flashroute::core {
namespace {

sim::SimParams test_params() {
  sim::SimParams params;
  params.prefix_bits = 8;  // 256 prefixes
  params.seed = 33;
  return params;
}

ShardedTracerConfig test_config(const sim::SimParams& params,
                                int num_workers) {
  ShardedTracerConfig config;
  config.base.first_prefix = params.first_prefix;
  config.base.prefix_bits = params.prefix_bits;
  config.base.vantage = net::Ipv4Address(params.vantage_address);
  config.base.preprobe = PreprobeMode::kRandom;
  config.base.collect_routes = true;
  config.base.collect_probe_log = true;
  config.num_workers = num_workers;
  config.shard_prefix_bits = 6;  // 4 shards of 64 /24s each
  return config;
}

ScanResult run_sharded(const sim::Topology& topology,
                       const ShardedTracerConfig& config) {
  sim::SimShardRuntimeProvider provider(topology, config);
  return ShardedTracer(config, provider).run();
}

ScanResult run_sharded(const sim::Topology& topology, int num_workers) {
  return run_sharded(topology, test_config(topology.params(), num_workers));
}

void expect_identical(const ScanResult& a, const ScanResult& b) {
  // Everything except scan_time/preprobe_time, which reflect the actual
  // parallel makespan and legitimately vary with the worker count.
  EXPECT_EQ(a.interfaces, b.interfaces);
  EXPECT_EQ(a.destination_distance, b.destination_distance);
  EXPECT_EQ(a.trigger_ttl, b.trigger_ttl);
  EXPECT_EQ(a.measured_distance, b.measured_distance);
  EXPECT_EQ(a.predicted_distance, b.predicted_distance);

  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t i = 0; i < a.routes.size(); ++i) {
    ASSERT_EQ(a.routes[i].size(), b.routes[i].size()) << "prefix " << i;
    for (std::size_t h = 0; h < a.routes[i].size(); ++h) {
      EXPECT_EQ(a.routes[i][h].ip, b.routes[i][h].ip);
      EXPECT_EQ(a.routes[i][h].ttl, b.routes[i][h].ttl);
      EXPECT_EQ(a.routes[i][h].flags, b.routes[i][h].flags);
    }
  }

  ASSERT_EQ(a.probe_log.size(), b.probe_log.size());
  for (std::size_t i = 0; i < a.probe_log.size(); ++i) {
    EXPECT_EQ(a.probe_log[i].time, b.probe_log[i].time);
    EXPECT_EQ(a.probe_log[i].destination, b.probe_log[i].destination);
    EXPECT_EQ(a.probe_log[i].ttl, b.probe_log[i].ttl);
    EXPECT_EQ(a.probe_log[i].preprobe, b.probe_log[i].preprobe);
  }

  EXPECT_EQ(a.probes_sent, b.probes_sent);
  EXPECT_EQ(a.preprobe_probes, b.preprobe_probes);
  EXPECT_EQ(a.responses, b.responses);
  EXPECT_EQ(a.mismatches, b.mismatches);
  EXPECT_EQ(a.destinations_reached, b.destinations_reached);
  EXPECT_EQ(a.distances_measured, b.distances_measured);
  EXPECT_EQ(a.distances_predicted, b.distances_predicted);
  EXPECT_EQ(a.convergence_stops, b.convergence_stops);
}

TEST(ShardedTracerPlan, CoversRangeContiguouslyAndBalancesWorkers) {
  ShardedTracerConfig config;
  config.base.first_prefix = 1000;
  config.base.prefix_bits = 10;   // 1024 prefixes
  config.shard_prefix_bits = 7;   // 8 shards of 128
  config.num_workers = 3;
  config.base.probes_per_second = 80'000.0;

  const auto shards = ShardedTracer::plan(config);
  ASSERT_EQ(shards.size(), 8u);
  std::uint32_t next = 1000;
  std::vector<int> per_worker(3, 0);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(shards[i].index, i);
    EXPECT_EQ(shards[i].first_prefix, next);
    EXPECT_EQ(shards[i].num_prefixes, 128u);
    EXPECT_DOUBLE_EQ(shards[i].probes_per_second, 10'000.0);
    // Worker assignment is contiguous and non-decreasing.
    if (i > 0) {
      EXPECT_GE(shards[i].worker, shards[i - 1].worker);
    }
    ASSERT_GE(shards[i].worker, 0);
    ASSERT_LT(shards[i].worker, 3);
    ++per_worker[static_cast<std::size_t>(shards[i].worker)];
    next += 128;
  }
  // 8 shards over 3 workers: every worker gets 2 or 3.
  for (int count : per_worker) {
    EXPECT_GE(count, 2);
    EXPECT_LE(count, 3);
  }
}

TEST(ShardedTracerPlan, WorkerCountClampedToShardCount) {
  ShardedTracerConfig config;
  config.base.prefix_bits = 6;
  config.shard_prefix_bits = 5;  // 2 shards
  config.num_workers = 16;
  const auto shards = ShardedTracer::plan(config);
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[0].worker, 0);
  EXPECT_EQ(shards[1].worker, 1);
}

TEST(ShardedTracer, ResultInvariantUnderWorkerCount) {
  const sim::Topology topology(test_params());
  const ScanResult one = run_sharded(topology, 1);
  const ScanResult two = run_sharded(topology, 2);
  const ScanResult four = run_sharded(topology, 4);

  // The scan actually did something before we call the comparison a pass.
  EXPECT_GT(one.probes_sent, 0u);
  EXPECT_GT(one.interfaces.size(), 10u);
  EXPECT_GT(one.destinations_reached, 0u);

  expect_identical(one, two);
  expect_identical(one, four);
}

// A sharded scan does not checkpoint.  A sink set on the base config would
// otherwise run on several workers at once, with no shard tag.
TEST(ShardedTracer, BaseCheckpointSinkIsNeverCalled) {
  const sim::Topology topology(test_params());
  ShardedTracerConfig config = test_config(topology.params(), 2);
  config.base.checkpoint_interval = util::kMillisecond;
  std::atomic<int> calls{0};
  config.base.checkpoint_sink = [&calls](io::ScanCheckpoint&) {
    calls.fetch_add(1, std::memory_order_relaxed);
    return true;
  };
  const ScanResult result = run_sharded(topology, config);
  EXPECT_GT(result.probes_sent, 0u);
  EXPECT_EQ(calls.load(), 0);
}

// Every shard reads the one exclusion list when it builds its DCB array, all
// at once.  The list is built with add_entry and not queried before the
// scan, so the shards' first queries are the first reads it sees.  The
// TSan job runs this case.
TEST(ShardedTracer, SharedExclusionListSkipsItsBlocksInEveryShard) {
  const sim::Topology topology(test_params());
  ExclusionList exclusions;
  for (const char* entry :
       {"1.0.5.7", "1.0.64.0/22", "1.0.140.0/24", "1.0.200.128/25"}) {
    ASSERT_TRUE(exclusions.add_entry(entry));  // one per shard of 64 /24s
  }
  ShardedTracerConfig config = test_config(topology.params(), 4);
  config.base.exclusions = &exclusions;
  const ScanResult four = run_sharded(topology, config);
  config.num_workers = 1;
  const ScanResult one = run_sharded(topology, config);

  EXPECT_GT(four.probes_sent, 0u);
  expect_identical(one, four);
  for (const auto& probe : four.probe_log) {
    EXPECT_FALSE(exclusions.excludes_prefix24(probe.destination >> 8))
        << net::Ipv4Address(probe.destination).to_string();
  }
}

TEST(ShardedTracer, MatchesUnshardedScanTopologyClosely) {
  // Sharding changes probe order and splits the Doubletree stop sets, so the
  // scans are not identical — but they probe the same targets and must
  // discover essentially the same world, with the sharded scan sending at
  // least as many probes (per-shard stop sets can only lose stops).
  const sim::SimParams params = test_params();
  const sim::Topology topology(params);

  const ShardedTracerConfig config = test_config(params, 4);
  sim::SimNetwork network(topology);
  sim::SimScanRuntime runtime(network, config.base.probes_per_second);
  Tracer unsharded(config.base, runtime);
  const ScanResult reference = unsharded.run();

  const ScanResult sharded = run_sharded(topology, 4);
  EXPECT_GE(sharded.probes_sent, reference.probes_sent);
  EXPECT_GE(sharded.interfaces.size(), reference.interfaces.size() * 9 / 10);
  EXPECT_EQ(sharded.destination_distance.size(),
            reference.destination_distance.size());
  // Destination distances depend only on the probed target addresses, which
  // are decomposition-independent (global target_seed keyed by absolute
  // prefix) — so reached destinations must agree exactly.
  EXPECT_EQ(sharded.destination_distance, reference.destination_distance);
}

TEST(ShardedTracer, HitlistPreprobesTargetTheirPrefixesEntry) {
  const sim::SimParams params = test_params();
  const sim::Topology topology(params);
  const std::vector<std::uint32_t> hitlist = topology.generate_hitlist();
  ShardedTracerConfig config = test_config(params, 1);
  config.base.preprobe = PreprobeMode::kHitlist;
  config.base.hitlist = &hitlist;
  sim::SimShardRuntimeProvider provider(topology, config);
  ShardedTracer tracer(config, provider);
  const ScanResult one = tracer.run();

  // Each preprobe goes to its /24's hitlist entry, or to the main target
  // where the entry is 0; both kinds occur.
  std::size_t from_hitlist = 0;
  std::size_t fallbacks = 0;
  for (const ProbeLogEntry& entry : one.probe_log) {
    if (!entry.preprobe) continue;
    const std::uint32_t offset =
        (entry.destination >> 8) - params.first_prefix;
    ASSERT_LT(offset, hitlist.size());
    if (hitlist[offset] != 0) {
      EXPECT_EQ(entry.destination, hitlist[offset]) << "offset " << offset;
      ++from_hitlist;
    } else {
      EXPECT_EQ(entry.destination, tracer.target_of(offset))
          << "offset " << offset;
      ++fallbacks;
    }
  }
  EXPECT_GT(from_hitlist, 0u);
  EXPECT_GT(fallbacks, 0u);
  EXPECT_EQ(from_hitlist + fallbacks, one.preprobe_probes);

  config.num_workers = 4;
  expect_identical(one, run_sharded(topology, config));
}

TEST(ShardedTracer, TargetOverrideReachesEveryShard) {
  const sim::SimParams params = test_params();
  const sim::Topology topology(params);
  // Sparse, and shorter than the universe: the last shard has no entries.
  std::vector<std::uint32_t> overrides(3 * params.num_prefixes() / 4, 0);
  for (std::size_t i = 0; i < overrides.size(); i += 3) {
    overrides[i] = (params.first_prefix + static_cast<std::uint32_t>(i)) << 8 |
                   static_cast<std::uint32_t>(1 + i % 200);
  }
  ShardedTracerConfig config = test_config(params, 2);
  config.base.target_override = &overrides;
  sim::SimShardRuntimeProvider provider(topology, config);
  ShardedTracer tracer(config, provider);

  std::size_t overridden = 0;
  for (std::uint32_t offset = 0; offset < params.num_prefixes(); ++offset) {
    const std::uint32_t expected =
        core::target_of(&overrides, config.base.target_seed,
                        config.base.first_prefix, offset);
    EXPECT_EQ(tracer.target_of(offset), expected) << "offset " << offset;
    if (offset < overrides.size() && overrides[offset] != 0) {
      EXPECT_EQ(expected, overrides[offset]);
      ++overridden;
    }
  }
  EXPECT_GT(overridden, 0u);

  // The shards probe those targets: every probe goes to its /24's
  // target_of.
  const ScanResult result = tracer.run();
  ASSERT_FALSE(result.probe_log.empty());
  for (const ProbeLogEntry& entry : result.probe_log) {
    const std::uint32_t offset =
        (entry.destination >> 8) - params.first_prefix;
    EXPECT_EQ(entry.destination, tracer.target_of(offset))
        << "offset " << offset;
  }
}

TEST(ShardedThreadedRuntime, RealTimeShardedScanDiscoversTheTopology) {
  sim::SimParams params;
  params.prefix_bits = 6;  // 64 prefixes: a sub-second real-time scan
  params.seed = 12;
  params.rtt_base = 200'000;
  params.rtt_per_hop = 50'000;
  params.rtt_jitter = 100'000;
  const sim::Topology topology(params);

  ShardedTracerConfig config;
  config.base.first_prefix = params.first_prefix;
  config.base.prefix_bits = params.prefix_bits;
  config.base.vantage = net::Ipv4Address(params.vantage_address);
  config.base.preprobe = PreprobeMode::kNone;
  config.base.min_round_duration = 10 * util::kMillisecond;
  config.base.probes_per_second = 40'000.0;
  config.num_workers = 4;
  config.shard_prefix_bits = 4;  // 4 shards of 16 /24s

  const auto shards = ShardedTracer::plan(config);
  sim::RealTimeSimWire wire(topology, params.first_prefix,
                            config.base.num_prefixes(),
                            static_cast<std::uint32_t>(shards.size()));
  ScanResult sharded;
  {
    ShardedThreadedRuntime runtime(wire, config);
    ShardedTracer tracer(config, runtime);
    sharded = tracer.run();
  }

  // Virtual-time sharded reference: same decomposition, same world.
  sim::SimShardRuntimeProvider provider(topology, config);
  auto reference_config = config;
  reference_config.base.min_round_duration = util::kSecond;
  ShardedTracer reference_tracer(reference_config, provider);
  const ScanResult reference = reference_tracer.run();

  EXPECT_GT(sharded.probes_sent, 0u);
  EXPECT_GT(sharded.interfaces.size(),
            reference.interfaces.size() * 8 / 10);
  EXPECT_LT(sharded.interfaces.size(),
            reference.interfaces.size() * 12 / 10 + 10);
  EXPECT_GT(sharded.destinations_reached,
            reference.destinations_reached * 7 / 10);
}

TEST(ShardedThreadedRuntime, WorkerSetRateLeavesThePaceUnchanged) {
  sim::SimParams params;
  params.prefix_bits = 4;
  const sim::Topology topology(params);
  ShardedTracerConfig config;
  config.base.first_prefix = params.first_prefix;
  config.base.prefix_bits = params.prefix_bits;
  config.base.probes_per_second = 2'000.0;
  config.num_workers = 1;
  config.shard_prefix_bits = 3;  // 2 shards of 8 /24s, both on worker 0
  const auto shards = ShardedTracer::plan(config);
  ASSERT_EQ(shards.size(), 2u);
  sim::RealTimeSimWire wire(topology, params.first_prefix,
                            config.base.num_prefixes(),
                            static_cast<std::uint32_t>(shards.size()));
  ShardedThreadedRuntime provider(wire, config);
  ScanRuntime& runtime = provider.runtime_for(shards.front());

  const ProbeCodec codec(net::Ipv4Address(params.vantage_address));
  std::array<std::byte, ProbeCodec::kMaxProbeSize> buf;
  const net::Ipv4Address dest((params.first_prefix << 8) | 1);
  const std::size_t size = codec.encode_udp(dest, 1, false, 0, buf);

  // The worker's lane paces both shards at 2 Kpps; one shard backing off
  // to 100 pps must not slow it.  200 probes take ≈ 90 ms (≈ 2 s at 100
  // pps).
  runtime.set_rate(100.0);
  const util::Nanos start = runtime.now();
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(runtime.try_send({buf.data(), size}));
  }
  const util::Nanos elapsed = runtime.now() - start;
  EXPECT_GT(elapsed, 60 * util::kMillisecond);
  EXPECT_LT(elapsed, 500 * util::kMillisecond);
  EXPECT_EQ(provider.packets_sent(), 200u);
}

TEST(ThreadedRuntime, DrainHotPathDoesNotAllocate) {
  sim::SimParams params;
  params.prefix_bits = 4;
  params.rtt_base = 100'000;
  params.rtt_per_hop = 10'000;
  params.rtt_jitter = 0;
  const sim::Topology topology(params);
  sim::RealTimeSimWire wire(topology, params.first_prefix,
                            std::uint32_t{1} << params.prefix_bits);
  ThreadedRuntime runtime(wire, 50'000.0);

  // Send a batch of probes and give the receiver time to publish every
  // response into the ring.
  const ProbeCodec codec(net::Ipv4Address(params.vantage_address));
  std::array<std::byte, ProbeCodec::kMaxProbeSize> buf;
  constexpr int kProbes = 16;
  for (int i = 0; i < kProbes; ++i) {
    const net::Ipv4Address dest(
        ((params.first_prefix + static_cast<std::uint32_t>(i)) << 8) | 1);
    const std::size_t size = codec.encode_udp(dest, 1, false, 0, buf);
    EXPECT_TRUE(runtime.try_send({buf.data(), size}));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // Steady state reached: drain the ring through a sink that only counts.
  // The sink is constructed (and any std::function storage allocated) before
  // the measurement window opens.
  std::uint64_t delivered = 0;
  const ScanRuntime::Sink sink = [&delivered](std::span<const std::byte>,
                                              util::Nanos) { ++delivered; };

  const std::uint64_t before = g_thread_allocations;
  runtime.drain(sink);
  const std::uint64_t after = g_thread_allocations;

  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(after - before, 0u)
      << "drain allocated on the hot path while delivering " << delivered
      << " packets";
}

}  // namespace
}  // namespace flashroute::core
