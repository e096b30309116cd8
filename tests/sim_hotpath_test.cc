// Hot-path guarantees of the allocation-free probe/response pipeline
// (DESIGN.md §6): route memoization is bit-identical to re-resolving every
// probe, pooled response slots are stable and recycled, the flat rate-limit
// table matches the semantics of per-IP token buckets, and the steady-state
// sim pipeline performs zero heap allocations per probe.
//
// Suites here are named Hotpath* so the CI sanitizer jobs can select them
// with a single -R filter.

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <new>
#include <set>
#include <vector>

#include "core/probe_codec.h"
#include "core/tracer.h"
#include "sim/network.h"
#include "sim/response_pool.h"
#include "sim/rate_limit_table.h"
#include "sim/runtime.h"
#include "sim/topology.h"

// --- Thread-local allocation counting for the zero-allocation test ---------
//
// Replacing the global operators is binary-wide, so the counter is
// thread-local: only allocations made by the calling thread are charged.

namespace {
thread_local std::uint64_t g_thread_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_thread_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  ++g_thread_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace flashroute {
namespace {

sim::SimParams world_params(std::uint64_t seed, int bits) {
  sim::SimParams params;
  params.seed = seed;
  params.prefix_bits = bits;
  return params;
}

core::TracerConfig scan_config(const sim::SimParams& params) {
  core::TracerConfig config;
  config.first_prefix = params.first_prefix;
  config.prefix_bits = params.prefix_bits;
  config.vantage = net::Ipv4Address(params.vantage_address);
  config.probes_per_second =
      sim::scaled_probe_rate(100'000.0, params.prefix_bits);
  return config;
}

core::ScanResult run_scan(const sim::Topology& topology,
                          const core::TracerConfig& config) {
  sim::SimNetwork network(topology);
  sim::SimScanRuntime runtime(network, config.probes_per_second);
  core::Tracer tracer(config, runtime);
  return tracer.run();
}

bool hops_equal(const std::vector<core::RouteHop>& a,
                const std::vector<core::RouteHop>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].ip != b[i].ip || a[i].ttl != b[i].ttl ||
        a[i].flags != b[i].flags) {
      return false;
    }
  }
  return true;
}

void expect_results_identical(const core::ScanResult& a,
                              const core::ScanResult& b) {
  EXPECT_EQ(a.interfaces, b.interfaces);
  EXPECT_EQ(a.destination_distance, b.destination_distance);
  EXPECT_EQ(a.trigger_ttl, b.trigger_ttl);
  EXPECT_EQ(a.measured_distance, b.measured_distance);
  EXPECT_EQ(a.predicted_distance, b.predicted_distance);
  EXPECT_EQ(a.probes_sent, b.probes_sent);
  EXPECT_EQ(a.preprobe_probes, b.preprobe_probes);
  EXPECT_EQ(a.responses, b.responses);
  EXPECT_EQ(a.mismatches, b.mismatches);
  EXPECT_EQ(a.destinations_reached, b.destinations_reached);
  EXPECT_EQ(a.distances_measured, b.distances_measured);
  EXPECT_EQ(a.distances_predicted, b.distances_predicted);
  EXPECT_EQ(a.convergence_stops, b.convergence_stops);
  EXPECT_EQ(a.scan_time, b.scan_time);
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t i = 0; i < a.routes.size(); ++i) {
    EXPECT_TRUE(hops_equal(a.routes[i], b.routes[i]))
        << "routes diverge at prefix offset " << i;
  }
}

// --- Route-cache determinism ------------------------------------------------

// A full scan — preprobing, forward/backward probing, and two
// discovery-optimized extra scans whose shifted source ports change the flow
// label — must produce a bit-identical ScanResult whether SimNetwork resolves
// every probe from scratch (route_cache_bits = 0, the seed behaviour) or
// memoizes resolutions in the direct-mapped cache.  The dynamics epoch is
// shrunk so the scan crosses many epoch boundaries, exercising the epoch
// component of the cache tag.
TEST(HotpathDeterminism, CachedAndBypassedScansAreBitIdentical) {
  for (const std::uint64_t seed : {3u, 11u}) {
    sim::SimParams cached_params = world_params(seed, 9);
    cached_params.dynamics_epoch = 200 * util::kSecond;
    cached_params.route_cache_bits = -1;  // auto-sized cache

    sim::SimParams bypass_params = cached_params;
    bypass_params.route_cache_bits = 0;  // resolve every probe

    const sim::Topology cached_topology(cached_params);
    const sim::Topology bypass_topology(bypass_params);

    auto config = scan_config(cached_params);
    config.preprobe = core::PreprobeMode::kRandom;
    config.extra_scans = 2;
    config.collect_routes = true;

    const auto cached = run_scan(cached_topology, config);
    const auto bypassed = run_scan(bypass_topology, config);
    expect_results_identical(cached, bypassed);
  }
}

// Byte-level check on the network boundary itself: identical probe streams —
// spanning several destinations, TTLs, differing flow labels (shifted source
// ports) and several dynamics epochs — must elicit identical response bytes
// and arrival times from a cached and a bypassed SimNetwork.
TEST(HotpathDeterminism, CachedResponsesMatchBypassedByteForByte) {
  sim::SimParams cached_params = world_params(7, 8);
  cached_params.route_cache_bits = 6;  // tiny: forces collision evictions
  sim::SimParams bypass_params = cached_params;
  bypass_params.route_cache_bits = 0;

  const sim::Topology cached_topology(cached_params);
  const sim::Topology bypass_topology(bypass_params);
  sim::SimNetwork cached(cached_topology);
  sim::SimNetwork bypassed(bypass_topology);

  const net::Ipv4Address vantage(cached_params.vantage_address);
  std::array<std::byte, core::ProbeCodec::kMaxProbeSize> probe;
  util::Nanos when = 0;
  std::uint64_t responses = 0;
  for (int port_offset = 0; port_offset < 3; ++port_offset) {
    const core::ProbeCodec codec(vantage,
                                 static_cast<std::uint16_t>(port_offset));
    for (std::uint32_t block = 0; block < 64; ++block) {
      const net::Ipv4Address dst(
          ((cached_params.first_prefix + block * 4) << 8) | 0x64);
      for (std::uint8_t ttl = 1; ttl <= 16; ++ttl) {
        const std::size_t size =
            codec.encode_udp(dst, ttl, false, when, probe);
        ASSERT_GT(size, 0u);
        const std::span<const std::byte> wire(probe.data(), size);
        const auto a = cached.process(wire, when);
        const auto b = bypassed.process(wire, when);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a) {
          EXPECT_EQ(a->arrival, b->arrival);
          EXPECT_EQ(a->packet, b->packet);
          ++responses;
        }
        // Straddle several dynamics epochs over the stream.
        when += cached_params.dynamics_epoch / 100;
      }
    }
  }
  EXPECT_GT(responses, 100u);
  EXPECT_GT(cached.stats().route_cache_hits, 0u);
  EXPECT_EQ(bypassed.stats().route_cache_hits, 0u);
  EXPECT_EQ(cached.stats().route_cache_hits + cached.stats().route_cache_misses,
            bypassed.stats().route_cache_misses);
}

// --- Response pool ----------------------------------------------------------

TEST(HotpathPool, BuffersAreStableAcrossGrowthAndRecycled) {
  sim::ResponsePool pool;
  // Span over several growth blocks; pointers handed out earlier must not
  // move when later acquisitions grow the pool (block-based storage).
  std::vector<sim::ResponsePool::Slot> slots;
  std::vector<std::byte*> pointers;
  for (int i = 0; i < 300; ++i) {
    const auto slot = pool.acquire();
    slots.push_back(slot);
    pointers.push_back(pool.buffer(slot).data());
    pool.buffer(slot)[0] = std::byte(i & 0xFF);
  }
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(pool.buffer(slots[i]).data(), pointers[i]);
    EXPECT_EQ(pool.buffer(slots[i])[0], std::byte(i & 0xFF));
    EXPECT_GE(pool.buffer(slots[i]).size(), net::kMaxResponseSize);
  }
  // Full release then re-acquire: the pool recycles slots instead of growing.
  for (const auto slot : slots) pool.release(slot);
  std::set<sim::ResponsePool::Slot> recycled;
  for (int i = 0; i < 300; ++i) recycled.insert(pool.acquire());
  EXPECT_EQ(recycled.size(), 300u);
  for (const auto slot : recycled) {
    EXPECT_LT(slot, 320u) << "release/acquire grew the pool";
  }
}

// --- Flat rate-limit table --------------------------------------------------

TEST(HotpathRateLimit, DenseAndSparseEntriesShareBucketSemantics) {
  // 4-token bucket: exactly 4 admits at t=0, refill after one second.
  const std::uint32_t pool_base = 0xC8000000;
  sim::RateLimitTable table(/*rate=*/4.0, /*burst=*/4.0, pool_base,
                            /*pool_size=*/16);
  const std::uint32_t dense_ip = pool_base + 3;       // inside the pool range
  const std::uint32_t sparse_ip = 0x01020304;          // stub-interior address
  for (const std::uint32_t ip : {dense_ip, sparse_ip}) {
    auto& entry = table.entry(ip, 0);
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(entry.bucket.try_consume(0)) << "admit " << i;
    }
    EXPECT_FALSE(entry.bucket.try_consume(0));
    ++entry.drops;
    EXPECT_TRUE(entry.bucket.try_consume(util::kSecond));
  }
  const auto drops = table.drops();
  ASSERT_EQ(drops.size(), 2u);
  EXPECT_EQ(drops.at(dense_ip), 1u);
  EXPECT_EQ(drops.at(sparse_ip), 1u);
}

TEST(HotpathRateLimit, SparseTableSurvivesRehash) {
  sim::RateLimitTable table(1.0, 1.0, /*pool_base=*/0, /*pool_size=*/0);
  // Insert well past the initial sparse capacity to force several rehashes;
  // every entry must keep its identity (drops counter) across growth.
  constexpr std::uint32_t kEntries = 5000;
  for (std::uint32_t i = 0; i < kEntries; ++i) {
    auto& entry = table.entry(0x0A000000 + i * 977, 0);
    entry.drops = i;
  }
  for (std::uint32_t i = 0; i < kEntries; ++i) {
    EXPECT_EQ(table.entry(0x0A000000 + i * 977, 0).drops, i);
  }
  EXPECT_EQ(table.drops().size(), kEntries - 1);  // entry 0 has drops == 0
}

// --- Zero allocations in steady state ---------------------------------------

// After warmup (pool blocks allocated, route cache filled, pending heap and
// limiter tables grown), pushing a full probe sweep through encode -> process
// -> pooled delivery -> sink must not allocate at all.
TEST(HotpathAllocation, SteadyStateProbeResponsePipelineIsAllocationFree) {
  sim::SimParams params = world_params(5, 8);
  const sim::Topology topology(params);
  sim::SimNetwork network(topology);
  sim::SimScanRuntime runtime(network, 1'000'000.0);

  const core::ProbeCodec codec(net::Ipv4Address(params.vantage_address));
  std::array<std::byte, core::ProbeCodec::kMaxProbeSize> buf;
  std::uint64_t delivered = 0;
  const core::ScanRuntime::Sink sink =
      [&delivered](std::span<const std::byte>, util::Nanos) { ++delivered; };

  const auto sweep = [&] {
    for (std::uint32_t block = 0; block < 256; ++block) {
      const net::Ipv4Address dst(((params.first_prefix + block) << 8) | 0x64);
      for (std::uint8_t ttl = 1; ttl <= 24; ++ttl) {
        const std::size_t size =
            codec.encode_udp(dst, ttl, false, runtime.now(), buf);
        ASSERT_GT(size, 0u);
        EXPECT_TRUE(runtime.try_send({buf.data(), size}));
      }
      runtime.drain(sink);
    }
    runtime.idle_until(runtime.now() + util::kSecond, sink);
  };

  sweep();  // warmup: grows every container the pipeline touches
  const std::uint64_t warm_delivered = delivered;

  const std::uint64_t before = g_thread_allocations;
  sweep();
  const std::uint64_t after = g_thread_allocations;

  EXPECT_GT(delivered, warm_delivered);
  EXPECT_EQ(after - before, 0u)
      << "probe/response pipeline allocated during the steady-state sweep ("
      << delivered - warm_delivered << " responses delivered)";
}

}  // namespace
}  // namespace flashroute
