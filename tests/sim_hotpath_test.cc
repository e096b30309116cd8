// Hot-path guarantees of the allocation-free probe/response pipeline
// (DESIGN.md §6): the network's responses match recorded digests, pooled
// response slots are stable and recycled, the flat rate-limit table matches
// the semantics of per-IP token buckets, and the steady-state sim pipeline
// performs zero heap allocations per probe.
//
// Suites here are named Hotpath* so the CI sanitizer jobs can select them
// with a single -R filter.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/probe_codec.h"
#include "core/targets.h"
#include "sim/network.h"
#include "sim/response_pool.h"
#include "sim/rate_limit_table.h"
#include "sim/runtime.h"
#include "sim/topology.h"
#include "thread_allocations.h"
#include "util/rng.h"
#include "util/token_bucket.h"

namespace flashroute {
namespace {

sim::SimParams world_params(std::uint64_t seed, int bits) {
  sim::SimParams params;
  params.seed = seed;
  params.prefix_bits = bits;
  return params;
}

// --- Response golden --------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  return fnv1a(h, &word, sizeof word);
}

// A digest of every response SimNetwork::process_into returns for a fixed
// probe stream.  Every /24 of a 2^10 universe is probed at its random target
// and its appliance, from two source ports, with UDP and TCP probes at TTL
// 1..40 (past the end of every route, so loop tails answer), at send times
// spanning four dynamics epochs.  Each probe folds in its response's
// arrival, duplicate arrival and bytes, or a marker when the network stays
// silent.  Middleboxes and loops are made common and the ICMP rate limit
// low, so every response path runs.  The digests were recorded from the
// simulator that memoized resolved routes and their silence draws in a
// per-network cache, which served 97.5% of this destination-major stream;
// resolving every probe afresh must return the same bytes.
std::uint64_t response_digest(sim::TopologyMode mode, bool faulted) {
  sim::SimParams params = world_params(13, 10);
  params.topology_mode = mode;
  params.ttl_reset_middlebox_prob = 0.1;
  params.rewrite_middlebox_prob = 0.05;
  params.dark_loop_prob = 0.2;
  params.icmp_rate_limit_pps = 20.0;
  params.icmp_rate_limit_burst = 10.0;
  const sim::Topology topology(params);
  sim::FaultParams faults;
  if (faulted) {
    faults.probe_loss = 0.05;
    faults.response_loss = 0.05;
    faults.duplicate_prob = 0.05;
    faults.reorder_prob = 0.05;
    faults.corrupt_prob = 0.05;
    faults.blackhole_fraction = 0.02;
    faults.flap_fraction = 0.05;
  }
  sim::SimNetwork network(topology, faults);

  constexpr int kMaxTtl = 40;
  const std::uint64_t probes =
      std::uint64_t{2} * 2 * 2 * kMaxTtl * params.num_prefixes();
  const util::Nanos step =
      4 * params.dynamics_epoch / static_cast<util::Nanos>(probes);
  const net::Ipv4Address vantage(params.vantage_address);
  std::array<std::byte, core::ProbeCodec::kMaxProbeSize> probe;
  std::array<std::byte, net::kMaxResponseSize> out;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::uint64_t time_exceeded_at_max_ttl = 0;
  util::Nanos when = 0;
  for (const std::uint16_t port_offset : {0, 1}) {
    const core::ProbeCodec codec(vantage, port_offset);
    for (std::uint32_t i = 0; i < params.num_prefixes(); ++i) {
      const std::uint32_t prefix = params.first_prefix + i;
      for (const std::uint32_t target : {core::random_target(11, prefix),
                                         topology.appliance_address(prefix)}) {
        const net::Ipv4Address dst(target);
        for (const bool tcp : {false, true}) {
          for (int ttl = 1; ttl <= kMaxTtl; ++ttl) {
            const auto ttl8 = static_cast<std::uint8_t>(ttl);
            const std::size_t size =
                tcp ? codec.encode_tcp(dst, ttl8, when, probe)
                    : codec.encode_udp(dst, ttl8, false, when, probe);
            const auto response =
                network.process_into({probe.data(), size}, when, out);
            if (response) {
              digest = fnv1a(digest, static_cast<std::uint64_t>(
                                         response->arrival));
              digest = fnv1a(digest, static_cast<std::uint64_t>(
                                         response->duplicate_arrival));
              digest = fnv1a(digest, out.data(), response->size);
              // An ICMP time exceeded (protocol 1, type 11).
              if (ttl == kMaxTtl && out[9] == std::byte{1} &&
                  out[20] == std::byte{11}) {
                ++time_exceeded_at_max_ttl;
              }
            } else {
              digest = fnv1a(digest, ~std::uint64_t{0});
            }
            when += step;
          }
        }
      }
    }
  }
  const sim::NetworkStats& stats = network.stats();
  EXPECT_EQ(stats.probes, probes);
  EXPECT_GT(stats.time_exceeded_sent, 0u);
  EXPECT_GT(stats.destination_responses, 0u);
  EXPECT_GT(stats.silent_interface, 0u);
  EXPECT_GT(stats.silent_host, 0u);
  EXPECT_GT(stats.rate_limited, 0u);
  EXPECT_GT(stats.dropped_dark, 0u);
  // Loop tails and TTL-reset middleboxes answer past every route's end.
  EXPECT_GT(time_exceeded_at_max_ttl, 0u);
  // The last probes went out in the fourth dynamics epoch.
  EXPECT_EQ(when / params.dynamics_epoch, 3);
  return digest;
}

std::string hex(std::uint64_t digest) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(digest));
  return buffer;
}

TEST(HotpathGolden, ResponsesMatchRecordedDigests) {
  EXPECT_EQ(hex(response_digest(sim::TopologyMode::kMaterialized, false)),
            "b917e299cfa986c3");
  EXPECT_EQ(hex(response_digest(sim::TopologyMode::kSuccinct, false)),
            "59d210105d2a11d0");
  EXPECT_EQ(hex(response_digest(sim::TopologyMode::kMaterialized, true)),
            "b30deb7eb5c89b44");
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

// An entry is 24 bytes: address, drops, and the bucket's level; the rate
// and burst are held once per table.
static_assert(sizeof(sim::RateLimitTable::Entry) <= 24);

TEST(HotpathRateLimit, DenseAndSparseEntriesShareBucketSemantics) {
  // 4-token bucket: exactly 4 admits at t=0, refill after one second.
  const std::uint32_t pool_base = 0xC8000000;
  sim::RateLimitTable table(/*rate=*/4.0, /*burst=*/4.0, pool_base,
                            /*pool_size=*/16);
  const std::uint32_t dense_ip = pool_base + 3;       // inside the pool range
  const std::uint32_t sparse_ip = 0x01020304;          // stub-interior address
  for (const std::uint32_t ip : {dense_ip, sparse_ip}) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(table.admit(ip, 0)) << "admit " << i;
    }
    EXPECT_FALSE(table.admit(ip, 0));  // counts the drop
    EXPECT_TRUE(table.admit(ip, util::kSecond));
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

TEST(HotpathRateLimit, EntriesReplayTokenBucketDecisionForDecision) {
  // Reference: one util::TokenBucket per responder, created full at its
  // first response, as the seed simulator kept them.  Every admit of the
  // table, dense or sparse, must decide as that bucket does, while new
  // sparse responders keep arriving and the sparse table doubles.
  constexpr double kRate = 500.0;
  constexpr double kBurst = 3.0;
  const std::uint32_t pool_base = 0xC8000000;
  constexpr std::uint32_t kPoolSize = 8;
  sim::RateLimitTable table(kRate, kBurst, pool_base, kPoolSize);
  std::unordered_map<std::uint32_t, util::TokenBucket> reference;
  std::unordered_map<std::uint32_t, std::uint64_t> refused;

  util::Xoshiro256 rng(27);
  util::Nanos t = 0;
  std::uint64_t admitted = 0;
  constexpr int kResponses = 200'000;
  for (int i = 0; i < kResponses; ++i) {
    // Every fourth response or so shares its predecessor's time.  About
    // 15,000 responses a second overload the dense and the hot sparse
    // responders, whose buckets then hold fractional levels.
    if (rng.bounded(4) != 0) {
      t += static_cast<util::Nanos>(rng.bounded(180 * util::kMicrosecond));
    }
    std::uint32_t ip = 0;
    switch (rng.bounded(3)) {
      case 0:
        ip = pool_base + static_cast<std::uint32_t>(rng.bounded(kPoolSize));
        break;
      case 1:  // a few hot sparse responders, 0.0.0.0 among them
        ip = 0x01020300 + static_cast<std::uint32_t>(rng.bounded(4));
        if (ip == 0x01020300) ip = 0;
        break;
      default:  // ever more sparse responders
        ip = 0x0A000000 +
             977 * static_cast<std::uint32_t>(
                       rng.bounded(static_cast<std::uint64_t>(i / 16 + 1)));
    }
    auto& bucket = reference.try_emplace(ip, kRate, kBurst, t).first->second;
    const bool expected = bucket.try_consume(t);
    ASSERT_EQ(table.admit(ip, t), expected) << "response " << i;
    if (expected) {
      ++admitted;
    } else {
      ++refused[ip];
    }
  }
  EXPECT_GT(admitted, 0u);
  EXPECT_TRUE(refused.contains(pool_base));
  EXPECT_TRUE(refused.contains(0x01020301));
  EXPECT_TRUE(refused.contains(0));
  EXPECT_GT(reference.size(), 4000u);  // several sparse doublings
  EXPECT_EQ(table.drops(), refused);
}

TEST(HotpathRateLimit, DropCountSaturates) {
  sim::RateLimitTable table(/*rate=*/1.0, /*burst=*/1.0, 0xC8000000,
                            /*pool_size=*/4);
  for (const std::uint32_t ip : {0xC8000001u, 0x01020304u}) {
    EXPECT_TRUE(table.admit(ip, 0));
    table.entry(ip, 0).drops = std::numeric_limits<std::uint32_t>::max() - 1;
    EXPECT_FALSE(table.admit(ip, 0));
    EXPECT_FALSE(table.admit(ip, 0));
    EXPECT_EQ(table.entry(ip, 0).drops,
              std::numeric_limits<std::uint32_t>::max());
  }
}

// --- Zero allocations in steady state ---------------------------------------

// After warmup (pool blocks allocated, delivery wheel and limiter tables
// grown), pushing a full probe sweep through encode -> process
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
