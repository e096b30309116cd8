// Tests for the simulated Internet topology (sim/topology.h): routing
// invariants, Paris-consistency, the hitlist's gateway bias, dark space,
// middleboxes, and dynamics.  Parameterized sweeps check the invariants
// over several seeds.

#include "sim/topology.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "core/targets.h"
#include "net/headers.h"
#include "util/rng.h"

namespace flashroute::sim {
namespace {

SimParams tiny_params(std::uint64_t seed = 1) {
  SimParams params;
  params.prefix_bits = 10;
  params.seed = seed;
  return params;
}

TEST(Topology, RejectsBadConfiguration) {
  SimParams params;
  params.prefix_bits = 0;
  EXPECT_THROW(Topology{params}, std::invalid_argument);
  params.prefix_bits = 25;
  EXPECT_THROW(Topology{params}, std::invalid_argument);

  // Universe overlapping the interface pool.
  params = tiny_params();
  params.first_prefix = params.interface_pool_base >> 8;
  EXPECT_THROW(Topology{params}, std::invalid_argument);

  // Universe overflowing IPv4 space.
  params = tiny_params();
  params.first_prefix = 0xFFFFFF;
  params.prefix_bits = 8;
  EXPECT_THROW(Topology{params}, std::invalid_argument);
}

TEST(Topology, InUniverse) {
  const Topology topo(tiny_params());
  EXPECT_TRUE(topo.in_universe(net::Ipv4Address(0x01000000)));
  EXPECT_TRUE(topo.in_universe(net::Ipv4Address(0x0103FFFF)));
  EXPECT_FALSE(topo.in_universe(net::Ipv4Address(0x01040000)));
  EXPECT_FALSE(topo.in_universe(net::Ipv4Address(0x00FFFFFF)));
}

TEST(Topology, ResolveFailsOutsideUniverse) {
  const Topology topo(tiny_params());
  Route route;
  EXPECT_FALSE(topo.resolve(net::Ipv4Address(0x7F000001), 1, 0, route));
}

TEST(Topology, DeterministicForSameSeed) {
  const Topology a(tiny_params(3));
  const Topology b(tiny_params(3));
  for (std::uint32_t i = 0; i < 1024; i += 7) {
    const net::Ipv4Address dest(((a.params().first_prefix + i) << 8) | 77);
    Route ra, rb;
    ASSERT_EQ(a.resolve(dest, 123, 0, ra), b.resolve(dest, 123, 0, rb));
    ASSERT_EQ(ra.num_hops, rb.num_hops);
    for (int pos = 1; pos <= ra.num_hops; ++pos) {
      ASSERT_EQ(ra.hop_at(pos), rb.hop_at(pos));
    }
    ASSERT_EQ(ra.delivers, rb.delivers);
  }
}

TEST(Topology, DifferentSeedsDiffer) {
  const Topology a(tiny_params(1));
  const Topology b(tiny_params(2));
  int differing = 0;
  for (std::uint32_t i = 0; i < 256; ++i) {
    const net::Ipv4Address dest(((a.params().first_prefix + i) << 8) | 50);
    Route ra, rb;
    EXPECT_TRUE(a.resolve(dest, 1, 0, ra));
    EXPECT_TRUE(b.resolve(dest, 1, 0, rb));
    if (ra.num_hops != rb.num_hops) ++differing;
  }
  EXPECT_GT(differing, 32);
}

class TopologyInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TopologyInvariants, RoutesAreWellFormed) {
  const Topology topo(tiny_params(GetParam()));
  const auto& params = topo.params();
  for (std::uint32_t i = 0; i < params.num_prefixes(); ++i) {
    const std::uint32_t prefix = params.first_prefix + i;
    for (const int octet : {1, 42, 200, 254}) {
      const net::Ipv4Address dest((prefix << 8) | octet);
      Route route;
      ASSERT_TRUE(topo.resolve(dest, 99, 0, route));
      ASSERT_GT(route.num_hops, 0);
      ASSERT_LE(route.num_hops, Route::kMaxHops);
      // Paths stay within the paper's 32-hop world (very few exceed it).
      ASSERT_LE(route.num_hops, 40);
      if (route.delivers) {
        ASSERT_NE(route.delivered_address, 0u);
        ASSERT_TRUE(topo.host_exists(
            net::Ipv4Address(route.delivered_address)));
      }
      if (route.loops) {
        ASSERT_FALSE(route.delivers);
        ASSERT_NE(route.loop_a(), 0u);
        ASSERT_NE(route.loop_b(), 0u);
        ASSERT_NE(route.loop_a(), route.loop_b());
      }
      // Every hop interface is an allocated pool IP or inside the prefix.
      for (int pos = 1; pos <= route.num_hops; ++pos) {
        const std::uint32_t ip = route.hop_at(pos);
        const bool in_pool =
            ip >= params.interface_pool_base &&
            ip < params.interface_pool_base +
                     topo.allocated_pool_interfaces();
        const bool in_prefix = (ip >> 8) == prefix;
        ASSERT_TRUE(in_pool || in_prefix)
            << net::Ipv4Address(ip).to_string();
      }
    }
  }
}

TEST_P(TopologyInvariants, ParisConsistency) {
  // Same flow label -> identical path (the Paris property FlashRoute's
  // fixed ports rely on); different flows may only diverge at diamonds.
  const Topology topo(tiny_params(GetParam()));
  const auto& params = topo.params();
  for (std::uint32_t i = 0; i < params.num_prefixes(); i += 13) {
    const net::Ipv4Address dest(((params.first_prefix + i) << 8) | 99);
    Route r1, r2, r3;
    EXPECT_TRUE(topo.resolve(dest, 0xAAAA, 0, r1));
    EXPECT_TRUE(topo.resolve(dest, 0xAAAA, 0, r2));
    EXPECT_TRUE(topo.resolve(dest, 0xBBBB, 0, r3));
    ASSERT_EQ(r1.num_hops, r2.num_hops);
    for (int pos = 1; pos <= r1.num_hops; ++pos) {
      ASSERT_EQ(r1.hop_at(pos), r2.hop_at(pos));
    }
    // A different flow keeps the same length (diamonds are hop-parallel).
    ASSERT_EQ(r1.num_hops, r3.num_hops);
    ASSERT_EQ(r1.delivers, r3.delivers);
  }
}

TEST_P(TopologyInvariants, SomeFlowsDiverge) {
  // Load balancing must actually do something: across many destinations
  // and two flows, at least some paths differ at some hop.
  const Topology topo(tiny_params(GetParam()));
  const auto& params = topo.params();
  int divergent = 0;
  for (std::uint32_t i = 0; i < params.num_prefixes(); ++i) {
    const net::Ipv4Address dest(((params.first_prefix + i) << 8) | 99);
    Route r1, r2;
    EXPECT_TRUE(topo.resolve(dest, 1, 0, r1));
    EXPECT_TRUE(topo.resolve(dest, 2, 0, r2));
    for (int pos = 1; pos <= r1.num_hops; ++pos) {
      if (r1.hop_at(pos) != r2.hop_at(pos)) {
        ++divergent;
        break;
      }
    }
  }
  EXPECT_GT(divergent, 10);
}

TEST_P(TopologyInvariants, SharedProviderSections) {
  // Doubletree's premise (Fig 1): routes from one vantage form a tree, so
  // the TTL-1 interface is shared by every destination.
  const Topology topo(tiny_params(GetParam()));
  const auto& params = topo.params();
  std::unordered_set<std::uint32_t> first_hops;
  for (std::uint32_t i = 0; i < params.num_prefixes(); i += 3) {
    const net::Ipv4Address dest(((params.first_prefix + i) << 8) | 10);
    Route route;
    EXPECT_TRUE(topo.resolve(dest, 7, 0, route));
    first_hops.insert(route.hop_at(1));
  }
  EXPECT_EQ(first_hops.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyInvariants,
                         ::testing::Values(1, 2, 3, 17, 99));

TEST(Topology, ApplianceAlwaysExistsInRoutedPrefixes) {
  const Topology topo(tiny_params());
  const auto& params = topo.params();
  for (std::uint32_t i = 0; i < params.num_prefixes(); ++i) {
    const std::uint32_t prefix = params.first_prefix + i;
    if (!topo.prefix_routed(prefix)) {
      EXPECT_FALSE(topo.host_exists(net::Ipv4Address((prefix << 8) | 1)));
      continue;
    }
    EXPECT_TRUE(topo.host_exists(
        net::Ipv4Address(topo.appliance_address(prefix))));
  }
}

TEST(Topology, ApplianceRouteIsShorterThanInteriorHost) {
  // The §5.1 bias mechanism: the appliance sits at the segment entrance.
  const Topology topo(tiny_params());
  const auto& params = topo.params();
  int compared = 0;
  for (std::uint32_t i = 0; i < params.num_prefixes() && compared < 50; ++i) {
    const std::uint32_t prefix = params.first_prefix + i;
    if (!topo.prefix_routed(prefix)) continue;
    const auto appliance_ttl = topo.trigger_ttl(
        net::Ipv4Address(topo.appliance_address(prefix)), 1, 0);
    ASSERT_TRUE(appliance_ttl);
    for (int octet = 2; octet < 255; ++octet) {
      const net::Ipv4Address host((prefix << 8) |
                                  static_cast<std::uint32_t>(octet));
      if (!topo.host_exists(host)) continue;
      const auto host_ttl = topo.trigger_ttl(host, 1, 0);
      ASSERT_TRUE(host_ttl);
      EXPECT_GT(*host_ttl, *appliance_ttl);
      ++compared;
      break;
    }
  }
  EXPECT_GT(compared, 10);
}

TEST(Topology, HitlistEntriesAreInTheirPrefixAndBiased) {
  const Topology topo(tiny_params());
  const auto& params = topo.params();
  const auto hitlist = topo.generate_hitlist();
  ASSERT_EQ(hitlist.size(), params.num_prefixes());
  std::uint32_t present = 0, appliance = 0;
  for (std::uint32_t i = 0; i < params.num_prefixes(); ++i) {
    if (hitlist[i] == 0) continue;
    ++present;
    const std::uint32_t prefix = params.first_prefix + i;
    EXPECT_EQ(hitlist[i] >> 8, prefix);
    EXPECT_TRUE(topo.prefix_routed(prefix));
    EXPECT_TRUE(topo.host_exists(net::Ipv4Address(hitlist[i])));
    if (hitlist[i] == topo.appliance_address(prefix)) ++appliance;
  }
  EXPECT_GT(present, 20u);
  // The census prefers gateway appliances (§5.1).
  EXPECT_GT(appliance * 10, present * 7);
}

TEST(Topology, DarkPrefixesNeverDeliver) {
  const Topology topo(tiny_params());
  const auto& params = topo.params();
  int dark_checked = 0;
  for (std::uint32_t i = 0; i < params.num_prefixes(); ++i) {
    const std::uint32_t prefix = params.first_prefix + i;
    if (topo.prefix_routed(prefix)) continue;
    Route route;
    ASSERT_TRUE(topo.resolve(net::Ipv4Address((prefix << 8) | 1), 5, 0,
                             route));
    EXPECT_FALSE(route.delivers);
    EXPECT_GT(route.num_hops, 0);  // dies inside the provider, not at once
    ++dark_checked;
  }
  EXPECT_GT(dark_checked, 50);
}

TEST(Topology, MiddleboxFieldsWhenForced) {
  auto params = tiny_params();
  params.ttl_reset_middlebox_prob = 1.0;
  const Topology topo(params);
  for (std::uint32_t i = 0; i < params.num_prefixes(); ++i) {
    const std::uint32_t prefix = params.first_prefix + i;
    if (!topo.prefix_routed(prefix)) continue;
    Route route;
    EXPECT_TRUE(topo.resolve(net::Ipv4Address(topo.appliance_address(prefix)),
                             1, 0, route));
    EXPECT_GT(route.middlebox_pos, 0);
    EXPECT_LE(route.middlebox_pos, route.num_hops);
    EXPECT_TRUE(route.middlebox_reset == params.ttl_reset_low ||
                route.middlebox_reset == params.ttl_reset_high);
  }
}

TEST(Topology, RewriteMiddleboxDeliversToAppliance) {
  auto params = tiny_params();
  params.rewrite_middlebox_prob = 1.0;
  const Topology topo(params);
  for (std::uint32_t i = 0; i < 64; ++i) {
    const std::uint32_t prefix = params.first_prefix + i;
    if (!topo.prefix_routed(prefix)) continue;
    Route route;
    EXPECT_TRUE(topo.resolve(net::Ipv4Address((prefix << 8) | 200), 1, 0, route));
    EXPECT_TRUE(route.delivers);
    EXPECT_TRUE(route.rewritten);
    EXPECT_EQ(route.delivered_address, topo.appliance_address(prefix));
    // Probing the appliance itself is not "rewritten".
    EXPECT_TRUE(topo.resolve(net::Ipv4Address(topo.appliance_address(prefix)),
                             1, 0, route));
    EXPECT_FALSE(route.rewritten);
  }
}

TEST(Topology, SpineDynamicsAreBoundedAndEpochStable) {
  const Topology topo(tiny_params());
  for (std::uint32_t stub = 0; stub < topo.num_stubs(); ++stub) {
    for (std::int64_t epoch = 0; epoch < 20; ++epoch) {
      const int s = topo.spine_length(stub, epoch);
      EXPECT_GE(s, 0);
      EXPECT_LE(s, 4);
      EXPECT_EQ(s, topo.spine_length(stub, epoch));  // stable within epoch
    }
  }
}

TEST(Topology, RouteDynamicsChangeSomeLengthsAcrossEpochs) {
  const Topology topo(tiny_params());
  const auto& params = topo.params();
  int changed = 0, total = 0;
  for (std::uint32_t i = 0; i < params.num_prefixes(); ++i) {
    const std::uint32_t prefix = params.first_prefix + i;
    if (!topo.prefix_routed(prefix)) continue;
    const net::Ipv4Address appliance(topo.appliance_address(prefix));
    const auto t0 = topo.trigger_ttl(appliance, 1, 0);
    const auto t9 = topo.trigger_ttl(appliance, 1, 9);
    if (!t0 || !t9) continue;
    ++total;
    if (*t0 != *t9) {
      ++changed;
      EXPECT_LE(std::abs(*t0 - *t9), 2);
    }
  }
  EXPECT_GT(changed, 0);
  EXPECT_LT(changed * 2, total);  // dynamics are the exception, not the rule
}

TEST(Topology, HopAtExtendsIntoLoops) {
  // A two-hop route held entirely in its tail: past the end, the probe
  // bounces between the last hop (loop_a) and the one before it (loop_b).
  Route route;
  route.tail = {10, 20};
  route.tail_len = 2;
  route.num_hops = 2;
  route.loops = true;
  EXPECT_EQ(route.loop_a(), 20u);
  EXPECT_EQ(route.loop_b(), 10u);
  EXPECT_EQ(route.hop_at(1), 10u);
  EXPECT_EQ(route.hop_at(2), 20u);
  EXPECT_EQ(route.hop_at(3), 20u);
  EXPECT_EQ(route.hop_at(4), 10u);
  EXPECT_EQ(route.hop_at(5), 20u);
}

// Route golden.  A digest of every route the topology resolves over a
// 2^12 universe: for each /24, its random target and its appliance, under
// three flow labels and two dynamics epochs.  It hashes num_hops, every
// hop_at(1..num_hops), two positions into the loop when the route loops,
// and the delivery, rewrite and middlebox fields.  Middleboxes are made
// common enough that every kind of route occurs.  The digests were
// recorded from the resolver that wrote every hop of a route into a
// 64-slot array; the descriptor that computes one hop per query must
// reproduce them in both topology modes.  The kSuccinct digest equals the
// one once recorded from the same derivation expanded into per-prefix
// tables, so it is the oracle for the on-demand derivation.
std::uint64_t route_digest(TopologyMode mode) {
  SimParams params;
  params.prefix_bits = 12;
  params.seed = 7;
  params.topology_mode = mode;
  params.ttl_reset_middlebox_prob = 0.1;
  params.rewrite_middlebox_prob = 0.05;
  const Topology topo(params);
  std::uint64_t digest = 0;
  int loops = 0, rewritten = 0, middleboxes = 0, delivered = 0;
  Route route;
  for (std::uint32_t i = 0; i < params.num_prefixes(); ++i) {
    const std::uint32_t prefix = params.first_prefix + i;
    for (const std::uint32_t target :
         {core::random_target(11, prefix), topo.appliance_address(prefix)}) {
      for (const std::uint64_t flow :
           {std::uint64_t{1}, std::uint64_t{0x5bd1e995},
            std::uint64_t{0xdeadbeefcafef00d}}) {
        for (const std::int64_t epoch : {std::int64_t{0}, std::int64_t{9}}) {
          EXPECT_TRUE(
              topo.resolve(net::Ipv4Address(target), flow, epoch, route));
          digest = util::hash_combine(
              digest, static_cast<std::uint64_t>(route.num_hops),
              std::uint64_t{route.delivers} |
                  std::uint64_t{route.rewritten} << 1 |
                  std::uint64_t{route.loops} << 2,
              route.delivered_address);
          digest = util::hash_combine(
              digest, static_cast<std::uint64_t>(route.middlebox_pos),
              route.middlebox_reset);
          for (int pos = 1; pos <= route.num_hops; ++pos) {
            digest = util::hash_combine(digest, route.hop_at(pos));
          }
          if (route.loops) {
            digest = util::hash_combine(digest,
                                        route.hop_at(route.num_hops + 1),
                                        route.hop_at(route.num_hops + 2));
          }
          loops += route.loops ? 1 : 0;
          rewritten += route.rewritten ? 1 : 0;
          middleboxes += route.middlebox_pos > 0 ? 1 : 0;
          delivered += route.delivers ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(loops, 0);
  EXPECT_GT(rewritten, 0);
  EXPECT_GT(middleboxes, 0);
  EXPECT_GT(delivered, 0);
  return digest;
}

TEST(Topology, RouteGoldenDigest) {
  EXPECT_EQ(route_digest(TopologyMode::kMaterialized), 0xa3104f64afbf598aull);
  EXPECT_EQ(route_digest(TopologyMode::kSuccinct), 0xd24b8604ca7c9dd7ull);
}

TEST(Topology, SuccinctStoresNoPerPrefixState) {
  // The template pool is fixed, independent of universe size — the
  // property that caps full-scale memory.
  SimParams params;
  params.topology_mode = TopologyMode::kSuccinct;
  params.seed = 3;
  params.prefix_bits = 10;
  const Topology small(params);
  params.prefix_bits = 16;
  const Topology large(params);
  EXPECT_EQ(small.num_stubs(), large.num_stubs());
  EXPECT_EQ(small.num_stubs(), 256u);
}

TEST(Topology, InterfaceResponsivenessIsPersistent) {
  const Topology topo(tiny_params());
  int silent = 0;
  for (std::uint32_t ip = topo.params().interface_pool_base;
       ip < topo.params().interface_pool_base + 500; ++ip) {
    const bool responds = topo.interface_responds(ip, net::kProtoUdp);
    EXPECT_EQ(responds, topo.interface_responds(ip, net::kProtoUdp));
    if (!responds) ++silent;
    // TCP-silence is a superset of UDP-silence.
    if (!responds) {
      EXPECT_FALSE(topo.interface_responds(ip, net::kProtoTcp));
    }
  }
  EXPECT_GT(silent, 20);   // some silent interfaces
  EXPECT_LT(silent, 300);  // most respond
}

TEST(Topology, TcpSilenceIsSlightlyHigher) {
  const Topology topo(tiny_params());
  int udp = 0, tcp = 0;
  for (std::uint32_t ip = topo.params().interface_pool_base;
       ip < topo.params().interface_pool_base + 2000; ++ip) {
    if (topo.interface_responds(ip, net::kProtoUdp)) ++udp;
    if (topo.interface_responds(ip, net::kProtoTcp)) ++tcp;
  }
  EXPECT_LT(tcp, udp);
}

}  // namespace
}  // namespace flashroute::sim
