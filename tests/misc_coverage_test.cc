// Remaining coverage: logging levels, hitlist generation determinism,
// exclusion-range merging internals, Scamper's forward-horizon extension,
// writers on empty results, and the world's calibration invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/scamper.h"
#include "core/exclusion.h"
#include "core/targets.h"
#include "io/scan_archive.h"
#include "sim/network.h"
#include "sim/runtime.h"
#include "sim/topology.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"

namespace flashroute {
namespace {

TEST(Logging, ThresholdGatesMessages) {
  const auto previous = util::log_threshold();
  util::set_log_threshold(util::LogLevel::kError);
  EXPECT_EQ(util::log_threshold(), util::LogLevel::kError);
  // Suppressed levels must not crash or allocate surprisingly; there is no
  // observable output channel to assert on, so this is a smoke check.
  FR_LOG_DEBUG("invisible %d", 1);
  FR_LOG_INFO("invisible %s", "too");
  util::set_log_threshold(previous);
}

TEST(Hitlist, GenerationIsDeterministic) {
  sim::SimParams params;
  params.prefix_bits = 9;
  params.seed = 7;
  const sim::Topology a(params);
  const sim::Topology b(params);
  EXPECT_EQ(a.generate_hitlist(), b.generate_hitlist());
}

TEST(Hitlist, InteriorEntriesAreResponsiveHosts) {
  sim::SimParams params;
  params.prefix_bits = 10;
  params.seed = 3;
  params.hitlist_is_appliance_prob = 0.0;  // force interior candidates
  const sim::Topology topology(params);
  const auto hitlist = topology.generate_hitlist();
  int interior = 0;
  for (std::uint32_t i = 0; i < params.num_prefixes(); ++i) {
    if (hitlist[i] == 0) continue;
    const net::Ipv4Address entry(hitlist[i]);
    EXPECT_TRUE(topology.host_exists(entry));
    if (hitlist[i] != topology.appliance_address(params.first_prefix + i)) {
      ++interior;
      // The census found it because it answers probes.
      EXPECT_TRUE(topology.host_responds(entry, net::kProtoUdp));
    }
  }
  EXPECT_GT(interior, 0);
}

TEST(Exclusion, AdjacentRangesMergeSeamlessly) {
  core::ExclusionList list;
  ASSERT_TRUE(list.add_entry("1.0.0.0/25"));    // .0   - .127
  ASSERT_TRUE(list.add_entry("1.0.0.128/25"));  // .128 - .255
  EXPECT_TRUE(list.contains(*net::Ipv4Address::parse("1.0.0.127")));
  EXPECT_TRUE(list.contains(*net::Ipv4Address::parse("1.0.0.128")));
  EXPECT_FALSE(list.contains(*net::Ipv4Address::parse("1.0.1.0")));
  EXPECT_TRUE(list.excludes_prefix24(0x010000));
}

TEST(Exclusion, TopOfAddressSpace) {
  core::ExclusionList list;
  ASSERT_TRUE(list.add_entry("255.255.255.255"));
  EXPECT_TRUE(list.contains(net::Ipv4Address(0xFFFFFFFF)));
  EXPECT_FALSE(list.contains(net::Ipv4Address(0xFFFFFFFE)));
  ASSERT_TRUE(list.add_entry("255.255.255.0/24"));
  EXPECT_TRUE(list.contains(net::Ipv4Address(0xFFFFFF00)));
}

// The merged ranges answer every query the way a brute-force scan over the
// CIDRs they were built from does.  Each random set mixes add, add_entry
// and load, packs its bases into two small regions (so ranges nest,
// overlap and touch), and pins the edges: /0, a /32 on a /24 edge, and
// 255.255.255.255.
TEST(Exclusion, RandomCidrSetsMatchABruteForceScan) {
  struct Cidr {
    std::uint32_t base;
    int length;
    std::uint32_t first;
    std::uint32_t last;

    std::string text() const {
      return net::Ipv4Address(base).to_string() + "/" +
             std::to_string(length);
    }
  };
  util::Xoshiro256 rng(20240917);
  for (int round = 0; round < 300; ++round) {
    std::vector<Cidr> cidrs;
    const int count = 1 + static_cast<int>(rng.bounded(10));
    for (int i = 0; i < count; ++i) {
      const std::uint32_t region = rng.chance(0.5) ? 0x01000000u : 0xFFFF0000u;
      std::uint32_t base =
          region | static_cast<std::uint32_t>(rng.bounded(1u << 16));
      int length = static_cast<int>(rng.range(16, 32));
      if (i == 0 && round % 4 == 0) {
        // A /32 on the first or last address of its /24.
        base = (base & ~0xFFu) | (rng.chance(0.5) ? 0x00u : 0xFFu);
        length = 32;
      } else if (i == 0 && round % 4 == 1) {
        base = 0xFFFFFFFFu;
        length = 32;
      } else if (i == 0 && round % 20 == 2) {
        length = 0;
      }
      const std::uint32_t mask =
          length == 0 ? 0u : ~std::uint32_t{0} << (32 - length);
      cidrs.push_back({base, length, base & mask, (base & mask) | ~mask});
    }

    core::ExclusionList list;
    std::string file = "# entries merged by load\n";
    for (const Cidr& cidr : cidrs) {
      switch (rng.bounded(3)) {
        case 0:
          list.add(net::Ipv4Address(cidr.base), cidr.length);
          break;
        case 1:
          ASSERT_TRUE(list.add_entry(cidr.text()));
          break;
        default:
          file += cidr.text() + "\n";
      }
    }
    std::istringstream input(file);
    ASSERT_TRUE(list.load(input).has_value());

    const auto brute_contains = [&](std::uint32_t address) {
      return std::any_of(cidrs.begin(), cidrs.end(), [&](const Cidr& c) {
        return c.first <= address && address <= c.last;
      });
    };
    const auto brute_prefix24 = [&](std::uint32_t prefix) {
      const std::uint32_t lo = prefix << 8;
      return std::any_of(cidrs.begin(), cidrs.end(), [&](const Cidr& c) {
        return c.first <= (lo | 0xFFu) && c.last >= lo;
      });
    };

    std::vector<std::uint32_t> probes = {0u, 0xFFFFFFFFu, 0x01000000u,
                                         0xFFFF0000u};
    for (const Cidr& c : cidrs) {
      probes.insert(probes.end(), {c.first - 1, c.first, c.last, c.last + 1});
    }
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t region = rng.chance(0.5) ? 0x01000000u : 0xFFFF0000u;
      probes.push_back(region |
                       static_cast<std::uint32_t>(rng.bounded(1u << 16)));
    }
    for (const std::uint32_t address : probes) {
      EXPECT_EQ(list.contains(net::Ipv4Address(address)),
                brute_contains(address))
          << "round " << round << " address " << address;
      const std::uint32_t prefix = address >> 8;
      EXPECT_EQ(list.excludes_prefix24(prefix), brute_prefix24(prefix))
          << "round " << round << " prefix " << prefix;
    }

    // Windows: one at each end of the space and two inside the regions.
    const auto window_count = [&] {
      return 1 + static_cast<std::uint32_t>(rng.bounded(600));
    };
    const std::uint32_t top_count = window_count();
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> windows = {
        {0u, window_count()},
        {0x1000000u - top_count, top_count},
        {0x010000u + static_cast<std::uint32_t>(rng.bounded(256)),
         window_count()},
        {0xFFFF00u + static_cast<std::uint32_t>(rng.bounded(200)), 50u}};
    for (const auto& [first, size] : windows) {
      std::vector<std::uint64_t> bitmap((size + 63) / 64, 0);
      list.mark_excluded_prefix24(first, size, bitmap);
      for (std::uint32_t i = 0; i < size; ++i) {
        const bool bit = ((bitmap[i >> 6] >> (i & 63)) & 1) != 0;
        ASSERT_EQ(bit, brute_prefix24(first + i))
            << "round " << round << " window " << first << "+" << i;
      }
    }
  }
}

TEST(Targets, RandomTargetAvoidsNetworkAndBroadcastOctets) {
  for (std::uint32_t prefix = 0x010000; prefix < 0x010400; ++prefix) {
    const std::uint32_t target = core::random_target(42, prefix);
    EXPECT_EQ(target >> 8, prefix);
    const std::uint8_t octet = target & 0xFF;
    EXPECT_GE(octet, 1);
    EXPECT_LE(octet, 254);
  }
}

TEST(Targets, DifferentSeedsPickDifferentRepresentatives) {
  int same = 0;
  for (std::uint32_t prefix = 0x010000; prefix < 0x010400; ++prefix) {
    if (core::random_target(1, prefix) == core::random_target(2, prefix)) {
      ++same;
    }
  }
  EXPECT_LT(same, 40);  // ~1/254 expected collisions
}

TEST(Scamper, ForwardHorizonExtendsOnResponses) {
  // A world with a perfectly responsive core: scamper's forward probing
  // from first_ttl must walk all the way to each responsive destination,
  // not stop at first_ttl + gap.
  sim::SimParams params;
  params.prefix_bits = 6;
  params.seed = 2;
  params.interface_silent_prob = 0.0;
  for (auto& p : params.filtered_tail_cum_pct) p = 100;
  params.icmp_rate_limit_pps = 1e9;
  params.icmp_rate_limit_burst = 1e9;
  params.route_dynamics_prob = 0.0;
  const sim::Topology topology(params);

  baselines::ScamperConfig config;
  config.first_prefix = params.first_prefix;
  config.prefix_bits = params.prefix_bits;
  config.vantage = net::Ipv4Address(params.vantage_address);
  config.probes_per_second =
      sim::scaled_probe_rate(10'000.0, params.prefix_bits);
  config.first_ttl = 4;  // far below typical distances
  sim::SimNetwork network(topology);
  sim::SimScanRuntime runtime(network, config.probes_per_second);
  baselines::Scamper scamper(config, runtime);
  const auto result = scamper.run();

  int beyond_gap = 0;
  for (std::uint32_t i = 0; i < config.num_prefixes(); ++i) {
    const auto distance = result.destination_distance[i];
    if (distance == 0) continue;
    if (distance > config.first_ttl + config.gap_limit) ++beyond_gap;
  }
  EXPECT_GT(beyond_gap, 0)
      << "forward probing never extended past the initial horizon";
}

TEST(Writers, EmptyResultsProduceHeadersOnly) {
  core::ScanResult empty;
  std::ostringstream text, csv;
  const io::TargetResolver resolver = [](std::uint32_t) { return 0u; };
  io::write_routes_text(empty, resolver, 0, text);
  EXPECT_TRUE(text.str().empty());
  io::write_routes_csv(empty, resolver, 0, csv);
  EXPECT_EQ(csv.str(), "prefix,target,ttl,hop,kind\n");

  io::Writer archive;
  io::write_archive(empty, {0, 1, 0}, archive);
  const auto loaded = io::read_archive(archive.str());
  ASSERT_TRUE(loaded);
  EXPECT_TRUE(loaded->result.interfaces.empty());
  EXPECT_TRUE(loaded->result.routes.empty());
}

TEST(Calibration, WorldMatchesPaperObservations) {
  // The DESIGN.md §5 calibration targets, asserted so parameter drift is
  // caught by CI rather than by a puzzled bench reader.
  sim::SimParams params;
  params.prefix_bits = 14;
  const sim::Topology topology(params);

  std::uint64_t responsive = 0;
  util::Histogram distances;
  for (std::uint32_t i = 0; i < params.num_prefixes(); ++i) {
    const std::uint32_t prefix = params.first_prefix + i;
    const net::Ipv4Address target(core::random_target(42, prefix));
    if (topology.host_exists(target) &&
        topology.host_responds(target, net::kProtoUdp)) {
      ++responsive;
    }
    if (const auto ttl = topology.trigger_ttl(target, 1, 0)) {
      distances.add(*ttl);
    }
  }
  const double responsive_rate =
      static_cast<double>(responsive) / params.num_prefixes();
  // Paper: ~4.0% of random targets answer the preprobe.
  EXPECT_GT(responsive_rate, 0.025);
  EXPECT_LT(responsive_rate, 0.065);
  // Distances: median in the mid-teens, almost nothing beyond 32.
  EXPECT_GE(distances.quantile(0.5), 13);
  EXPECT_LE(distances.quantile(0.5), 20);
  EXPECT_LE(distances.quantile(0.999), 32);
}

}  // namespace
}  // namespace flashroute
