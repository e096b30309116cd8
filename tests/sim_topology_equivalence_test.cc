// Equivalence proof for the succinct topology modes (sim/topology.h):
// kSuccinct derives every per-prefix attribute on demand from
// (prefix offset, seeds); kSuccinctMaterialized expands the identical
// derivation into per-prefix tables.  The two must therefore resolve
// bit-identical routes, agree on every per-prefix query, emit the same
// hitlist, and drive a same-seed Tracer scan to byte-equal results —
// proving that dropping the tables (the full-scale memory win) changes
// nothing observable.

#include "sim/topology.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/tracer.h"
#include "sim/network.h"
#include "sim/runtime.h"

namespace flashroute::sim {
namespace {

SimParams succinct_params(int bits, std::uint64_t seed,
                          TopologyMode mode) {
  SimParams params;
  params.prefix_bits = bits;
  params.seed = seed;
  params.topology_mode = mode;
  return params;
}

void expect_routes_equal(const Route& a, const Route& b,
                         std::uint32_t prefix) {
  ASSERT_EQ(a.num_hops, b.num_hops) << "prefix " << prefix;
  for (int pos = 1; pos <= a.num_hops; ++pos) {
    ASSERT_EQ(a.hop_at(pos), b.hop_at(pos))
        << "prefix " << prefix << " hop " << pos;
  }
  ASSERT_EQ(a.delivers, b.delivers) << "prefix " << prefix;
  ASSERT_EQ(a.delivered_address, b.delivered_address) << "prefix " << prefix;
  ASSERT_EQ(a.rewritten, b.rewritten) << "prefix " << prefix;
  ASSERT_EQ(a.loops, b.loops) << "prefix " << prefix;
  if (a.loops) {
    ASSERT_EQ(a.loop_a(), b.loop_a()) << "prefix " << prefix;
    ASSERT_EQ(a.loop_b(), b.loop_b()) << "prefix " << prefix;
  }
  ASSERT_EQ(a.middlebox_pos, b.middlebox_pos) << "prefix " << prefix;
  ASSERT_EQ(a.middlebox_reset, b.middlebox_reset) << "prefix " << prefix;
}

class TopologyEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(TopologyEquivalence, OnDemandMatchesMaterializedEverywhere) {
  const int bits = GetParam();
  const Topology on_demand(
      succinct_params(bits, 99, TopologyMode::kSuccinct));
  const Topology materialized(
      succinct_params(bits, 99, TopologyMode::kSuccinctMaterialized));

  const std::uint32_t num_prefixes = on_demand.params().num_prefixes();
  // Full sweep at small scales; strided (but boundary-crossing) above.
  const std::uint32_t stride = bits <= 12 ? 1 : 13;
  Route ra, rb;
  for (std::uint32_t i = 0; i < num_prefixes; i += stride) {
    const std::uint32_t prefix = on_demand.params().first_prefix + i;
    ASSERT_EQ(on_demand.prefix_routed(prefix),
              materialized.prefix_routed(prefix));
    ASSERT_EQ(on_demand.stub_is_responsive(prefix),
              materialized.stub_is_responsive(prefix));
    for (const std::uint8_t octet : {std::uint8_t{1}, std::uint8_t{77}}) {
      const net::Ipv4Address dest((prefix << 8) | octet);
      const std::uint64_t flow = 0x9E3779B9u ^ i;
      ASSERT_EQ(on_demand.resolve(dest, flow, 0, ra),
                materialized.resolve(dest, flow, 0, rb));
      expect_routes_equal(ra, rb, prefix);
      ASSERT_EQ(on_demand.trigger_ttl(dest, flow, 1),
                materialized.trigger_ttl(dest, flow, 1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(UpToSixteenBits, TopologyEquivalence,
                         ::testing::Values(12, 14, 16));

TEST(TopologyEquivalence, DynamicsEpochsAgree) {
  const Topology on_demand(
      succinct_params(12, 5, TopologyMode::kSuccinct));
  const Topology materialized(
      succinct_params(12, 5, TopologyMode::kSuccinctMaterialized));
  Route ra, rb;
  for (std::int64_t epoch = 0; epoch < 8; ++epoch) {
    for (std::uint32_t i = 0; i < 512; i += 3) {
      const std::uint32_t prefix = on_demand.params().first_prefix + i;
      const net::Ipv4Address dest((prefix << 8) | 1);
      ASSERT_EQ(on_demand.resolve(dest, 7, epoch, ra),
                materialized.resolve(dest, 7, epoch, rb));
      expect_routes_equal(ra, rb, prefix);
    }
  }
}

TEST(TopologyEquivalence, HitlistsAreIdentical) {
  const Topology on_demand(
      succinct_params(13, 17, TopologyMode::kSuccinct));
  const Topology materialized(
      succinct_params(13, 17, TopologyMode::kSuccinctMaterialized));
  EXPECT_EQ(on_demand.generate_hitlist(), materialized.generate_hitlist());
}

TEST(TopologyEquivalence, SuccinctStoresNoPerPrefixState) {
  // The pool is fixed by template_pool_bits, independent of universe size —
  // the property that caps full-scale memory.
  const Topology small(succinct_params(10, 3, TopologyMode::kSuccinct));
  const Topology large(succinct_params(16, 3, TopologyMode::kSuccinct));
  EXPECT_EQ(small.num_stubs(), large.num_stubs());
  EXPECT_EQ(small.num_stubs(), 256u);  // default template_pool_bits = 8
}

core::ScanResult scan_with(TopologyMode mode) {
  const Topology topology(succinct_params(12, 21, mode));
  core::TracerConfig config;
  config.first_prefix = topology.params().first_prefix;
  config.prefix_bits = topology.params().prefix_bits;
  config.vantage = net::Ipv4Address(topology.params().vantage_address);
  config.probes_per_second =
      scaled_probe_rate(100'000.0, topology.params().prefix_bits);
  config.preprobe = core::PreprobeMode::kRandom;
  SimNetwork network(topology);
  SimScanRuntime runtime(network, config.probes_per_second);
  core::Tracer tracer(config, runtime);
  return tracer.run();
}

TEST(TopologyEquivalence, SameSeedScansAreByteEqual) {
  const auto a = scan_with(TopologyMode::kSuccinct);
  const auto b = scan_with(TopologyMode::kSuccinctMaterialized);
  EXPECT_EQ(a.probes_sent, b.probes_sent);
  EXPECT_EQ(a.preprobe_probes, b.preprobe_probes);
  EXPECT_EQ(a.responses, b.responses);
  EXPECT_EQ(a.destinations_reached, b.destinations_reached);
  EXPECT_EQ(a.interfaces, b.interfaces);
  EXPECT_EQ(a.routes, b.routes);
  EXPECT_EQ(a.destination_distance, b.destination_distance);
  EXPECT_EQ(a.trigger_ttl, b.trigger_ttl);
  EXPECT_EQ(a.measured_distance, b.measured_distance);
  EXPECT_EQ(a.predicted_distance, b.predicted_distance);
}

}  // namespace
}  // namespace flashroute::sim
