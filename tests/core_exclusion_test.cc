// Tests for exclusion lists (ethics appendix) and target-list loading
// (§3.4's exterior-file option).

#include "core/exclusion.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/tracer.h"
#include "sim/network.h"
#include "sim/runtime.h"
#include "sim/topology.h"

namespace flashroute::core {
namespace {

TEST(ExclusionList, SingleAddress) {
  ExclusionList list;
  EXPECT_TRUE(list.add_entry("1.2.3.4"));
  EXPECT_TRUE(list.contains(*net::Ipv4Address::parse("1.2.3.4")));
  EXPECT_FALSE(list.contains(*net::Ipv4Address::parse("1.2.3.5")));
  EXPECT_FALSE(list.contains(*net::Ipv4Address::parse("1.2.3.3")));
}

TEST(ExclusionList, CidrRanges) {
  ExclusionList list;
  EXPECT_TRUE(list.add_entry("10.20.0.0/16"));
  EXPECT_TRUE(list.contains(*net::Ipv4Address::parse("10.20.0.0")));
  EXPECT_TRUE(list.contains(*net::Ipv4Address::parse("10.20.255.255")));
  EXPECT_FALSE(list.contains(*net::Ipv4Address::parse("10.21.0.0")));
  EXPECT_FALSE(list.contains(*net::Ipv4Address::parse("10.19.255.255")));
}

TEST(ExclusionList, HostBitsAreMasked) {
  ExclusionList list;
  EXPECT_TRUE(list.add_entry("192.168.77.200/24"));
  EXPECT_TRUE(list.contains(*net::Ipv4Address::parse("192.168.77.1")));
}

TEST(ExclusionList, SlashZeroCoversEverything) {
  ExclusionList list;
  EXPECT_TRUE(list.add_entry("0.0.0.0/0"));
  EXPECT_TRUE(list.contains(*net::Ipv4Address::parse("8.8.8.8")));
  EXPECT_TRUE(list.contains(*net::Ipv4Address::parse("255.255.255.255")));
}

TEST(ExclusionList, RejectsMalformedEntries) {
  ExclusionList list;
  EXPECT_FALSE(list.add_entry("1.2.3"));
  EXPECT_FALSE(list.add_entry("1.2.3.4/33"));
  EXPECT_FALSE(list.add_entry("1.2.3.4/-1"));
  EXPECT_FALSE(list.add_entry("1.2.3.4/"));
  EXPECT_FALSE(list.add_entry("hello"));
  EXPECT_TRUE(list.empty());
}

TEST(ExclusionList, OverlappingRangesMerge) {
  ExclusionList list;
  EXPECT_TRUE(list.add_entry("1.0.0.0/24"));
  EXPECT_TRUE(list.add_entry("1.0.0.128/25"));
  EXPECT_TRUE(list.add_entry("1.0.1.0/24"));
  // Merging happens lazily; all queries consistent.
  EXPECT_TRUE(list.contains(*net::Ipv4Address::parse("1.0.0.5")));
  EXPECT_TRUE(list.contains(*net::Ipv4Address::parse("1.0.1.200")));
  EXPECT_FALSE(list.contains(*net::Ipv4Address::parse("1.0.2.0")));
}

TEST(ExclusionList, Prefix24Overlap) {
  ExclusionList list;
  EXPECT_TRUE(list.add_entry("9.9.9.77"));  // single host
  // The conservative opt-out: the whole /24 around it is off limits.
  EXPECT_TRUE(list.excludes_prefix24(0x090909));
  EXPECT_FALSE(list.excludes_prefix24(0x090908));
  EXPECT_FALSE(list.excludes_prefix24(0x09090A));

  EXPECT_TRUE(list.add_entry("20.0.0.0/14"));
  EXPECT_TRUE(list.excludes_prefix24(0x140000));  // 20.0.0.0/24
  EXPECT_TRUE(list.excludes_prefix24(0x1403FF));  // 20.3.255.0/24
  EXPECT_FALSE(list.excludes_prefix24(0x140400)); // 20.4.0.0/24
}

TEST(ExclusionList, SlashZeroAbsorbsLaterRanges) {
  // Regression (ISSUE 6): after a saturated range (last == 255.255.255.255)
  // the merge in normalize() must keep absorbing later ranges, and every
  // query must stay covered.
  ExclusionList list;
  EXPECT_TRUE(list.add_entry("0.0.0.0/0"));
  EXPECT_TRUE(list.add_entry("1.2.3.0/24"));
  EXPECT_TRUE(list.add_entry("200.0.0.0/8"));
  EXPECT_TRUE(list.contains(*net::Ipv4Address::parse("1.2.3.4")));
  EXPECT_TRUE(list.contains(*net::Ipv4Address::parse("199.9.9.9")));
  EXPECT_TRUE(list.contains(*net::Ipv4Address::parse("255.255.255.255")));
  EXPECT_TRUE(list.excludes_prefix24(0x000000));
  EXPECT_TRUE(list.excludes_prefix24(0xFFFFFF));
}

TEST(ExclusionList, SaturatedEndStillMergesAdjacent) {
  // Two ranges meeting exactly at the top of the address space.
  ExclusionList list;
  EXPECT_TRUE(list.add_entry("255.255.254.0/24"));
  EXPECT_TRUE(list.add_entry("255.255.255.0/24"));
  EXPECT_TRUE(list.contains(*net::Ipv4Address::parse("255.255.254.1")));
  EXPECT_TRUE(list.contains(*net::Ipv4Address::parse("255.255.255.255")));
  EXPECT_FALSE(list.contains(*net::Ipv4Address::parse("255.255.253.255")));
  EXPECT_TRUE(list.excludes_prefix24(0xFFFFFE));
  EXPECT_TRUE(list.excludes_prefix24(0xFFFFFF));
  EXPECT_FALSE(list.excludes_prefix24(0xFFFFFD));
}

TEST(ExclusionList, AdjacentRangesMergeAcrossPrefixBoundary) {
  // 1.0.0.0/24 + 1.0.1.0/24 are adjacent, not overlapping: they must merge
  // into one span so the /23 between them reads as fully covered.
  ExclusionList list;
  EXPECT_TRUE(list.add_entry("1.0.0.0/24"));
  EXPECT_TRUE(list.add_entry("1.0.1.0/24"));
  EXPECT_TRUE(list.contains(*net::Ipv4Address::parse("1.0.0.255")));
  EXPECT_TRUE(list.contains(*net::Ipv4Address::parse("1.0.1.0")));
  EXPECT_FALSE(list.contains(*net::Ipv4Address::parse("1.0.2.0")));
  EXPECT_TRUE(list.excludes_prefix24(0x010000));
  EXPECT_TRUE(list.excludes_prefix24(0x010001));
  EXPECT_FALSE(list.excludes_prefix24(0x010002));
}

TEST(ExclusionList, Slash32AtPrefix24BoundaryExcludesExactlyOneBlock) {
  // A single host at x.y.z.0 (the /24's first address) must exclude only
  // its own block, not the neighbour below it.
  ExclusionList list;
  EXPECT_TRUE(list.add_entry("9.9.9.0/32"));
  EXPECT_TRUE(list.excludes_prefix24(0x090909));
  EXPECT_FALSE(list.excludes_prefix24(0x090908));
  EXPECT_FALSE(list.excludes_prefix24(0x09090A));
  // ...and at x.y.z.255 (the /24's last address) likewise.
  ExclusionList top;
  EXPECT_TRUE(top.add_entry("9.9.9.255/32"));
  EXPECT_TRUE(top.excludes_prefix24(0x090909));
  EXPECT_FALSE(top.excludes_prefix24(0x090908));
  EXPECT_FALSE(top.excludes_prefix24(0x09090A));
}

TEST(ExclusionList, ReservedDefaultsMatchProbeExclusions) {
  // The bogon defaults must agree with net::is_probe_excluded everywhere.
  ExclusionList list;
  list.add_reserved_defaults();
  for (const std::uint32_t value :
       {0x00000001u, 0x0A000001u, 0x64400001u, 0x7F000001u, 0xA9FE0001u,
        0xAC100001u, 0xC0A80001u, 0xE0000001u, 0xF0000001u, 0xFFFFFFFFu,
        0x01020304u, 0x08080808u, 0xCB007101u}) {
    const net::Ipv4Address address(value);
    EXPECT_EQ(list.contains(address), net::is_probe_excluded(address))
        << address.to_string();
  }
}

TEST(ExclusionList, BulkBitmapMatchesPerPrefixQueries) {
  // The one pass over the sorted ranges must agree bit-for-bit with
  // excludes_prefix24.
  ExclusionList list;
  ASSERT_TRUE(list.add_entry("1.0.3.7"));          // single host
  ASSERT_TRUE(list.add_entry("1.0.16.0/20"));      // spans 16 /24s
  ASSERT_TRUE(list.add_entry("1.0.64.0/18"));      // spans 64 /24s
  ASSERT_TRUE(list.add_entry("0.255.255.0/24"));   // just below the window
  ASSERT_TRUE(list.add_entry("1.1.0.0/24"));       // just above the window
  const std::uint32_t first = 0x010000;
  const std::uint32_t count = 256;
  std::vector<std::uint64_t> bitmap((count + 63) / 64, 0);
  list.mark_excluded_prefix24(first, count, bitmap);
  for (std::uint32_t i = 0; i < count; ++i) {
    const bool bit = ((bitmap[i >> 6] >> (i & 63)) & 1) != 0;
    EXPECT_EQ(bit, list.excludes_prefix24(first + i)) << i;
  }
}

TEST(ExclusionList, LoadWithCommentsAndBlanks) {
  ExclusionList list;
  std::istringstream input(
      "# opt-outs received 2020-09-17\n"
      "\n"
      "1.2.3.0/24   # complaint A\n"
      "  5.6.7.8\n"
      "\t9.0.0.0/8\n");
  const auto added = list.load(input);
  ASSERT_TRUE(added);
  EXPECT_EQ(*added, 3u);
  EXPECT_TRUE(list.contains(*net::Ipv4Address::parse("9.200.1.1")));
}

TEST(ExclusionList, LoadIsAllOrNothing) {
  ExclusionList list;
  ASSERT_TRUE(list.add_entry("7.7.7.7"));
  std::istringstream input("1.2.3.0/24\nnot-an-address\n");
  EXPECT_FALSE(list.load(input));
  // The bad file changed nothing; the pre-existing entry survived.
  EXPECT_EQ(list.size(), 1u);
  EXPECT_TRUE(list.contains(*net::Ipv4Address::parse("7.7.7.7")));
  EXPECT_FALSE(list.contains(*net::Ipv4Address::parse("1.2.3.4")));
}

TEST(TargetList, LoadsOnePerPrefix) {
  std::istringstream input(
      "# curated targets\n"
      "1.0.0.55\n"
      "1.0.0.77\n"   // second entry for the same /24: ignored (§3.4)
      "1.0.2.1\n"
      "9.9.9.9\n");  // outside the universe
  std::size_t skipped = 0;
  const auto targets = load_target_list(input, 0x010000, 4, &skipped);
  ASSERT_TRUE(targets);
  EXPECT_EQ(targets->size(), 4u);
  EXPECT_EQ((*targets)[0], 0x01000037u);  // 1.0.0.55 — first entry wins
  EXPECT_EQ((*targets)[1], 0u);
  EXPECT_EQ((*targets)[2], 0x01000201u);
  EXPECT_EQ(skipped, 1u);
}

TEST(TargetList, RejectsMalformed) {
  std::istringstream input("1.0.0.55\nbogus\n");
  EXPECT_FALSE(load_target_list(input, 0x010000, 4));
}

TEST(TracerWithExclusions, SkipsExcludedBlocks) {
  sim::SimParams params;
  params.prefix_bits = 8;
  const sim::Topology topology(params);

  ExclusionList exclusions;
  // Exclude the first half of the universe: 1.0.0.0/17 covers offsets 0..127.
  ASSERT_TRUE(exclusions.add_entry("1.0.0.0/17"));

  TracerConfig config;
  config.first_prefix = params.first_prefix;
  config.prefix_bits = params.prefix_bits;
  config.vantage = net::Ipv4Address(params.vantage_address);
  config.probes_per_second =
      sim::scaled_probe_rate(100'000.0, params.prefix_bits);
  config.preprobe = PreprobeMode::kNone;
  config.exclusions = &exclusions;
  config.collect_probe_log = true;

  sim::SimNetwork network(topology);
  sim::SimScanRuntime runtime(network, config.probes_per_second);
  Tracer tracer(config, runtime);
  const auto result = tracer.run();

  EXPECT_GT(result.probes_sent, 0u);
  for (const auto& probe : result.probe_log) {
    EXPECT_FALSE(exclusions.contains(net::Ipv4Address(probe.destination)))
        << net::Ipv4Address(probe.destination).to_string();
    EXPECT_GE(probe.destination >> 8, 0x010080u);  // second half only
  }
}

}  // namespace
}  // namespace flashroute::core
