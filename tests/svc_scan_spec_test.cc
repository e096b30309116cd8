// Tests for the one scan spec (svc/scan_spec.h): every flag reaches its
// field and only it, a number with trailing garbage or outside its field
// is refused whole, unknown flags are left to the caller, the validator
// refuses every spec the engine or the simulator assumes away, frd's
// admission adds only its own policy, and the builder hands a hitlist
// preprobe the topology's hitlist.

#include "svc/scan_spec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "svc/job.h"
#include "svc/wire.h"

namespace flashroute::svc {
namespace {

/// A spec's bytes in encode_spec's layout: equal bytes, equal specs.
std::string spec_bytes(const ScanSpec& spec) {
  JobSpec job;
  static_cast<ScanSpec&>(job) = spec;
  io::Writer w;
  encode_spec(w, job);
  return w.str();
}

struct FlagCase {
  std::string flag;          ///< a good value
  std::string garbage;       ///< the good value with trailing garbage
  std::string out_of_range;  ///< a value outside the field ("" = none)
  std::function<void(ScanSpec&)> expect;  ///< the field the flag sets
};

std::vector<FlagCase> flag_cases() {
  const auto fault = [](const char* flag, double ScanSpec::*field) {
    return FlagCase{std::string(flag) + "=0.25", std::string(flag) + "=0.25x",
                    std::string(flag) + "=1e999",
                    [field](ScanSpec& s) { s.*field = 0.25; }};
  };
  return {
      {"--prefix-bits=12", "--prefix-bits=12x", "--prefix-bits=2147483648",
       [](ScanSpec& s) { s.prefix_bits = 12; }},
      {"--first-prefix=10.1.2.0", "--first-prefix=10.1.2.0x",
       "--first-prefix=10.1.256.0",
       [](ScanSpec& s) { s.first_prefix = 0x0a0102; }},
      {"--topology-seed=99", "--topology-seed=99x",
       "--topology-seed=18446744073709551616",
       [](ScanSpec& s) { s.topology_seed = 99; }},
      {"--scan-seed=18446744073709551615", "--scan-seed=3 ",
       "--scan-seed=-1",
       [](ScanSpec& s) { s.scan_seed = 18446744073709551615ull; }},
      {"--target-seed=5", "--target-seed=5.0", "--target-seed=1e30",
       [](ScanSpec& s) { s.target_seed = 5; }},
      {"--pps=1234.5", "--pps=1234.5pps", "--pps=1e999",
       [](ScanSpec& s) { s.probes_per_second = 1234.5; }},
      {"--split-ttl=20", "--split-ttl=20x", "--split-ttl=300",
       [](ScanSpec& s) { s.split_ttl = 20; }},
      {"--gap-limit=3", "--gap-limit=3x", "--gap-limit=256",
       [](ScanSpec& s) { s.gap_limit = 3; }},
      {"--max-ttl=30", "--max-ttl=30x", "--max-ttl=-1",
       [](ScanSpec& s) { s.max_ttl = 30; }},
      {"--preprobe=hitlist", "--preprobe=hitlistx", "--preprobe=2",
       [](ScanSpec& s) { s.preprobe = core::PreprobeMode::kHitlist; }},
      {"--proximity-span=2", "--proximity-span=2x", "--proximity-span=256",
       [](ScanSpec& s) { s.proximity_span = 2; }},
      {"--extra-scans=3", "--extra-scans=3x", "--extra-scans=256",
       [](ScanSpec& s) { s.extra_scans = 3; }},
      {"--min-round=25", "--min-round=25ms", "--min-round=1e13",
       [](ScanSpec& s) { s.min_round_duration = 25 * util::kMillisecond; }},
      {"--retransmit=2", "--retransmit=2x", "--retransmit=256",
       [](ScanSpec& s) { s.max_retransmits = 2; }},
      {"--retransmit-timeout=250", "--retransmit-timeout=250x",
       "--retransmit-timeout=-1e13",
       [](ScanSpec& s) { s.retransmit_timeout = 250 * util::kMillisecond; }},
      {"--checkpoint-interval=40", "--checkpoint-interval=40x",
       "--checkpoint-interval=1e13",
       [](ScanSpec& s) { s.checkpoint_interval = 40 * util::kMillisecond; }},
      fault("--fault-probe-loss", &ScanSpec::fault_probe_loss),
      fault("--fault-response-loss", &ScanSpec::fault_response_loss),
      fault("--fault-duplicate", &ScanSpec::fault_duplicate),
      fault("--fault-reorder", &ScanSpec::fault_reorder),
      fault("--fault-corrupt", &ScanSpec::fault_corrupt),
      fault("--fault-blackhole", &ScanSpec::fault_blackhole),
      fault("--fault-flap", &ScanSpec::fault_flap),
      fault("--fault-send-fail", &ScanSpec::fault_send_fail),
      {"--no-redundancy-removal", "", "",
       [](ScanSpec& s) { s.redundancy_removal = false; }},
      {"--no-forward", "", "", [](ScanSpec& s) { s.forward_probing = false; }},
      {"--no-routes", "", "", [](ScanSpec& s) { s.collect_routes = false; }},
      {"--backoff", "", "", [](ScanSpec& s) { s.adaptive_backoff = true; }},
  };
}

TEST(ScanSpecFlags, EveryFlagSetsItsFieldAndRefusesBadValuesWhole) {
  const std::string defaults = spec_bytes(ScanSpec{});
  for (const FlagCase& c : flag_cases()) {
    SCOPED_TRACE(c.flag);
    ScanSpec parsed;
    std::string error;
    EXPECT_EQ(parse_scan_flag(c.flag, parsed, error), FlagParse::kApplied);
    ScanSpec expected;
    c.expect(expected);
    EXPECT_EQ(spec_bytes(parsed), spec_bytes(expected));
    EXPECT_NE(spec_bytes(parsed), defaults);

    for (const std::string& bad : {c.garbage, c.out_of_range}) {
      if (bad.empty()) continue;
      ScanSpec untouched;
      error.clear();
      EXPECT_EQ(parse_scan_flag(bad, untouched, error), FlagParse::kBad)
          << bad;
      EXPECT_EQ(spec_bytes(untouched), defaults) << bad;
      EXPECT_NE(error.find(bad.substr(0, bad.find('='))), std::string::npos)
          << error;  // the error names the flag
    }
  }
}

TEST(ScanSpecFlags, UnknownFlagsAreLeftToTheCaller) {
  for (const char* arg : {"--seed=9", "--preprobe-random", "--prefix-bits",
                          "--backoff=1", "prefix-bits=8", "--routes=r.txt",
                          "--name=x", ""}) {
    ScanSpec spec;
    std::string error;
    EXPECT_EQ(parse_scan_flag(arg, spec, error), FlagParse::kNotScanFlag)
        << arg;
    EXPECT_EQ(spec_bytes(spec), spec_bytes(ScanSpec{})) << arg;
  }
}

TEST(ScanSpecValidate, RefusesWhatTheEngineAndSimulatorAssumeAway) {
  EXPECT_EQ(validate_scan(ScanSpec{}), nullptr);
  const std::vector<std::function<void(ScanSpec&)>> refused = {
      [](ScanSpec& s) { s.prefix_bits = 0; },
      [](ScanSpec& s) { s.prefix_bits = 25; },
      [](ScanSpec& s) { s.first_prefix = 0xC80000; },  // interface pool
      [](ScanSpec& s) { s.first_prefix = 0xFFFFF0; },  // past IPv4
      [](ScanSpec& s) { s.max_ttl = 33; },
      [](ScanSpec& s) { s.split_ttl = 0; },
      [](ScanSpec& s) { s.split_ttl = 40; },
      [](ScanSpec& s) {
        s.max_ttl = 20;
        s.split_ttl = 21;
      },
      [](ScanSpec& s) { s.gap_limit = 0; },
      [](ScanSpec& s) { s.min_round_duration = 0; },
      [](ScanSpec& s) { s.retransmit_timeout = 0; },
      [](ScanSpec& s) { s.checkpoint_interval = -1; },
      [](ScanSpec& s) { s.probes_per_second = 0.0; },
      [](ScanSpec& s) { s.probes_per_second = 2e9; },
      [](ScanSpec& s) { s.fault_probe_loss = -0.1; },
      [](ScanSpec& s) { s.fault_send_fail = 1.5; },
      [](ScanSpec& s) { s.fault_flap = std::nan(""); },
  };
  for (std::size_t i = 0; i < refused.size(); ++i) {
    ScanSpec spec;
    refused[i](spec);
    EXPECT_NE(validate_scan(spec), nullptr) << "case " << i;
  }
  // The edges stay runnable: the whole IPv4 space, 32 hops, no barriers.
  ScanSpec edges;
  edges.prefix_bits = 24;
  edges.first_prefix = 0;
  edges.split_ttl = 32;
  edges.checkpoint_interval = 0;
  edges.fault_blackhole = 1.0;
  EXPECT_EQ(validate_scan(edges), nullptr);
}

// frd admits a subset of what validate_scan passes, for its own reasons.
TEST(ScanSpecValidate, AdmissionAddsOnlyFrdsPolicy) {
  JobSpec spec;
  EXPECT_EQ(validate_spec(spec), nullptr);
  spec.max_ttl = 40;
  EXPECT_STREQ(validate_spec(spec), validate_scan(spec));
  for (const auto& policy : std::vector<std::function<void(JobSpec&)>>{
           [](JobSpec& s) { s.prefix_bits = 21; },
           [](JobSpec& s) { s.checkpoint_interval = 0; },
           [](JobSpec& s) { s.weight = 0.0; },
           [](JobSpec& s) { s.name.assign(129, 'n'); },
           [](JobSpec& s) { s.request_key.assign(129, 'k'); }}) {
    JobSpec job;
    policy(job);
    EXPECT_EQ(validate_scan(job), nullptr);
    EXPECT_NE(validate_spec(job), nullptr);
  }
}

TEST(ScanSetup, HitlistPreprobingGetsTheTopologysHitlist) {
  ScanSpec spec;
  spec.prefix_bits = 6;
  spec.preprobe = core::PreprobeMode::kHitlist;
  ScanSetup setup(spec);
  EXPECT_EQ(setup.topology, nullptr);
  EXPECT_EQ(setup.engine.hitlist, nullptr);
  const sim::Topology& topology = setup.build_world();
  ASSERT_EQ(setup.engine.hitlist, &setup.hitlist);
  EXPECT_EQ(setup.hitlist, topology.generate_hitlist());

  spec.preprobe = core::PreprobeMode::kRandom;
  ScanSetup random(spec);
  random.build_world();
  EXPECT_EQ(random.engine.hitlist, nullptr);
  EXPECT_TRUE(random.hitlist.empty());
}

}  // namespace
}  // namespace flashroute::svc
