// Full-IPv4-scale gate: peak RSS and probes/sec at 2^20 and 2^24 prefixes.
//
// The paper scans every routed /24 of IPv4 — 2^24 destination slots — and
// reports ~900 MB of control state for the DCB array plus bookkeeping
// (§3.4).  This bench proves the reproduction reaches the same scale on one
// machine: the succinct topology mode (sim/topology.h) derives the world
// on demand instead of materializing per-prefix tables, and the packed
// 11-byte DCB (core/dcb.h) undercuts the paper's mutex-based DCB by an
// order of magnitude.  No stage sets an exclusion list.  Stages run
// smallest-first because VmHWM is monotone; the final stage hard-fails
// when peak RSS exceeds the configured ceiling.
//
// Results land in BENCH_full_scale.json next to the paper's reference
// numbers, with the bytes of the largest structures: the DCB array
// (dcb_array_mib), and the interface set and the simulator's rate-limit
// table as the FR_FULL_BITS scan left them (interface_set_mib,
// rate_limit_table_mib; 0 with FR_FULL_SCAN=0).  CI runs a scaled-down
// smoke (FR_FULL_BITS=20) against the committed budget; the full 2^24 run
// is the local acceptance gate.
//
// Environment overrides:
//   FR_BASE_BITS     baseline universe exponent            (default 16)
//   FR_MID_BITS      mid-scale exponent                    (default 20)
//   FR_FULL_BITS     full-scale exponent                   (default 24)
//   FR_RSS_LIMIT_MB  hard peak-RSS ceiling for the run     (default 1800)
//   FR_PROBES        pipeline probes per measured pass     (default 2,000,000)
//   FR_FULL_SCAN     also run a real scan at FR_FULL_BITS  (default 1)
//   FR_SHARDED_SCAN  also run the sharded scan stage       (default FR_FULL_SCAN)
//   FR_WORKERS       worker threads for the sharded stage  (default 1)
//   FR_SCAN_PPS_FLOOR         hard floor on full_scan_pps    (default 0 = off)
//   FR_SHARDED_PPS_FLOOR      hard floor on sharded_scan_pps (default 0 = off)
//   FR_SEED          topology seed                         (default 1)

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>

#include "bench/common.h"
#include "core/dcb_array.h"
#include "core/probe_codec.h"
#include "core/sharded_tracer.h"
#include "core/tracer.h"
#include "sim/runtime.h"
#include "util/clock.h"
#include "util/permutation.h"

namespace flashroute {
namespace {

using bench::env_or;

constexpr std::uint8_t kMaxTtl = 16;

sim::SimParams world_params(int bits, std::uint64_t seed) {
  sim::SimParams params;
  params.prefix_bits = bits;
  params.seed = seed;
  params.topology_mode = sim::TopologyMode::kSuccinct;
  // Keep the universe inside IPv4 space; at 2^24 it IS IPv4 space
  // (first_prefix 0, the paper's configuration).
  params.first_prefix = std::min(
      params.first_prefix,
      static_cast<std::uint32_t>((std::uint64_t{1} << 24) -
                                 params.num_prefixes()));
  return params;
}

/// Destination-major TTL sweeps through SimNetwork::process_into — the same
/// probe stream bench/hotpath times, here to show throughput holds as the
/// universe grows past any cache level.
double pipeline_pps(const sim::Topology& topology,
                    const core::ProbeCodec& codec, std::uint64_t num_probes) {
  sim::SimNetwork network(topology);
  const sim::SimParams& params = topology.params();
  std::array<std::byte, core::ProbeCodec::kMaxProbeSize> probe;
  std::array<std::byte, net::kMaxResponseSize> response;
  util::Nanos when = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;

  util::MonotonicClock clock;
  const util::Nanos start = clock.now();
  while (sent < num_probes) {
    for (std::uint32_t block = 0;
         block < params.num_prefixes() && sent < num_probes; ++block) {
      const net::Ipv4Address dst(((params.first_prefix + block) << 8) | 0x64);
      for (std::uint8_t ttl = 1; ttl <= kMaxTtl && sent < num_probes; ++ttl) {
        const std::size_t size = codec.encode_udp(dst, ttl, false, when, probe);
        if (network.process_into(
                std::span<const std::byte>(probe.data(), size), when,
                response)) {
          ++delivered;
        }
        when += 1000;
        ++sent;
      }
    }
  }
  const util::Nanos elapsed = clock.now() - start;
  if (delivered == 0) {
    std::fprintf(stderr, "pipeline produced no responses\n");
    std::exit(1);
  }
  return static_cast<double>(sent) * util::kSecond /
         static_cast<double>(elapsed);
}

struct ScanStage {
  std::uint64_t probes = 0;
  double wall_seconds = 0.0;
  std::uint64_t interfaces = 0;
  /// The two structures that grow with discovered responders rather than
  /// with prefixes, as the scan left them (real_scan only).
  std::size_t interface_set_bytes = 0;
  std::size_t rate_limit_table_bytes = 0;

  double pps() const {
    return static_cast<double>(probes) / wall_seconds;
  }
};

core::TracerConfig scan_config(const sim::Topology& topology) {
  core::TracerConfig config;
  config.first_prefix = topology.params().first_prefix;
  config.prefix_bits = topology.params().prefix_bits;
  config.vantage = net::Ipv4Address(topology.params().vantage_address);
  config.probes_per_second =
      sim::scaled_probe_rate(100'000.0, topology.params().prefix_bits);
  config.preprobe = core::PreprobeMode::kNone;
  config.collect_routes = false;
  return config;
}

/// A real end-to-end scan: DCB ring and Doubletree sets — everything the
/// engine allocates at scale, with route collection off so the control
/// state dominates (the paper's configuration).  Runs the batched pipeline
/// (the default).
ScanStage real_scan(const sim::Topology& topology) {
  const core::TracerConfig config = scan_config(topology);

  sim::SimNetwork network(topology);
  sim::SimScanRuntime runtime(network, config.probes_per_second);
  core::Tracer tracer(config, runtime);

  util::MonotonicClock clock;
  const util::Nanos start = clock.now();
  const core::ScanResult result = tracer.run();
  const util::Nanos elapsed = clock.now() - start;

  ScanStage stage;
  stage.probes = result.probes_sent;
  stage.wall_seconds = static_cast<double>(elapsed) / util::kSecond;
  stage.interfaces = result.interfaces.size();
  stage.interface_set_bytes = result.interfaces.memory_bytes();
  stage.rate_limit_table_bytes = network.rate_limit_table_bytes();
  return stage;
}

/// The same full-scale scan through the sharded engine: the universe splits
/// into 2^3 logical shards, each a virtual-time sub-scan with its own DCB
/// ring, sim network and delivery wheel.  Even on one core this buys
/// per-shard locality (a 2^21-slot working set instead of 2^24); on real
/// hardware the workers overlap round-barrier waits too.
ScanStage sharded_scan(const sim::Topology& topology, int workers) {
  core::ShardedTracerConfig config;
  config.base = scan_config(topology);
  config.shard_prefix_bits = topology.params().prefix_bits - 3;
  config.num_workers = workers;

  sim::SimShardRuntimeProvider provider(topology, config);
  core::ShardedTracer tracer(config, provider);

  util::MonotonicClock clock;
  const util::Nanos start = clock.now();
  const core::ScanResult result = tracer.run();
  const util::Nanos elapsed = clock.now() - start;

  ScanStage stage;
  stage.probes = result.probes_sent;
  stage.wall_seconds = static_cast<double>(elapsed) / util::kSecond;
  stage.interfaces = result.interfaces.size();
  return stage;
}

struct StageReport {
  int bits = 0;
  double pipeline = 0.0;
  std::uint64_t rss_kb = 0;
  ScanStage scan;
  bool scanned = false;
};

StageReport run_stage(int bits, std::uint64_t seed,
                      const core::ProbeCodec& codec, std::uint64_t num_probes,
                      bool with_scan) {
  StageReport report;
  report.bits = bits;
  const sim::Topology topology(world_params(bits, seed));
  report.pipeline = pipeline_pps(topology, codec, num_probes);
  if (with_scan) {
    report.scan = real_scan(topology);
    report.scanned = true;
  }
  report.rss_kb = bench::peak_rss_kb();
  return report;
}

double mib(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

void print_stage(const StageReport& report) {
  std::printf("2^%-2d prefixes: pipeline %11.0f probes/s, peak RSS %7.1f MiB",
              report.bits, report.pipeline,
              static_cast<double>(report.rss_kb) / 1024.0);
  if (report.scanned) {
    std::printf(", scan %.0f probes/s (%llu probes, %llu interfaces; "
                "interface set %.1f MiB, rate-limit table %.1f MiB)",
                report.scan.pps(),
                static_cast<unsigned long long>(report.scan.probes),
                static_cast<unsigned long long>(report.scan.interfaces),
                mib(report.scan.interface_set_bytes),
                mib(report.scan.rate_limit_table_bytes));
  }
  std::printf("\n");
}

}  // namespace
}  // namespace flashroute

int main() {
  using namespace flashroute;

  const int base_bits = env_or<int>("FR_BASE_BITS", 16, 1, 24);
  const int mid_bits = env_or<int>("FR_MID_BITS", 20, 1, 24);
  const int full_bits = env_or<int>("FR_FULL_BITS", 24, 1, 24);
  const int rss_limit_mb = env_or<int>("FR_RSS_LIMIT_MB", 1800, 1, 1 << 20);
  const auto num_probes = env_or<std::uint64_t>("FR_PROBES", 2'000'000, 1,
                                                1'000'000'000'000ULL);
  const bool full_scan = env_or<int>("FR_FULL_SCAN", 1, 0, 1) != 0;
  const bool with_sharded =
      env_or<int>("FR_SHARDED_SCAN", full_scan ? 1 : 0, 0, 1) != 0;
  const int workers = env_or<int>("FR_WORKERS", 1, 1, 256);
  const double scan_pps_floor =
      env_or<double>("FR_SCAN_PPS_FLOOR", 0, 0, 1e9);
  const double sharded_pps_floor =
      env_or<double>("FR_SHARDED_PPS_FLOOR", 0, 0, 1e9);
  const auto seed =
      env_or<std::uint64_t>("FR_SEED", 1, 0, 1'000'000'000'000ULL);

  std::printf("=== full scale: RSS and throughput up to 2^%d prefixes ===\n",
              full_bits);
  std::printf("paper (§3.4): ~900 MB control state at 2^24; "
              "ceiling here: %d MiB\n\n", rss_limit_mb);

  sim::SimParams probe_params = world_params(base_bits, seed);
  const net::Ipv4Address vantage(probe_params.vantage_address);
  const core::ProbeCodec codec(vantage);

  // Smallest first: VmHWM only ever grows, so each stage's reading is the
  // high-water mark up to and including that stage.
  const StageReport base = run_stage(base_bits, seed, codec, num_probes,
                                     /*with_scan=*/false);
  print_stage(base);
  const StageReport mid = run_stage(mid_bits, seed, codec, num_probes,
                                    /*with_scan=*/true);
  print_stage(mid);
  const StageReport full = run_stage(full_bits, seed, codec, num_probes,
                                     /*with_scan=*/full_scan);
  print_stage(full);

  // The sharded engine over the same universe: identical probes per shard
  // decomposition, aggregated probes/sec across workers.
  ScanStage sharded;
  if (with_sharded) {
    const sim::Topology topology(world_params(full_bits, seed));
    sharded = sharded_scan(topology, workers);
    std::printf("2^%-2d sharded  : scan %.0f probes/s (%llu probes, %llu "
                "interfaces, %d workers)\n",
                full_bits, sharded.pps(),
                static_cast<unsigned long long>(sharded.probes),
                static_cast<unsigned long long>(sharded.interfaces), workers);
  }

  // The §3.4 control state itself, allocated for real at full scale.
  const std::uint64_t slots = std::uint64_t{1} << full_bits;
  core::DcbArray array(static_cast<std::uint32_t>(slots));
  const util::RandomPermutation permutation(
      static_cast<std::uint32_t>(slots), seed);
  const auto ring =
      array.build_ring(permutation, [](std::uint32_t) { return true; });
  const std::uint64_t final_rss_kb = bench::peak_rss_kb();
  std::printf("\nDCB array at 2^%d: %.1f MiB (%zu B/slot), ring of %u; "
              "final peak RSS %.1f MiB\n",
              full_bits, mib(array.memory_bytes()), sizeof(core::Dcb), ring,
              static_cast<double>(final_rss_kb) / 1024.0);

  const double mid_vs_base = mid.pipeline / base.pipeline;
  std::printf("pipeline at 2^%d runs at %.1f%% of the 2^%d rate\n",
              mid_bits, 100.0 * mid_vs_base, base_bits);

  const bool rss_ok =
      final_rss_kb <= static_cast<std::uint64_t>(rss_limit_mb) * 1024;

  const char* path = "BENCH_full_scale.json";
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(
      out,
      "{\n"
      "  \"seed\": %llu,\n"
      "  \"probes_per_pass\": %llu,\n"
      "  \"base_bits\": %d,\n"
      "  \"base_pipeline_pps\": %.1f,\n"
      "  \"base_rss_kb\": %llu,\n"
      "  \"mid_bits\": %d,\n"
      "  \"mid_pipeline_pps\": %.1f,\n"
      "  \"mid_scan_pps\": %.1f,\n"
      "  \"mid_scan_probes\": %llu,\n"
      "  \"mid_rss_kb\": %llu,\n"
      "  \"mid_vs_base_pipeline\": %.4f,\n"
      "  \"full_bits\": %d,\n"
      "  \"full_pipeline_pps\": %.1f,\n"
      "  \"full_scan\": %s,\n"
      "  \"full_scan_pps\": %.1f,\n"
      "  \"full_scan_probes\": %llu,\n"
      "  \"sharded_scan\": %s,\n"
      "  \"sharded_scan_pps\": %.1f,\n"
      "  \"sharded_scan_probes\": %llu,\n"
      "  \"sharded_workers\": %d,\n"
      "  \"scan_pps_floor\": %.1f,\n"
      "  \"sharded_pps_floor\": %.1f,\n"
      "  \"dcb_bytes_per_slot\": %zu,\n"
      "  \"dcb_array_mib\": %.1f,\n"
      "  \"interface_set_mib\": %.1f,\n"
      "  \"rate_limit_table_mib\": %.1f,\n"
      "  \"peak_rss_kb\": %llu,\n"
      "  \"rss_limit_mb\": %d,\n"
      "  \"paper_sec34_mb\": 900,\n"
      "  \"rss_within_limit\": %s\n"
      "}\n",
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(num_probes), base.bits, base.pipeline,
      static_cast<unsigned long long>(base.rss_kb), mid.bits, mid.pipeline,
      mid.scan.pps(), static_cast<unsigned long long>(mid.scan.probes),
      static_cast<unsigned long long>(mid.rss_kb), mid_vs_base, full.bits,
      full.pipeline, full.scanned ? "true" : "false",
      full.scanned ? full.scan.pps() : 0.0,
      static_cast<unsigned long long>(full.scanned ? full.scan.probes : 0),
      with_sharded ? "true" : "false", with_sharded ? sharded.pps() : 0.0,
      static_cast<unsigned long long>(with_sharded ? sharded.probes : 0),
      workers,
      scan_pps_floor, sharded_pps_floor, sizeof(core::Dcb),
      mib(array.memory_bytes()), mib(full.scan.interface_set_bytes),
      mib(full.scan.rate_limit_table_bytes),
      static_cast<unsigned long long>(final_rss_kb), rss_limit_mb,
      rss_ok ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", path);

  bool ok = true;
  if (!rss_ok) {
    std::fprintf(stderr,
                 "FAIL: peak RSS %.1f MiB exceeds the %d MiB ceiling\n",
                 static_cast<double>(final_rss_kb) / 1024.0, rss_limit_mb);
    ok = false;
  } else {
    std::printf("PASS: peak RSS under the %d MiB ceiling\n", rss_limit_mb);
  }
  if (full.scanned && scan_pps_floor > 0.0) {
    if (full.scan.pps() < scan_pps_floor) {
      std::fprintf(stderr, "FAIL: full_scan_pps %.0f below floor %.0f\n",
                   full.scan.pps(), scan_pps_floor);
      ok = false;
    } else {
      std::printf("PASS: full_scan_pps %.0f over floor %.0f\n",
                  full.scan.pps(), scan_pps_floor);
    }
  }
  if (with_sharded && sharded_pps_floor > 0.0) {
    if (sharded.pps() < sharded_pps_floor) {
      std::fprintf(stderr, "FAIL: sharded_scan_pps %.0f below floor %.0f\n",
                   sharded.pps(), sharded_pps_floor);
      ok = false;
    } else {
      std::printf("PASS: sharded_scan_pps %.0f over floor %.0f\n",
                  sharded.pps(), sharded_pps_floor);
    }
  }
  return ok ? 0 : 1;
}
