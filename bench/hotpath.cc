// Hot-path microbenchmark for the allocation-free probe/response pipeline
// (DESIGN.md §6).  Reports, in BENCH_hotpath.json:
//
//  * probes/sec through SimNetwork::process_into;
//  * the same pipeline with scan telemetry enabled (DESIGN.md §7) vs the
//    default-off telemetry, exercising the per-probe counter bump, the
//    per-response histogram record and the tracer tick exactly as the
//    engines do — the acceptance bar is <= 2% overhead.  Passes run in
//    off/on pairs, alternating which side goes first; the report is the
//    median per-pair overhead and its interquartile range;
//  * probe encodes/sec through the template-patching ProbeCodec vs a
//    reference encoder that serializes both headers from scratch and
//    recomputes the RFC 1071 checksum per probe (what the codec used to do).
//
// The probe stream is destination-major: for each /24, a TTL sweep against
// one representative target.
//
// Environment overrides:
//   FR_PREFIX_BITS  universe size exponent (default 16, the sim default)
//   FR_SEED         topology seed (default 1)
//   FR_PROBES       probes per measured pipeline pass (default 2,000,000)

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/common.h"
#include "core/probe_codec.h"
#include "net/checksum.h"
#include "net/headers.h"
#include "net/packet.h"
#include "obs/metrics.h"
#include "obs/scan_metrics.h"
#include "obs/scan_tracer.h"
#include "util/clock.h"

namespace flashroute {
namespace {

using bench::env_int;

constexpr std::uint8_t kMaxTtl = 16;

// The pre-template encoder: builds both headers field by field and lets
// Ipv4Header::serialize recompute the full header checksum.  Kept local to
// the bench as the comparison baseline.
std::size_t reference_encode_udp(net::Ipv4Address src, net::Ipv4Address dst,
                                 std::uint8_t ttl, util::Nanos when,
                                 std::span<std::byte> buffer) {
  const auto ts = static_cast<std::uint16_t>(
      (when / util::kMillisecond) & 0xFFFF);
  const std::size_t payload = (ts >> 10) & 0x3F;
  const std::size_t total =
      net::Ipv4Header::kSize + net::UdpHeader::kSize + payload;
  if (buffer.size() < total) return 0;
  std::memset(buffer.data(), 0, total);

  net::Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(total);
  ip.id = static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>((ttl - 1) & 0x1F) << 11) | (ts & 0x03FF));
  ip.ttl = ttl;
  ip.protocol = net::kProtoUdp;
  ip.src = src;
  ip.dst = dst;
  net::UdpHeader udp;
  udp.src_port = net::address_checksum(dst);
  udp.dst_port = net::kTracerouteDstPort;
  udp.length = static_cast<std::uint16_t>(net::UdpHeader::kSize + payload);

  net::ByteWriter writer(buffer);
  ip.serialize(writer);
  udp.serialize(writer);
  return total;
}

struct PipelineRun {
  double wall_seconds = 0.0;
  std::uint64_t probes = 0;
  std::uint64_t responses = 0;

  double pps() const { return static_cast<double>(probes) / wall_seconds; }
};

/// Pushes `num_probes` probes (destination-major TTL sweeps over the whole
/// universe, wrapping) through one SimNetwork via the zero-copy entry point.
/// `telemetry` gets the same hooks the engines run per probe and per
/// response (core/tracer.cc send_probe/on_packet); the default disabled
/// handle measures the off cost (one predicted branch per hook).
PipelineRun run_pipeline(const sim::Topology& topology,
                         const core::ProbeCodec& codec,
                         std::uint64_t num_probes,
                         const obs::ScanTelemetry& telemetry_in = {}) {
  sim::SimNetwork network(topology);
  const sim::SimParams& params = topology.params();
  // Local by-value copy: nothing else holds its address, so the compiler can
  // keep the lane/tracer pointers in registers across the opaque
  // process_into call instead of reloading them every probe.
  const obs::ScanTelemetry telemetry = telemetry_in;

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
        telemetry.count(telemetry.ids.probes_sent);
        if (telemetry.tracer != nullptr) telemetry.tick(when);
        if (network.process_into(
                std::span<const std::byte>(probe.data(), size), when,
                response)) {
          ++delivered;
          if (telemetry.enabled()) {
            telemetry.count(telemetry.ids.responses);
            telemetry.sample(telemetry.ids.rtt_us,
                             static_cast<std::uint64_t>(ttl) * 10);
            telemetry.tick(when);
          }
        }
        when += 1000;  // 1 µs per probe (1 Mpps virtual send rate)
        ++sent;
      }
    }
  }
  const util::Nanos elapsed = clock.now() - start;

  PipelineRun run;
  run.wall_seconds = static_cast<double>(elapsed) / util::kSecond;
  run.probes = sent;
  run.responses = delivered;
  return run;
}

/// The q-quantile of `values`, interpolating between order statistics.
double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

struct EncodeRun {
  double wall_seconds = 0.0;
  std::uint64_t encodes = 0;
  std::uint64_t bytes = 0;  // defeats dead-code elimination

  double pps() const { return static_cast<double>(encodes) / wall_seconds; }
};

template <typename Encode>
EncodeRun run_encode(const sim::SimParams& params, std::uint64_t num_probes,
                     Encode&& encode) {
  std::array<std::byte, core::ProbeCodec::kMaxProbeSize> probe;
  util::Nanos when = 0;
  std::uint64_t sent = 0;
  std::uint64_t bytes = 0;

  util::MonotonicClock clock;
  const util::Nanos start = clock.now();
  while (sent < num_probes) {
    for (std::uint32_t block = 0;
         block < params.num_prefixes() && sent < num_probes; ++block) {
      const net::Ipv4Address dst(((params.first_prefix + block) << 8) | 0x64);
      for (std::uint8_t ttl = 1; ttl <= kMaxTtl && sent < num_probes; ++ttl) {
        bytes += encode(dst, ttl, when, probe);
        when += 1000;
        ++sent;
      }
    }
  }
  const util::Nanos elapsed = clock.now() - start;

  EncodeRun run;
  run.wall_seconds = static_cast<double>(elapsed) / util::kSecond;
  run.encodes = sent;
  run.bytes = bytes;
  return run;
}

}  // namespace
}  // namespace flashroute

int main() {
  using namespace flashroute;

  sim::SimParams params;
  params.prefix_bits = env_int("FR_PREFIX_BITS", 16);
  params.seed = static_cast<std::uint64_t>(env_int("FR_SEED", 1));
  const auto num_probes =
      static_cast<std::uint64_t>(env_int("FR_PROBES", 2'000'000));

  std::printf("=== hot path: probe/response pipeline ===\n");
  std::printf("universe: %u /24 blocks, seed %llu, %llu probes per pass\n\n",
              params.num_prefixes(),
              static_cast<unsigned long long>(params.seed),
              static_cast<unsigned long long>(num_probes));

  const net::Ipv4Address vantage(params.vantage_address);
  const core::ProbeCodec codec(vantage);

  // Sanity: the template encoder and the reference encoder agree bit for bit
  // before either is timed.
  {
    std::array<std::byte, core::ProbeCodec::kMaxProbeSize> a{};
    std::array<std::byte, core::ProbeCodec::kMaxProbeSize> b{};
    for (std::uint32_t i = 0; i < 1000; ++i) {
      const net::Ipv4Address dst(((params.first_prefix + i * 7) << 8) | 0x64);
      const auto ttl = static_cast<std::uint8_t>(1 + i % 32);
      const util::Nanos when = static_cast<util::Nanos>(i) * 77 *
                               util::kMillisecond;
      const std::size_t sa = codec.encode_udp(dst, ttl, false, when, a);
      const std::size_t sb = reference_encode_udp(vantage, dst, ttl, when, b);
      if (sa != sb || std::memcmp(a.data(), b.data(), sa) != 0) {
        std::fprintf(stderr,
                     "template encoder diverges from reference at probe %u\n",
                     i);
        return 1;
      }
    }
  }

  // --- process() -------------------------------------------------------------
  const sim::Topology topology(params);

  // Warm one untimed pass (page in the topology, size the tables).
  (void)run_pipeline(topology, codec, num_probes / 10);

  const PipelineRun process = run_pipeline(topology, codec, num_probes);
  std::printf("process_into                 : %11.0f probes/s  "
              "(%llu responses)\n\n",
              process.pps(),
              static_cast<unsigned long long>(process.responses));

  // --- process(): telemetry on vs off ---------------------------------------
  // The on pass wires a lane + tracer exactly as the CLI does and pays the
  // real per-probe hooks; the off pass carries the default (disabled)
  // telemetry handle through the same code path.  Each off/on pair gives one
  // overhead figure, and the pairs alternate which side runs first, so
  // drift and warm-up land on both sides alike.  The median over pairs, not
  // the best pass of each side, so that no single lucky pass sets it.
  obs::MetricsRegistry metrics_registry;
  obs::ScanTelemetry telemetry_on;
  telemetry_on.registry = &metrics_registry;
  telemetry_on.ids = obs::register_scan_metrics(metrics_registry);
  metrics_registry.freeze(1);
  obs::ScanTracer scan_tracer(metrics_registry, 100 * util::kMillisecond);
  telemetry_on.tracer = &scan_tracer;
  telemetry_on.lane = metrics_registry.lane(0);
  telemetry_on.lane_id = 0;
  scan_tracer.begin_phase(0, obs::ScanPhase::kMain, 0);

  constexpr int kOverheadPairs = 11;
  const obs::ScanTelemetry telemetry_off;
  const auto run = [&](bool on) {
    return run_pipeline(topology, codec, num_probes,
                        on ? telemetry_on : telemetry_off)
        .pps();
  };
  std::vector<double> off_pps;
  std::vector<double> on_pps;
  std::vector<double> overhead_pct;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    const bool on_first = pair % 2 == 1;
    const double first = run(on_first);
    const double second = run(!on_first);
    off_pps.push_back(on_first ? second : first);
    on_pps.push_back(on_first ? first : second);
    overhead_pct.push_back(100.0 * (1.0 - on_pps.back() / off_pps.back()));
  }
  const double metrics_off_pps = quantile(off_pps, 0.5);
  const double metrics_on_pps = quantile(on_pps, 0.5);
  const double metrics_overhead_pct = quantile(overhead_pct, 0.5);
  const double overhead_q1 = quantile(overhead_pct, 0.25);
  const double overhead_q3 = quantile(overhead_pct, 0.75);

  std::printf("process_into, telemetry off  : %11.0f probes/s (median)\n",
              metrics_off_pps);
  std::printf("process_into, telemetry on   : %11.0f probes/s (median)\n",
              metrics_on_pps);
  std::printf("telemetry overhead           : %.2f%% (median of %d pairs; "
              "IQR %.2f%% to %.2f%%)\n\n",
              metrics_overhead_pct, kOverheadPairs, overhead_q1, overhead_q3);
  if (telemetry_on.lane.counter(telemetry_on.ids.probes_sent) <
      kOverheadPairs * num_probes) {
    std::fprintf(stderr, "telemetry counters were not exercised\n");
    return 1;
  }

  // --- encode: template patching vs full serialization ---------------------
  const EncodeRun tmpl = run_encode(
      params, num_probes,
      [&codec](net::Ipv4Address dst, std::uint8_t ttl, util::Nanos when,
               std::span<std::byte> buf) {
        return codec.encode_udp(dst, ttl, false, when, buf);
      });
  const EncodeRun reference = run_encode(
      params, num_probes,
      [vantage](net::Ipv4Address dst, std::uint8_t ttl, util::Nanos when,
                std::span<std::byte> buf) {
        return reference_encode_udp(vantage, dst, ttl, when, buf);
      });
  const double encode_speedup = tmpl.pps() / reference.pps();

  std::printf("encode_udp, template + RFC1624: %11.0f probes/s\n", tmpl.pps());
  std::printf("encode_udp, full serialization: %11.0f probes/s\n",
              reference.pps());
  std::printf("speedup                       : %.2fx\n", encode_speedup);

  const char* path = "BENCH_hotpath.json";
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(
      out,
      "{\n"
      "  \"prefix_bits\": %d,\n"
      "  \"seed\": %llu,\n"
      "  \"probes_per_pass\": %llu,\n"
      "  \"process_pps\": %.1f,\n"
      "  \"responses_per_pass\": %llu,\n"
      "  \"process_metrics_off_pps\": %.1f,\n"
      "  \"process_metrics_on_pps\": %.1f,\n"
      "  \"metrics_overhead_pairs\": %d,\n"
      "  \"metrics_overhead_pct\": %.2f,\n"
      "  \"metrics_overhead_iqr_pct\": [%.2f, %.2f],\n"
      "  \"encode_template_pps\": %.1f,\n"
      "  \"encode_reference_pps\": %.1f,\n"
      "  \"encode_speedup\": %.3f\n"
      "}\n",
      params.prefix_bits, static_cast<unsigned long long>(params.seed),
      static_cast<unsigned long long>(num_probes), process.pps(),
      static_cast<unsigned long long>(process.responses), metrics_off_pps,
      metrics_on_pps, kOverheadPairs, metrics_overhead_pct, overhead_q1,
      overhead_q3, tmpl.pps(), reference.pps(), encode_speedup);
  std::fclose(out);
  std::printf("\nwrote %s\n", path);
  return 0;
}
