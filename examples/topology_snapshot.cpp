// Topology snapshot: the paper's motivating workload (§1) — take the
// fastest-possible snapshot of all routes from one vantage point, then
// summarize what the snapshot contains.
//
// Runs FlashRoute-16 (the snapshot-optimized configuration per §4.2.2) over
// a /8-sized simulated universe, then reports:
//   * interface counts by hop distance (the shape of the route tree);
//   * route-length distribution of responsive targets;
//   * how much of the scan each probing phase consumed.
//
// Build & run:  ./build/examples/topology_snapshot [prefix_bits]

#include <cstdio>
#include <map>
#include <string_view>
#include <unordered_set>

#include "core/tracer.h"
#include "sim/network.h"
#include "sim/runtime.h"
#include "svc/scan_spec.h"
#include "util/flags.h"
#include "util/stats.h"

using namespace flashroute;

int main(int argc, char** argv) {
  // FlashRoute-16 with hitlist preprobing at the paper's 100 Kpps (scaled
  // to the universe) in one-second rounds.
  svc::ScanSpec spec;
  spec.prefix_bits = 14;
  spec.topology_seed = 7;
  spec.preprobe = core::PreprobeMode::kHitlist;
  spec.min_round_duration = util::kSecond;
  spec.checkpoint_interval = 0;  // nothing is saved: no barriers
  if (argc > 2 ||
      (argc == 2 && !util::read_number(std::string_view(argv[1]),
                                       spec.prefix_bits))) {
    std::fprintf(stderr, "usage: topology_snapshot [prefix_bits]\n");
    return 2;
  }
  spec.probes_per_second = sim::scaled_probe_rate(100'000.0, spec.prefix_bits);
  if (const char* invalid = svc::validate_scan(spec)) {
    std::fprintf(stderr, "topology_snapshot: %s\n", invalid);
    return 2;
  }

  svc::ScanSetup setup(spec);
  sim::SimNetwork network(setup.build_world());
  sim::SimScanRuntime runtime(network, spec.probes_per_second);
  const core::TracerConfig& config = setup.engine;
  core::Tracer tracer(config, runtime);
  const core::ScanResult result = tracer.run();

  std::printf("snapshot of %u /24 blocks: %zu interfaces, %s probes, %s\n\n",
              config.num_prefixes(), result.interfaces.size(),
              util::format_count(result.probes_sent).c_str(),
              util::format_duration(result.scan_time).c_str());

  // Interfaces by hop distance: the tree is narrow near the vantage and
  // fans out toward the stubs.
  std::map<int, std::unordered_set<std::uint32_t>> by_ttl;
  for (const auto& route : result.routes) {
    for (const core::RouteHop& hop : route) {
      if (hop.flags & core::RouteHop::kFromDestination) continue;
      by_ttl[hop.ttl].insert(hop.ip);
    }
  }
  std::printf("%6s %12s\n", "TTL", "interfaces");
  for (const auto& [ttl, interfaces] : by_ttl) {
    if (ttl > 28) break;
    std::printf("%6d %12zu\n", ttl, interfaces.size());
  }

  // Route lengths of reached targets.
  util::Histogram lengths;
  for (const auto distance : result.destination_distance) {
    if (distance != 0) lengths.add(distance);
  }
  if (lengths.total() > 0) {
    std::printf("\nresponsive-target distance quantiles: p10=%lld p50=%lld "
                "p90=%lld p99=%lld (n=%s)\n",
                static_cast<long long>(lengths.quantile(0.10)),
                static_cast<long long>(lengths.quantile(0.50)),
                static_cast<long long>(lengths.quantile(0.90)),
                static_cast<long long>(lengths.quantile(0.99)),
                util::format_count(lengths.total()).c_str());
  }

  std::printf("\nphase accounting: preprobing %s of %s total (%s probes)\n",
              util::format_duration(result.preprobe_time).c_str(),
              util::format_duration(result.scan_time).c_str(),
              util::format_count(result.preprobe_probes).c_str());
  std::printf("backward probing stopped at a convergence point %s times\n",
              util::format_count(result.convergence_stops).c_str());
  return 0;
}
