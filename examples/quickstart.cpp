// Quickstart: trace a simulated universe with FlashRoute and print a route.
//
// This is the smallest end-to-end use of the library:
//   1. describe the scan (svc::ScanSpec, the spec flashroute_cli and frd
//      take) and build its deterministic simulated Internet from it;
//   2. run a FlashRoute scan against it in virtual time;
//   3. inspect the results: discovered interfaces, a reconstructed route,
//      and the scan's probe/time accounting.
//
// Build & run:  ./build/examples/quickstart

#include <algorithm>
#include <cstdio>

#include "core/tracer.h"
#include "net/ipv4.h"
#include "sim/network.h"
#include "sim/runtime.h"
#include "svc/scan_spec.h"
#include "util/stats.h"

using namespace flashroute;

int main() {
  // A small universe: 4096 /24 blocks starting at 1.0.0.0.  FlashRoute-16:
  // split TTL 16, gap limit 5, redundancy removal, and random preprobing
  // with span-5 prediction, at the paper's 100 Kpps scaled to the universe
  // size and in its one-second rounds, so the round-feedback dynamics match
  // a full-scale scan.
  svc::ScanSpec spec;
  spec.prefix_bits = 12;
  spec.topology_seed = 2026;
  spec.preprobe = core::PreprobeMode::kRandom;
  spec.probes_per_second = sim::scaled_probe_rate(100'000.0, spec.prefix_bits);
  spec.min_round_duration = util::kSecond;
  spec.checkpoint_interval = 0;  // nothing is saved: no barriers

  // The spec builds the simulated Internet and the engine's config.
  svc::ScanSetup setup(spec);
  sim::SimNetwork network(setup.build_world());
  sim::SimScanRuntime runtime(network, spec.probes_per_second);
  const core::TracerConfig& config = setup.engine;
  core::Tracer tracer(config, runtime);
  const core::ScanResult result = tracer.run();

  std::printf("scanned %u /24 blocks\n", config.num_prefixes());
  std::printf("  probes sent:       %s (%s in preprobing)\n",
              util::format_count(result.probes_sent).c_str(),
              util::format_count(result.preprobe_probes).c_str());
  std::printf("  scan time:         %s (virtual)\n",
              util::format_duration(result.scan_time).c_str());
  std::printf("  interfaces found:  %zu\n", result.interfaces.size());
  std::printf("  targets reached:   %s\n",
              util::format_count(result.destinations_reached).c_str());
  std::printf("  distances measured/predicted: %s / %s\n",
              util::format_count(result.distances_measured).c_str(),
              util::format_count(result.distances_predicted).c_str());

  // Print the deepest reconstructed route.
  std::size_t best = 0;
  for (std::size_t i = 0; i < result.routes.size(); ++i) {
    if (result.destination_distance[i] > result.destination_distance[best]) {
      best = i;
    }
  }
  if (result.destination_distance[best] != 0) {
    auto hops = result.routes[best];
    std::sort(hops.begin(), hops.end(),
              [](const core::RouteHop& a, const core::RouteHop& b) {
                return a.ttl < b.ttl;
              });
    std::printf("\ndeepest route (target %s, %d hops):\n",
                net::Ipv4Address(tracer.target_of(
                                     static_cast<std::uint32_t>(best)))
                    .to_string()
                    .c_str(),
                result.destination_distance[best]);
    std::uint8_t last_ttl = 0;
    for (const core::RouteHop& hop : hops) {
      if (hop.ttl == last_ttl) continue;  // duplicate responses
      last_ttl = hop.ttl;
      std::printf("  %2d  %-15s%s\n", hop.ttl,
                  net::Ipv4Address(hop.ip).to_string().c_str(),
                  (hop.flags & core::RouteHop::kFromDestination)
                      ? "  <- destination"
                      : "");
    }
  }
  return 0;
}
