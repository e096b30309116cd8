// Tunable parameters of the simulated Internet.
//
// The paper evaluates FlashRoute against the real IPv4 Internet; this
// repository substitutes a deterministic model whose knobs are calibrated to
// the observations the paper itself reports (see DESIGN.md §5):
//
//  * ~4.0% of random per-/24 targets answer the one-probe distance
//    measurement; hitlist targets answer ~10% (§4.1.3);
//  * interface reuse across routes plunges near hop 16 and essentially no
//    route exceeds 32 hops (§3.2.1);
//  * most routers limit ICMP generation to <= 500 replies/s (§4.2.2,
//    citing Ravaioli et al.);
//  * TTL-rewriting middleboxes sit at stub-network entrances and cause the
//    >1-hop tail of Fig 3; routing dynamics cause the ±1 mass;
//  * destination-rewriting middleboxes touch 0.007%-0.054% of probes (§5.3);
//  * forwarding loops appear on ~1.7% of routes to unresponsive targets
//    (§5.1);
//  * hitlist addresses preferentially name the gateway appliance at a stub's
//    entrance, shielding interior interfaces from discovery (§5.1).

#pragma once

#include <cstdint>

#include "util/annotations.h"

#include "util/clock.h"

namespace flashroute::sim {

/// Deterministic fault-injection knobs (sim/fault_plane.h; DESIGN.md §9).
/// All defaults are zero: `any()` is false and SimNetwork never constructs
/// a FaultPlane, so the default simulation is bit-identical to a build
/// without the plane.  Every fault is drawn statelessly from (probe
/// content, virtual send time), so fault schedules replay identically
/// across runs, shard decompositions, and checkpoint resumes.
struct FaultParams {
  /// Probability a probe vanishes en route (before reaching any responder).
  double probe_loss = 0.0;
  /// Probability a crafted response vanishes on the way back.
  double response_loss = 0.0;
  /// Probability a response is delivered twice (duplicated in flight).
  double duplicate_prob = 0.0;
  /// Probability a response is delayed past later traffic (reordering),
  /// and the bound on the extra delay.
  double reorder_prob = 0.0;
  util::Nanos reorder_max_delay = 50 * util::kMillisecond;
  /// Probability a response arrives with corrupted payload bytes.
  double corrupt_prob = 0.0;
  /// Fraction of /24 prefixes that are persistently blackholed (probes to
  /// them are swallowed for the whole scan).
  double blackhole_fraction = 0.0;
  /// Fraction of /24 prefixes behind a flapping link: probes are dropped
  /// while the link is in the "down" share of each virtual-time period.
  double flap_fraction = 0.0;
  util::Nanos flap_period = 10 * util::kSecond;
  double flap_down_share = 0.5;
  /// Probability a local send fails transiently (EAGAIN-style): the probe
  /// never reaches the network and try_send reports false.
  double send_fail_prob = 0.0;

  /// Extra seed folded into every fault draw, so fault schedules can be
  /// varied independently of the topology seed.
  std::uint64_t fault_seed = 0xFA17;

  bool any() const noexcept {
    return probe_loss > 0.0 || response_loss > 0.0 || duplicate_prob > 0.0 ||
           reorder_prob > 0.0 || corrupt_prob > 0.0 ||
           blackhole_fraction > 0.0 || flap_fraction > 0.0 ||
           send_fail_prob > 0.0;
  }
};

/// How the per-prefix topology state is represented.
///
///  * kMaterialized — the legacy generator: one Stub object (heap-allocated
///    path vector) per advertised block plus a full per-prefix map.  Rich,
///    but its memory grows linearly with the universe — prohibitive at 2^24.
///  * kSuccinct — full-scale mode: a fixed pool of 256 shared path
///    templates plus a stateless hash derivation from (prefix, seeds); no
///    per-prefix state at all, so topology memory is O(pool), not O(2^24).
enum class TopologyMode {
  kMaterialized,
  kSuccinct,
};

struct SimParams {
  // --- Universe ------------------------------------------------------------
  std::uint64_t seed = 1;

  /// Topology representation (see TopologyMode).  The default stays the
  /// legacy materialized generator — bit-identical to every earlier build;
  /// full-scale scans switch to kSuccinct.
  TopologyMode topology_mode = TopologyMode::kMaterialized;

  /// The universe contains 2^prefix_bits /24 blocks starting at
  /// `first_prefix` (a /24 index, i.e. address >> 8).  The default models one
  /// /8 (65,536 blocks) starting at 1.0.0.0; the full IPv4 space of the paper
  /// corresponds to prefix_bits = 24, first_prefix = 0.
  int prefix_bits = 16;
  std::uint32_t first_prefix = 0x010000;  // 1.0.0.0

  /// Address probes appear to come from (the vantage point).
  std::uint32_t vantage_address = 0xCB00710A;  // 203.0.113.10

  /// Base of the pool interface IPs are allocated from (core routers, access
  /// chains, gateways, stub spines).  Stub-interior interfaces get addresses
  /// inside their own /24 instead, which is what makes hitlist addresses
  /// appear as intermediate hops on routes to random targets (§5.1).
  std::uint32_t interface_pool_base = 0xC8000000;  // 200.0.0.0

  // --- Allocation & routing ------------------------------------------------
  /// Fraction of advertised blocks that are actually routed; the rest are
  /// dark space whose probes die inside the provider core.
  double routed_fraction = 0.62;

  /// A stub advertises a contiguous block of 2^b /24s, b uniform in
  /// [0, max_block_bits].  Adjacent /24s of one stub share their forward
  /// path, which is what FlashRoute's proximity-span prediction exploits
  /// (§3.3.3).
  int max_block_bits = 6;

  /// Number of provider-core routers; 0 means auto (universe/128, min 64).
  int core_routers = 0;

  /// Depth bias of the core tree: each new router attaches to the deepest of
  /// this many uniformly drawn candidates.  1 gives a classic random
  /// recursive tree (expected depth ~ln n); higher values deepen routes so
  /// target distances match the paper's observations (median ≈ 15-16, very
  /// few paths beyond 32).
  int tree_attach_draws = 2;

  /// Fraction of core-tree edges replaced by a per-flow load-balancer
  /// diamond (two or three parallel one-hop branches chosen by flow hash,
  /// the Paris-traceroute phenomenon).
  double diamond_fraction = 0.12;
  double diamond_three_way_fraction = 0.30;

  /// Stub access chains: 1..max_access_chain routers between the core
  /// attachment point and the stub gateway.
  int max_access_chain = 3;

  /// Multihomed stubs: with this probability the last access hop before the
  /// gateway is a wide per-flow ECMP fan (4..15 parallel branches).  One
  /// flow per destination cannot exhaust such fans during a normal scan —
  /// these are the alternative-route interfaces the discovery-optimized
  /// mode's shifted source ports reveal (§5.2).
  double stub_multihome_prob = 0.12;
  int multihome_min_width = 16;
  int multihome_max_width = 48;

  /// Stub spine: 0..max_spine shared routers between the gateway and the
  /// per-/24 segments.
  int max_spine = 3;

  // --- Hosts ---------------------------------------------------------------
  /// Host responsiveness clusters by stub: a minority of stubs is densely
  /// populated, the rest are nearly empty.  This clustering is what keeps
  /// the paper's preprobing *coverage* modest (38.2% for hitlist, 22.95%
  /// for random, §4.1.3) despite span-5 prediction: measured blocks bunch
  /// together instead of spreading a prediction umbrella over everything.
  double stub_responsive_prob = 0.35;
  /// Probability that a uniformly random host address is assigned, by stub
  /// class.  Overall: 0.62 (routed) * (0.35*0.22 + 0.65*0.01) * 0.72
  /// (response) ≈ the paper's 4.0% preprobing success on random targets.
  double host_exist_prob_responsive = 0.22;
  double host_exist_prob_quiet = 0.01;
  double host_udp_response_prob = 0.72;
  double host_tcp_response_prob = 0.55;

  /// Hosts sit 0..max_host_depth router hops behind their /24's appliance.
  /// The depth distribution is skewed toward the segment entrance (most
  /// hosts share the appliance's distance ±0) — this is what makes
  /// proximity-span predictions land exactly right ~59% of the time (Fig 4)
  /// while still leaving interior routers for the hitlist bias to hide
  /// (§5.1).  Cumulative percentile thresholds for depths 0,1,2 (remainder
  /// is depth 3, capped at max_host_depth).
  int max_host_depth = 3;
  int host_depth_cum_pct_0 = 70;
  int host_depth_cum_pct_1 = 90;
  int host_depth_cum_pct_2 = 97;

  // --- Hitlist -------------------------------------------------------------
  /// Census coverage per routed /24, by stub responsiveness class; the
  /// effective hitlist measurement rate lands near the paper's 10%.
  double hitlist_present_responsive = 0.60;
  double hitlist_present_quiet = 0.08;
  double hitlist_is_appliance_prob = 0.85;  // gateway-appliance bias (§5.1)
  double appliance_udp_response_prob = 0.55;
  double appliance_tcp_response_prob = 0.40;

  // --- Router interface behaviour -------------------------------------------
  /// Persistently silent interfaces (never answer time-exceeded).
  double interface_silent_prob = 0.12;

  /// Filtered stub tails: some stubs silence the last 1..5 router hops
  /// before their segment appliances (firewalls, MPLS segments).  Forward
  /// probing needs a gap limit at least as long as the stretch to discover
  /// what lies beyond — the mechanism behind Fig 6's knee at GapLimit 5.
  /// Cumulative percentile thresholds for tail lengths 0..4 (remainder: 5).
  int filtered_tail_cum_pct[5] = {55, 73, 85, 93, 98};
  /// Extra persistent silence towards TCP probes: UDP discovers slightly
  /// more interfaces, as the paper observes (§4.2.1, citing [16]).
  double interface_tcp_extra_silent_prob = 0.03;

  /// ICMP generation limit per interface (Ravaioli et al.; §4.2.2).
  double icmp_rate_limit_pps = 500.0;
  double icmp_rate_limit_burst = 500.0;

  // --- Middleboxes & pathologies --------------------------------------------
  /// Per-stub probability of a TTL-rewriting middlebox at the gateway.
  double ttl_reset_middlebox_prob = 0.015;
  /// TTL value such a middlebox writes (sampled per middlebox from
  /// {ttl_reset_low, ttl_reset_high}).
  std::uint8_t ttl_reset_low = 32;
  std::uint8_t ttl_reset_high = 64;

  /// Per-stub probability of a destination-rewriting middlebox (§5.3).
  double rewrite_middlebox_prob = 0.0015;

  /// Loops on paths to nonexistent/unrouted destinations (§5.1: 1.7%).
  double dark_loop_prob = 0.017;

  /// Probes to unassigned addresses in a routed /24: with this probability
  /// the segment appliance forwards them onto the (dead) LAN — the probe
  /// then dies one hop *beyond* the appliance, making the measured route to
  /// an unassigned random target longer than the route to the hitlist
  /// target of the same prefix (the §5.1 route-length bias); otherwise the
  /// gateway ingress-filters them.
  double unassigned_reach_appliance_prob = 0.55;

  // --- Dynamics & timing -----------------------------------------------------
  /// Per-epoch probability that a stub's spine length shifts by one hop —
  /// the routing dynamicity behind the ±1 mass of Fig 3.
  double route_dynamics_prob = 0.04;
  util::Nanos dynamics_epoch = 60 * util::kSecond;

  util::Nanos rtt_base = 2 * util::kMillisecond;
  util::Nanos rtt_per_hop = 2'500'000;  // 2.5 ms per hop
  util::Nanos rtt_jitter = 3 * util::kMillisecond;

  // --- Fault injection -------------------------------------------------------
  /// Adversity model (loss, duplication, reordering, corruption, blackholes,
  /// flapping links, transient send failures).  All-zero by default: the
  /// simulation is then byte-identical to one without the fault plane.
  FaultParams faults;

  // Derived helpers.
  FR_HOT std::uint32_t num_prefixes() const noexcept {
    return std::uint32_t{1} << prefix_bits;
  }
  FR_HOT std::uint32_t last_prefix() const noexcept {
    return first_prefix + num_prefixes() - 1;
  }
  int effective_core_routers() const noexcept {
    if (core_routers > 0) return core_routers;
    const auto auto_size = static_cast<int>(num_prefixes() / 128);
    return auto_size < 64 ? 64 : auto_size;
  }
};

/// Scales a full-IPv4-scale probing rate (e.g. the paper's 100 Kpps) down to
/// a smaller simulated universe.  Keeping probes-per-destination-per-second
/// constant preserves the paper's round dynamics: within one round, early
/// destinations' responses arrive in time to steer later destinations (the
/// regime in which the Doubletree stop set does its work), and scan-time
/// *ratios* between tools carry over.
inline double scaled_probe_rate(double full_scale_pps,
                                int prefix_bits) noexcept {
  return full_scale_pps *
         static_cast<double>(std::uint64_t{1} << prefix_bits) /
         static_cast<double>(std::uint64_t{1} << 24);
}

}  // namespace flashroute::sim
