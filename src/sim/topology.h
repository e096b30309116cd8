// Deterministic Internet topology model.
//
// The model reproduces the structural phenomena the paper's probing
// strategies interact with:
//
//  * routes from one vantage point form a tree (Doubletree's premise, Fig 1):
//    a random recursive tree of provider-core routers, so paths to different
//    stubs share long common sections near the source;
//  * per-flow load balancers create diamond sections (Fig 2): some core
//    edges expand into 2-3 parallel one-hop branches selected by flow hash,
//    so a different source port reveals different interfaces;
//  * stubs advertise contiguous blocks of /24s that share their forward path
//    — the basis of proximity-span distance prediction (§3.3.3);
//  * each routed /24 has a "gateway appliance" interface inside the prefix;
//    hosts sit 0..2 hops behind it.  The hitlist preferentially names the
//    appliance, which is the paper's §5.1 bias;
//  * probes to unassigned addresses die inside the provider (dark blocks) or
//    at the stub gateway, occasionally entering a forwarding loop (§5.1);
//  * TTL-rewriting and destination-rewriting middleboxes sit at stub
//    entrances (§3.3.2, §5.3);
//  * stub spine length jitters over time epochs, modelling route dynamicity.
//
// The topology is immutable after construction; all queries are const and
// deterministic, so concurrent probing engines can share one instance.

#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/ipv4.h"
#include "sim/params.h"
#include "util/annotations.h"
#include "util/rng.h"

namespace flashroute::sim {

/// One position of a stub's provider-path template.  width == 0: a fixed
/// interface; width > 0: a load-balancer branch — the interface is
/// base_ip + (branch hash % width).
struct TemplateHop {
  std::uint32_t base_ip = 0;
  std::uint8_t width = 0;
  std::uint64_t edge_key = 0;

  /// The interface a probe of flow label `flow` crosses at this position.
  /// Only a load-balancer branch hashes the flow.
  FR_HOT std::uint32_t ip(std::uint64_t flow) const noexcept {
    if (width == 0) return base_ip;
    return base_ip +
           static_cast<std::uint32_t>(util::mix64(edge_key ^ flow) % width);
  }
};

/// A resolved forwarding path for one (destination, flow, epoch) triple,
/// held as a descriptor rather than a list of interfaces: a probe expires
/// at one hop, so hop_at computes only the interface asked for, in O(1).
///
/// Hops 1..path_len follow the stub's provider-path template (`path`,
/// evaluated under `flow`), hops path_len+1..spine_end its spine, and the
/// rest the per-destination `tail`: the appliance, then the interior
/// levels toward the host.  `path` and `spine` point into the Topology
/// that resolved the route; the topology is immutable, and no Route may
/// outlive it.
struct Route {
  /// Cap on num_hops, applied by Topology::resolve to every segment.
  static constexpr int kMaxHops = 64;
  /// The appliance plus up to three interior levels.
  static constexpr int kMaxTail = 4;

  const TemplateHop* path = nullptr;
  const std::uint32_t* spine = nullptr;
  std::uint64_t flow = 0;
  std::array<std::uint32_t, kMaxTail> tail{};
  std::uint8_t path_len = 0;
  std::uint8_t spine_end = 0;  ///< path_len + spine hops
  std::uint8_t tail_len = 0;
  int num_hops = 0;  ///< routers before delivery or drop

  bool delivers = false;           ///< reaches an assigned host
  std::uint32_t delivered_address = 0;  ///< responder (after any rewriting)
  bool rewritten = false;          ///< destination rewritten en route (§5.3)

  /// The path bounces between its last two hops (loop_a, loop_b) forever.
  bool loops = false;

  int middlebox_pos = 0;           ///< 1-based hop of TTL-reset box, 0 = none
  std::uint8_t middlebox_reset = 0;

  /// Resets the descriptor for reuse.  `tail` is left stale: only entries
  /// [0, tail_len) are ever read.
  FR_HOT void reset() noexcept {
    path = nullptr;
    spine = nullptr;
    path_len = 0;
    spine_end = 0;
    tail_len = 0;
    num_hops = 0;
    delivers = false;
    delivered_address = 0;
    rewritten = false;
    loops = false;
    middlebox_pos = 0;
    middlebox_reset = 0;
  }

  /// Interface that would see the probe expire at 1-based position `pos`.
  /// Positions beyond num_hops are valid only when `loops`: odd overshoots
  /// land on loop_a, even ones on loop_b.
  FR_HOT std::uint32_t hop_at(int pos) const noexcept {
    assert(pos >= 1);
    if (pos > num_hops) {
      assert(loops);
      pos = ((pos - num_hops) % 2 == 1) ? num_hops : num_hops - 1;
    }
    const int i = pos - 1;
    if (i < path_len) return path[i].ip(flow);
    if (i < spine_end) return spine[i - path_len];
    assert(i - spine_end < tail_len);
    return tail[static_cast<std::size_t>(i - spine_end)];
  }
  FR_HOT std::uint32_t loop_a() const noexcept { return hop_at(num_hops); }
  FR_HOT std::uint32_t loop_b() const noexcept { return hop_at(num_hops - 1); }
};

/// Why no Topology can be built from `params`, or nullptr when one can:
/// prefix bits outside [1, 24], a universe past 255.255.255.255, or one
/// that overlaps the interface pool.
const char* universe_error(const SimParams& params) noexcept;

class Topology {
 public:
  /// Throws std::invalid_argument when universe_error(params) is set.
  explicit Topology(const SimParams& params);

  /// Resolves the forwarding path for `destination` under flow label `flow`
  /// at dynamics epoch `epoch`.  Returns false when the destination lies
  /// outside the simulated universe.
  [[nodiscard]] FR_HOT bool resolve(net::Ipv4Address destination, std::uint64_t flow,
                      std::int64_t epoch, Route& route) const noexcept;

  /// Minimum TTL that elicits a response from the destination itself
  /// (num_hops + 1), or nullopt when the destination never answers.
  std::optional<int> trigger_ttl(net::Ipv4Address destination,
                                 std::uint64_t flow,
                                 std::int64_t epoch) const noexcept;

  // --- Host & interface behaviour ------------------------------------------

  /// Whether this exact address is an assigned host (the per-/24 appliance
  /// always is; other octets are assigned with host_exist_prob).
  FR_HOT bool host_exists(net::Ipv4Address address) const noexcept;

  /// Whether the host answers a probe of the given transport protocol
  /// (kProtoUdp -> ICMP port-unreachable, kProtoTcp -> RST).
  FR_HOT bool host_responds(net::Ipv4Address address,
                            std::uint8_t protocol) const noexcept;

  /// Whether a router interface answers time-exceeded for this protocol
  /// (persistently silent interfaces never do; some are silent to TCP only).
  FR_HOT bool interface_responds(std::uint32_t interface_ip,
                                 std::uint8_t protocol) const noexcept;

  /// host_responds() for the delivered address of a resolved route.  Every
  /// route with `delivers` set has host_exists(delivered_address) true by
  /// construction (resolve() either verified the draw or delivered to the
  /// always-assigned appliance), so only the protocol draw remains.
  FR_HOT bool host_responds_delivered(net::Ipv4Address address,
                                      std::uint8_t protocol) const noexcept;

  // --- Metadata --------------------------------------------------------------
  FR_HOT const SimParams& params() const noexcept { return params_; }
  FR_HOT bool in_universe(net::Ipv4Address address) const noexcept;
  FR_HOT bool prefix_routed(std::uint32_t prefix_index) const noexcept;
  FR_HOT std::uint32_t appliance_address(
      std::uint32_t prefix_index) const noexcept;
  std::uint32_t num_stubs() const noexcept {
    return static_cast<std::uint32_t>(stubs_.size());
  }
  std::uint32_t num_dark_blocks() const noexcept {
    return static_cast<std::uint32_t>(dark_blocks_.size());
  }
  /// Interfaces allocated from the provider pool (core, access, gateways,
  /// spines, load-balancer branches) — excludes per-/24 stub-interior IPs.
  std::uint64_t allocated_pool_interfaces() const noexcept {
    return next_pool_ip_ - params_.interface_pool_base;
  }

  /// The hitlist: for each prefix in the universe, the "most responsive"
  /// address (0 when the census would have found none).  Biased toward the
  /// gateway appliance per §5.1.
  std::vector<std::uint32_t> generate_hitlist() const;

  /// Dynamics: spine length of a stub at a given epoch.
  FR_HOT int spine_length(std::uint32_t stub_id,
                          std::int64_t epoch) const noexcept;

  /// Host responsiveness class of the stub owning this prefix (densely
  /// populated vs nearly empty; see SimParams::stub_responsive_prob).
  FR_HOT bool stub_is_responsive(std::uint32_t prefix_index) const noexcept;

 private:
  struct Stub {
    std::vector<TemplateHop> path;  ///< root .. gateway (gateway last)
    std::array<std::uint32_t, 4> spine_ips{};
    std::uint8_t spine_base = 0;
    std::uint8_t mbox_reset = 0;  ///< 0 = no TTL-reset middlebox
    bool rewrite = false;         ///< destination-rewriting middlebox
  };

  void apply_filtered_tail(const Stub& stub, util::Xoshiro256& rng);
  void mark_forced_silent(std::uint32_t pool_ip);

  struct DarkBlock {
    std::uint32_t provider_stub = 0;
    std::uint8_t drop_back = 0;  ///< probes die drop_back hops before gateway
    bool loop = false;
  };

  /// Per-prefix topology state of kSuccinct, derived statelessly from
  /// (prefix offset, seeds) and never stored.
  struct SuccinctEntry {
    std::uint32_t block_key = 0;  ///< first offset of the advertised block
    std::uint32_t stub = 0;       ///< template index (routed) / provider (dark)
    std::uint8_t drop_back = 0;
    bool routed = false;
    bool dark_loop = false;
  };

  static constexpr std::int32_t kUnmapped = -1;

  std::uint32_t alloc_pool_ip() noexcept { return next_pool_ip_++; }
  FR_HOT std::uint8_t internal_octet(std::uint32_t prefix_index,
                                     int level) const noexcept;
  /// Stateless succinct derivation: superblock-hashed block size, aligned
  /// block start, routed/dark draw, template assignment — all from the
  /// derived seeds, O(1) per prefix, no per-prefix storage.
  FR_HOT SuccinctEntry derive_entry(std::uint32_t offset) const noexcept;
  FR_HOT int spine_length_keyed(int spine_base, std::uint64_t key_id,
                                std::int64_t epoch) const noexcept;
  /// host_exists() for an address known to sit in a routed prefix whose
  /// dynamics key is already in hand (resolve() extracted it for the route
  /// walk).  Skips the two derive_entry() calls the public query pays —
  /// the responsiveness and existence draws are identical, so the answer is
  /// bit-for-bit the same.
  FR_HOT bool host_exists_routed(net::Ipv4Address address,
                                 std::uint64_t dyn_key) const noexcept;

  SimParams params_;
  std::uint32_t next_pool_ip_;

  /// Per-prefix mapping (kMaterialized only): >= 0 stub index; <= -2 dark
  /// block index (-(v)-2); kUnmapped never occurs after construction.
  std::vector<std::int32_t> prefix_map_;
  /// kMaterialized: one stub per advertised routed block.  kSuccinct: the
  /// fixed pool of 256 shared path templates.
  std::vector<Stub> stubs_;
  std::vector<DarkBlock> dark_blocks_;
  /// Interfaces silenced by a filtered stub tail (Fig 6's silent stretches):
  /// one bit per interface-pool offset, [interface_pool_base, next_pool_ip_).
  /// Exact, because only pool-allocated interfaces are ever silenced.
  std::vector<std::uint64_t> forced_silent_;

  // Derived seeds for independent stochastic aspects.
  std::uint64_t seed_host_;
  std::uint64_t seed_depth_;
  std::uint64_t seed_udp_;
  std::uint64_t seed_tcp_;
  std::uint64_t seed_silent_;
  std::uint64_t seed_silent_tcp_;
  std::uint64_t seed_dyn_;
  std::uint64_t seed_loop_;
  std::uint64_t seed_hitlist_;
  std::uint64_t seed_internal_;
  // kSuccinct derivation seeds (unused by kMaterialized).
  std::uint64_t seed_block_;
  std::uint64_t seed_routed_;
  std::uint64_t seed_assign_;
  std::uint64_t seed_dark_prov_;
  std::uint64_t seed_dark_back_;
  std::uint64_t seed_dark_loop_;
};

}  // namespace flashroute::sim
