#include "sim/topology.h"

#include <algorithm>
#include <stdexcept>

#include "net/headers.h"

namespace flashroute::sim {

namespace {

// Tags mixed into the master seed so each stochastic aspect of the model
// draws from an independent stream.
enum SeedTag : std::uint64_t {
  kTagHost = 0x686f7374,
  kTagDepth = 0x64657074,
  kTagUdp = 0x756470,
  kTagTcp = 0x746370,
  kTagSilent = 0x73696c31,
  kTagSilentTcp = 0x73696c32,
  kTagDyn = 0x64796e,
  kTagLoop = 0x6c6f6f70,
  kTagHitlist = 0x686974,
  kTagInternal = 0x696e74,
  kTagBlock = 0x626c6f63,
  kTagRouted = 0x726f7574,
  kTagAssign = 0x61736767,
  kTagDarkProv = 0x64707276,
  kTagDarkBack = 0x6462636b,
  kTagDarkLoop = 0x646c6f70,
};

constexpr std::uint8_t kApplianceOctet = 1;

/// kSuccinct's fixed pool of shared path templates.
constexpr std::uint32_t kTemplatePool = 256;

}  // namespace

const char* universe_error(const SimParams& params) noexcept {
  if (params.prefix_bits < 1 || params.prefix_bits > 24) {
    return "prefix_bits must be in [1, 24]";
  }
  const std::uint64_t universe_first = std::uint64_t{params.first_prefix}
                                       << 8;
  const std::uint64_t universe_last =
      (std::uint64_t{params.first_prefix} + params.num_prefixes()) * 256 - 1;
  if (universe_last > 0xFFFFFFFFull) {
    return "destination universe overflows IPv4 space";
  }
  // The interface pool must not overlap the destination universe: pool IPs
  // are "provider" addresses, universe IPs are scan targets.  The one
  // exception is the full-IPv4 universe (prefix_bits == 24), where the pool
  // has nowhere else to live — as on the real Internet, router interfaces
  // are then themselves members of scanned /24s.
  const std::uint64_t pool_first = params.interface_pool_base;
  const std::uint64_t pool_last =
      pool_first + (std::uint64_t{1} << 24);  // generous upper bound
  if (params.prefix_bits < 24 && pool_first <= universe_last &&
      universe_first <= pool_last) {
    return "interface pool overlaps the destination universe";
  }
  return nullptr;
}

Topology::Topology(const SimParams& params)
    : params_(params),
      next_pool_ip_(params.interface_pool_base),
      seed_host_(util::hash_combine(params.seed, kTagHost)),
      seed_depth_(util::hash_combine(params.seed, kTagDepth)),
      seed_udp_(util::hash_combine(params.seed, kTagUdp)),
      seed_tcp_(util::hash_combine(params.seed, kTagTcp)),
      seed_silent_(util::hash_combine(params.seed, kTagSilent)),
      seed_silent_tcp_(util::hash_combine(params.seed, kTagSilentTcp)),
      seed_dyn_(util::hash_combine(params.seed, kTagDyn)),
      seed_loop_(util::hash_combine(params.seed, kTagLoop)),
      seed_hitlist_(util::hash_combine(params.seed, kTagHitlist)),
      seed_internal_(util::hash_combine(params.seed, kTagInternal)),
      seed_block_(util::hash_combine(params.seed, kTagBlock)),
      seed_routed_(util::hash_combine(params.seed, kTagRouted)),
      seed_assign_(util::hash_combine(params.seed, kTagAssign)),
      seed_dark_prov_(util::hash_combine(params.seed, kTagDarkProv)),
      seed_dark_back_(util::hash_combine(params.seed, kTagDarkBack)),
      seed_dark_loop_(util::hash_combine(params.seed, kTagDarkLoop)) {
  if (const char* error = universe_error(params_); error != nullptr) {
    throw std::invalid_argument(error);
  }

  util::Xoshiro256 rng(params_.seed);

  // --- Provider core: random recursive tree with load-balancer diamonds ---
  const int num_core = params_.effective_core_routers();
  // edge_hops[i]: the template positions appended when a path crosses the
  // edge parent(i) -> i.  The root's single entry is the TTL-1 interface.
  std::vector<std::vector<TemplateHop>> edge_hops(
      static_cast<std::size_t>(num_core));
  std::vector<std::int32_t> parent(static_cast<std::size_t>(num_core), -1);
  std::vector<std::uint16_t> depth(static_cast<std::size_t>(num_core), 0);

  edge_hops[0].push_back({alloc_pool_ip(), 0, 0});
  for (int i = 1; i < num_core; ++i) {
    // Depth-biased attachment: the deepest of `tree_attach_draws` candidates
    // becomes the parent, stretching routes toward realistic hop counts.
    std::int32_t chosen =
        static_cast<std::int32_t>(rng.bounded(static_cast<std::uint64_t>(i)));
    for (int draw = 1; draw < params_.tree_attach_draws; ++draw) {
      const auto candidate = static_cast<std::int32_t>(
          rng.bounded(static_cast<std::uint64_t>(i)));
      if (depth[static_cast<std::size_t>(candidate)] >
          depth[static_cast<std::size_t>(chosen)]) {
        chosen = candidate;
      }
    }
    parent[static_cast<std::size_t>(i)] = chosen;
    depth[static_cast<std::size_t>(i)] =
        static_cast<std::uint16_t>(depth[static_cast<std::size_t>(chosen)] + 1);
    auto& hops = edge_hops[static_cast<std::size_t>(i)];
    if (rng.chance(params_.diamond_fraction)) {
      const std::uint8_t width =
          rng.chance(params_.diamond_three_way_fraction) ? 3 : 2;
      const std::uint64_t edge_key = rng();
      const std::uint32_t mid_base = next_pool_ip_;
      next_pool_ip_ += width;  // parallel mid-router interfaces
      const std::uint32_t child_base = next_pool_ip_;
      next_pool_ip_ += width;  // per-branch in-interfaces of the child
      hops.push_back({mid_base, width, edge_key});
      hops.push_back({child_base, width, edge_key});
    } else {
      hops.push_back({alloc_pool_ip(), 0, 0});
    }
  }

  // Builds one stub with the legacy draw order (path off the core tree,
  // access chain, multihoming, spine, middleboxes, filtered tail) — shared
  // between the per-block materialized build and the succinct template pool.
  const auto build_stub = [&](util::Xoshiro256& r) {
    Stub stub;

    // Provider path: root .. attachment router, expanded edge templates.
    const auto attach = static_cast<std::int32_t>(
        r.bounded(static_cast<std::uint64_t>(num_core)));
    std::vector<std::int32_t> ancestry;
    for (std::int32_t router = attach; router >= 0;
         router = parent[static_cast<std::size_t>(router)]) {
      ancestry.push_back(router);
    }
    for (auto it = ancestry.rbegin(); it != ancestry.rend(); ++it) {
      const auto& hops = edge_hops[static_cast<std::size_t>(*it)];
      stub.path.insert(stub.path.end(), hops.begin(), hops.end());
    }

    // Access chain between the core and the gateway, then the gateway.
    const int chain =
        1 + static_cast<int>(r.bounded(
                static_cast<std::uint64_t>(params_.max_access_chain)));
    for (int i = 0; i < chain - 1; ++i) {
      stub.path.push_back({alloc_pool_ip(), 0, 0});
    }
    if (r.chance(params_.stub_multihome_prob)) {
      // Multihomed stub: a wide per-flow ECMP fan feeds the gateway (§5.2).
      const auto width = static_cast<std::uint8_t>(
          params_.multihome_min_width +
          static_cast<int>(r.bounded(static_cast<std::uint64_t>(
              params_.multihome_max_width - params_.multihome_min_width + 1))));
      const std::uint64_t edge_key = r();
      const std::uint32_t mid_base = next_pool_ip_;
      next_pool_ip_ += width;
      const std::uint32_t child_base = next_pool_ip_;
      next_pool_ip_ += width;
      stub.path.push_back({mid_base, width, edge_key});
      stub.path.push_back({child_base, width, edge_key});
    } else {
      stub.path.push_back({alloc_pool_ip(), 0, 0});
    }
    stub.path.push_back({alloc_pool_ip(), 0, 0});  // gateway in-interface

    stub.spine_base = static_cast<std::uint8_t>(
        r.bounded(static_cast<std::uint64_t>(params_.max_spine + 1)));
    for (auto& ip : stub.spine_ips) ip = alloc_pool_ip();

    if (r.chance(params_.ttl_reset_middlebox_prob)) {
      stub.mbox_reset =
          r.chance(0.5) ? params_.ttl_reset_low : params_.ttl_reset_high;
    }
    stub.rewrite = r.chance(params_.rewrite_middlebox_prob);

    apply_filtered_tail(stub, r);
    return stub;
  };

  if (params_.topology_mode == TopologyMode::kSuccinct) {
    // --- kSuccinct: a fixed pool of shared path templates ------------------
    // Every per-prefix attribute (block carve, routed/dark, template
    // assignment, dark-tail shape) is derived on demand from the seeds —
    // see derive_entry().
    stubs_.reserve(kTemplatePool);
    for (std::uint32_t i = 0; i < kTemplatePool; ++i) {
      stubs_.push_back(build_stub(rng));
    }
    return;
  }

  // --- Carve the universe into advertised blocks -------------------------
  const std::uint32_t num_prefixes = params_.num_prefixes();
  prefix_map_.assign(num_prefixes, kUnmapped);

  struct PendingBlock {
    std::uint32_t start;
    std::uint32_t size;
    bool routed;
  };
  std::vector<PendingBlock> blocks;
  std::uint32_t cursor = 0;
  while (cursor < num_prefixes) {
    const int bits = static_cast<int>(
        rng.bounded(static_cast<std::uint64_t>(params_.max_block_bits + 1)));
    const std::uint32_t size = std::min(std::uint32_t{1} << bits,
                                        num_prefixes - cursor);
    blocks.push_back({cursor, size, rng.chance(params_.routed_fraction)});
    cursor += size;
  }
  // Ensure at least one stub exists so dark blocks have a provider.
  if (std::none_of(blocks.begin(), blocks.end(),
                   [](const PendingBlock& b) { return b.routed; })) {
    blocks.front().routed = true;
  }

  // --- Build stubs ----------------------------------------------------------
  for (const auto& block : blocks) {
    if (!block.routed) continue;
    const auto stub_id = static_cast<std::int32_t>(stubs_.size());
    stubs_.push_back(build_stub(rng));
    for (std::uint32_t p = block.start; p < block.start + block.size; ++p) {
      prefix_map_[p] = stub_id;
    }
  }

  // --- Dark (unrouted) blocks: probes die inside a provider ----------------
  for (const auto& block : blocks) {
    if (block.routed) continue;
    DarkBlock dark;
    dark.provider_stub = static_cast<std::uint32_t>(
        rng.bounded(static_cast<std::uint64_t>(stubs_.size())));
    dark.drop_back = static_cast<std::uint8_t>(rng.bounded(3));
    dark.loop = rng.chance(params_.dark_loop_prob);
    const auto dark_id = static_cast<std::int32_t>(dark_blocks_.size());
    dark_blocks_.push_back(dark);
    for (std::uint32_t p = block.start; p < block.start + block.size; ++p) {
      prefix_map_[p] = -dark_id - 2;
    }
  }
}

FR_HOT Topology::SuccinctEntry Topology::derive_entry(
    std::uint32_t offset) const noexcept {
  // Superblock-hashed carve: every superblock of 2^max_block_bits prefixes
  // is split into equal aligned blocks of 2^bits, bits drawn per superblock.
  // Alignment makes the block start derivable from the offset alone — the
  // whole carve costs zero storage.
  const std::uint32_t superblock =
      offset >> static_cast<unsigned>(params_.max_block_bits);
  const auto bits = static_cast<unsigned>(util::stable_bounded(
      seed_block_, superblock,
      static_cast<std::uint64_t>(params_.max_block_bits + 1)));
  const std::uint32_t block_start = offset & ~((std::uint32_t{1} << bits) - 1);

  SuccinctEntry entry;
  entry.block_key = block_start;
  entry.routed =
      util::stable_chance(seed_routed_, block_start, params_.routed_fraction);
  const auto pool = static_cast<std::uint64_t>(stubs_.size());
  if (entry.routed) {
    entry.stub = static_cast<std::uint32_t>(
        util::stable_bounded(seed_assign_, block_start, pool));
  } else {
    entry.stub = static_cast<std::uint32_t>(
        util::stable_bounded(seed_dark_prov_, block_start, pool));
    entry.drop_back = static_cast<std::uint8_t>(
        util::stable_bounded(seed_dark_back_, block_start, 3));
    entry.dark_loop = util::stable_chance(seed_dark_loop_, block_start,
                                          params_.dark_loop_prob);
  }
  return entry;
}

void Topology::apply_filtered_tail(const Stub& stub, util::Xoshiro256& rng) {
  // The last `tail` router hops before the segment appliances never answer:
  // spine hops first (nearest the appliance), then the gateway, then access
  // routers.  Forward probing needs GapLimit >= tail to see past them.
  const auto draw = static_cast<int>(rng.bounded(100));
  int tail = 5;
  for (int length = 0; length < 5; ++length) {
    if (draw < params_.filtered_tail_cum_pct[length]) {
      tail = length;
      break;
    }
  }
  if (tail == 0) return;
  int remaining = tail;
  for (int spine = static_cast<int>(stub.spine_base) - 1;
       spine >= 0 && remaining > 0; --spine, --remaining) {
    mark_forced_silent(stub.spine_ips[static_cast<std::size_t>(spine)]);
  }
  for (auto it = stub.path.rbegin(); it != stub.path.rend() && remaining > 0;
       ++it) {
    if (it->width != 0) break;  // stop at a load-balancer diamond
    mark_forced_silent(it->base_ip);
    --remaining;
  }
}

void Topology::mark_forced_silent(std::uint32_t pool_ip) {
  const std::uint32_t offset = pool_ip - params_.interface_pool_base;
  const std::size_t word = offset / 64;
  if (word >= forced_silent_.size()) forced_silent_.resize(word + 1, 0);
  forced_silent_[word] |= std::uint64_t{1} << (offset % 64);
}

FR_HOT bool Topology::in_universe(net::Ipv4Address address) const noexcept {
  const std::uint32_t prefix = net::prefix24_index(address);
  return prefix >= params_.first_prefix && prefix <= params_.last_prefix();
}

FR_HOT bool Topology::prefix_routed(std::uint32_t prefix_index) const noexcept {
  if (prefix_index < params_.first_prefix ||
      prefix_index > params_.last_prefix()) {
    return false;
  }
  const std::uint32_t offset = prefix_index - params_.first_prefix;
  if (params_.topology_mode == TopologyMode::kMaterialized) {
    return prefix_map_[offset] >= 0;
  }
  return derive_entry(offset).routed;
}

FR_HOT std::uint32_t Topology::appliance_address(
    std::uint32_t prefix_index) const noexcept {
  return (prefix_index << 8) | kApplianceOctet;
}

FR_HOT int Topology::spine_length_keyed(int spine_base, std::uint64_t key_id,
                                        std::int64_t epoch) const noexcept {
  int length = spine_base;
  const std::uint64_t key =
      util::hash_combine(key_id, static_cast<std::uint64_t>(epoch));
  if (util::stable_chance(seed_dyn_, key, params_.route_dynamics_prob)) {
    const bool up = (util::hash_combine(seed_dyn_, key) & 1) != 0;
    length += up ? 1 : -1;
  }
  // Upper bound is the fixed Stub::spine_ips capacity.
  return std::clamp(length, 0, 4);
}

FR_HOT int Topology::spine_length(std::uint32_t stub_id,
                           std::int64_t epoch) const noexcept {
  // Legacy dynamics key: the stub index itself.  kSuccinct keys by the
  // block start instead (templates are shared) — see resolve().
  return spine_length_keyed(stubs_[stub_id].spine_base, stub_id, epoch);
}

FR_HOT std::uint8_t Topology::internal_octet(std::uint32_t prefix_index,
                                      int level) const noexcept {
  const std::uint64_t key =
      util::hash_combine(prefix_index, static_cast<std::uint64_t>(level));
  return static_cast<std::uint8_t>(
      2 + util::stable_bounded(seed_internal_, key, 253));
}

FR_HOT bool Topology::stub_is_responsive(std::uint32_t prefix_index) const noexcept {
  if (prefix_index < params_.first_prefix ||
      prefix_index > params_.last_prefix()) {
    return false;
  }
  const std::uint32_t offset = prefix_index - params_.first_prefix;
  if (params_.topology_mode == TopologyMode::kMaterialized) {
    const std::int32_t entry = prefix_map_[offset];
    if (entry < 0) return false;
    return util::stable_chance(util::hash_combine(seed_host_, 0x636c7573),
                               static_cast<std::uint64_t>(entry),
                               params_.stub_responsive_prob);
  }
  // kSuccinct: responsiveness belongs to the advertised block, not the
  // shared template, so key on the block start.
  const SuccinctEntry e = derive_entry(offset);
  if (!e.routed) return false;
  return util::stable_chance(util::hash_combine(seed_host_, 0x636c7573),
                             static_cast<std::uint64_t>(e.block_key),
                             params_.stub_responsive_prob);
}

FR_HOT bool Topology::host_exists(net::Ipv4Address address) const noexcept {
  const std::uint32_t prefix = net::prefix24_index(address);
  if (!prefix_routed(prefix)) return false;
  if ((address.value() & 0xFF) == kApplianceOctet) return true;
  const double exist_prob = stub_is_responsive(prefix)
                                ? params_.host_exist_prob_responsive
                                : params_.host_exist_prob_quiet;
  return util::stable_chance(seed_host_, address.value(), exist_prob);
}

FR_HOT bool Topology::host_responds(net::Ipv4Address address,
                             std::uint8_t protocol) const noexcept {
  if (!host_exists(address)) return false;
  return host_responds_delivered(address, protocol);
}

FR_HOT bool Topology::host_exists_routed(net::Ipv4Address address,
                                         std::uint64_t dyn_key) const noexcept {
  const bool responsive =
      util::stable_chance(util::hash_combine(seed_host_, 0x636c7573), dyn_key,
                          params_.stub_responsive_prob);
  const double exist_prob = responsive ? params_.host_exist_prob_responsive
                                       : params_.host_exist_prob_quiet;
  return util::stable_chance(seed_host_, address.value(), exist_prob);
}

FR_HOT bool Topology::host_responds_delivered(
    net::Ipv4Address address, std::uint8_t protocol) const noexcept {
  const bool is_appliance = (address.value() & 0xFF) == kApplianceOctet;
  if (protocol == net::kProtoTcp) {
    const double p = is_appliance ? params_.appliance_tcp_response_prob
                                  : params_.host_tcp_response_prob;
    return util::stable_chance(seed_tcp_, address.value(), p);
  }
  const double p = is_appliance ? params_.appliance_udp_response_prob
                                : params_.host_udp_response_prob;
  return util::stable_chance(seed_udp_, address.value(), p);
}

FR_HOT bool Topology::interface_responds(std::uint32_t interface_ip,
                                  std::uint8_t protocol) const noexcept {
  // Outside the pool the offset wraps past the bitmap: never forced silent.
  const std::uint32_t offset = interface_ip - params_.interface_pool_base;
  if (offset / 64 < forced_silent_.size() &&
      ((forced_silent_[offset / 64] >> (offset % 64)) & 1) != 0) {
    return false;
  }
  if (util::stable_chance(seed_silent_, interface_ip,
                          params_.interface_silent_prob)) {
    return false;
  }
  if (protocol == net::kProtoTcp &&
      util::stable_chance(seed_silent_tcp_, interface_ip,
                          params_.interface_tcp_extra_silent_prob)) {
    return false;
  }
  return true;
}

FR_HOT bool Topology::resolve(net::Ipv4Address destination, std::uint64_t flow,
                       std::int64_t epoch, Route& route) const noexcept {
  if (!in_universe(destination)) return false;
  const std::uint32_t prefix = net::prefix24_index(destination);
  const std::uint32_t offset = prefix - params_.first_prefix;
  route.reset();

  // Owner extraction: which path template serves this prefix, whether the
  // block is routed or dark, and the dynamics key.  kMaterialized reads the
  // per-prefix tables (legacy, bit-identical); kSuccinct derives the same
  // shape from (offset, seeds) with zero per-prefix storage.
  const Stub* stub_ptr;
  bool routed;
  std::uint8_t drop_back = 0;
  bool dark_loop = false;
  std::uint64_t dyn_key = 0;
  if (params_.topology_mode == TopologyMode::kMaterialized) {
    const std::int32_t entry = prefix_map_[offset];
    if (entry <= -2) {
      const DarkBlock& dark =
          dark_blocks_[static_cast<std::size_t>(-entry - 2)];
      stub_ptr = &stubs_[dark.provider_stub];
      routed = false;
      drop_back = dark.drop_back;
      dark_loop = dark.loop;
    } else {
      stub_ptr = &stubs_[static_cast<std::size_t>(entry)];
      routed = true;
      dyn_key = static_cast<std::uint64_t>(entry);
    }
  } else {
    const SuccinctEntry e = derive_entry(offset);
    stub_ptr = &stubs_[e.stub];
    routed = e.routed;
    drop_back = e.drop_back;
    dark_loop = e.dark_loop;
    dyn_key = e.block_key;
  }

  // The route is a descriptor (see Route): the template and spine stay in
  // the stub, and only the per-destination tail is copied.  Every segment
  // is capped so num_hops never passes Route::kMaxHops.
  const Stub& stub = *stub_ptr;
  const int full = static_cast<int>(stub.path.size());
  const auto follow_path = [&](int limit) {
    route.path = stub.path.data();
    route.flow = flow;
    route.path_len =
        static_cast<std::uint8_t>(std::min({limit, full, Route::kMaxHops}));
    route.spine_end = route.path_len;
    route.num_hops = route.path_len;
  };
  const auto follow_spine = [&] {
    const int spine = spine_length_keyed(stub.spine_base, dyn_key, epoch);
    route.spine = stub.spine_ips.data();
    route.spine_end = static_cast<std::uint8_t>(
        route.path_len + std::min(spine, Route::kMaxHops - route.path_len));
    route.num_hops = route.spine_end;
  };
  const auto append_tail = [&](std::uint32_t ip) {
    if (route.num_hops >= Route::kMaxHops) return;
    route.tail[route.tail_len++] = ip;
    ++route.num_hops;
  };

  if (!routed) {
    // Dark space: the path follows the provider of a nearby stub and dies
    // drop_back hops before that stub's gateway.
    follow_path(std::max(1, full - drop_back));
    route.loops = dark_loop && route.num_hops >= 2;
    return true;
  }

  follow_path(Route::kMaxHops);
  const int gateway_pos = route.num_hops;
  if (stub.mbox_reset != 0) {
    route.middlebox_pos = gateway_pos;
    route.middlebox_reset = stub.mbox_reset;
  }

  const std::uint32_t appliance = appliance_address(prefix);
  const std::uint8_t host_octet =
      static_cast<std::uint8_t>(destination.value() & 0xFF);

  if (stub.rewrite) {
    // A NAT-ish middlebox at the gateway rewrites every inbound destination
    // to the segment appliance (§5.3).
    follow_spine();
    route.delivers = true;
    route.delivered_address = appliance;
    route.rewritten = destination.value() != appliance;
    return true;
  }

  if (host_octet != kApplianceOctet &&
      !host_exists_routed(destination, dyn_key)) {
    // Unassigned address in a routed prefix.
    if (util::stable_chance(util::hash_combine(seed_loop_, 0x6c616e),
                            destination.value(),
                            params_.unassigned_reach_appliance_prob)) {
      // The appliance forwards onto the dead LAN: the probe dies one hop
      // beyond it, so the route to an unassigned random target measures
      // *longer* than the route to the prefix's appliance (§5.1).
      follow_spine();
      append_tail(appliance);
      return true;
    }
    // Otherwise the gateway ingress-filters it, unless the stub
    // default-routes it back to the provider (§5.1).
    route.loops = route.num_hops >= 2 &&
                  util::stable_chance(seed_loop_, destination.value(),
                                      params_.dark_loop_prob);
    return true;
  }

  follow_spine();
  if (host_octet == kApplianceOctet) {
    // The appliance itself is the destination: the route ends at the
    // segment entrance — the hitlist bias in action (§5.1).
    route.delivers = true;
    route.delivered_address = destination.value();
    return true;
  }

  // Assigned host 0..max_host_depth hops behind the appliance.
  append_tail(appliance);
  const auto depth_draw = static_cast<int>(
      util::stable_bounded(seed_depth_, destination.value(), 100));
  int depth = 3;
  if (depth_draw < params_.host_depth_cum_pct_0) {
    depth = 0;
  } else if (depth_draw < params_.host_depth_cum_pct_1) {
    depth = 1;
  } else if (depth_draw < params_.host_depth_cum_pct_2) {
    depth = 2;
  }
  depth = std::min(depth, params_.max_host_depth);
  for (int level = 1; level <= depth; ++level) {
    append_tail((prefix << 8) | internal_octet(prefix, level));
  }
  route.delivers = true;
  route.delivered_address = destination.value();
  return true;
}

std::optional<int> Topology::trigger_ttl(net::Ipv4Address destination,
                                         std::uint64_t flow,
                                         std::int64_t epoch) const noexcept {
  Route route;
  if (!resolve(destination, flow, epoch, route) || !route.delivers) {
    return std::nullopt;
  }
  return route.num_hops + 1;
}

std::vector<std::uint32_t> Topology::generate_hitlist() const {
  const std::uint32_t num_prefixes = params_.num_prefixes();
  std::vector<std::uint32_t> hitlist(num_prefixes, 0);
  for (std::uint32_t i = 0; i < num_prefixes; ++i) {
    const std::uint32_t prefix = params_.first_prefix + i;
    if (!prefix_routed(prefix)) continue;  // census skips dark space
    const double present_prob = stub_is_responsive(prefix)
                                    ? params_.hitlist_present_responsive
                                    : params_.hitlist_present_quiet;
    if (!util::stable_chance(seed_hitlist_, prefix, present_prob)) {
      continue;
    }
    if (util::stable_chance(util::hash_combine(seed_hitlist_, 1), prefix,
                            params_.hitlist_is_appliance_prob)) {
      hitlist[i] = appliance_address(prefix);
      continue;
    }
    // Census found a responsive interior host: pick the first assigned
    // responsive candidate among a few deterministic octets.
    std::uint32_t chosen = appliance_address(prefix);
    for (int attempt = 0; attempt < 8; ++attempt) {
      const std::uint8_t octet = static_cast<std::uint8_t>(
          2 + util::stable_bounded(util::hash_combine(seed_hitlist_, 2),
                                   util::hash_combine(prefix, attempt), 253));
      const net::Ipv4Address candidate((prefix << 8) | octet);
      if (host_exists(candidate) &&
          host_responds(candidate, net::kProtoUdp)) {
        chosen = candidate.value();
        break;
      }
    }
    hitlist[i] = chosen;
  }
  return hitlist;
}

}  // namespace flashroute::sim
