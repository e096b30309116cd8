#include "core/sharded_tracer.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "core/targets.h"
#include "util/rng.h"

namespace flashroute::core {

namespace {

/// Domain tag mixed into every shard's seed so shard streams are unrelated
/// to each other and to the unsharded scan's stream.
constexpr std::uint64_t kShardSeedTag = 0x73686472;  // "shdr"

int log2_exact(std::uint32_t power_of_two) noexcept {
  int bits = 0;
  while ((std::uint32_t{1} << bits) < power_of_two) ++bits;
  return bits;
}

}  // namespace

std::vector<ShardInfo> ShardedTracer::plan(const ShardedTracerConfig& config) {
  const int num_shards = config.num_shards();
  const std::uint32_t shard_size =
      config.base.num_prefixes() / static_cast<std::uint32_t>(num_shards);
  const int workers =
      std::clamp(config.num_workers, 1, num_shards);

  std::vector<ShardInfo> shards(static_cast<std::size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    ShardInfo& shard = shards[static_cast<std::size_t>(i)];
    shard.index = i;
    // Contiguous balanced assignment: worker w owns every shard i with
    // i*N/L == w, a run of floor-or-ceil(L/N) consecutive shards.
    shard.worker = static_cast<int>(static_cast<std::int64_t>(i) * workers /
                                    num_shards);
    shard.first_prefix =
        config.base.first_prefix + static_cast<std::uint32_t>(i) * shard_size;
    shard.num_prefixes = shard_size;
    shard.probes_per_second =
        config.base.probes_per_second / static_cast<double>(num_shards);
  }
  return shards;
}

ShardedTracer::ShardedTracer(const ShardedTracerConfig& config,
                             ShardRuntimeProvider& provider)
    : config_(config), provider_(provider) {}

std::uint32_t ShardedTracer::target_of(
    std::uint32_t prefix_offset) const noexcept {
  const TracerConfig& base = config_.base;
  return core::target_of(base.target_override, base.target_seed,
                         base.first_prefix, prefix_offset);
}

TracerConfig ShardedTracer::shard_config(const ShardInfo& shard) const {
  TracerConfig cfg = config_.base;
  cfg.first_prefix = shard.first_prefix;
  cfg.prefix_bits = log2_exact(shard.num_prefixes);
  // Per-shard permutation/RNG stream (the determinism anchor): derived from
  // the scan seed and the shard id, never from the worker layout.
  cfg.seed = util::hash_combine(config_.base.seed, kShardSeedTag,
                                static_cast<std::uint64_t>(shard.index));
  // target_seed stays global — targets are keyed by absolute prefix, so the
  // probed addresses are identical for every decomposition.
  cfg.probes_per_second = shard.probes_per_second;
  const std::size_t i = static_cast<std::size_t>(shard.index);
  cfg.hitlist = shard_hitlists_.empty() ? nullptr : &shard_hitlists_[i];
  cfg.target_override =
      shard_targets_.empty() ? nullptr : &shard_targets_[i];
  // Telemetry: shard i writes metric lane i — single writer per lane (a
  // shard runs start-to-finish on one worker), cache-line-isolated from its
  // neighbours, merged only at snapshot time.  The base config's registry /
  // tracer must have been frozen for num_shards() lanes.
  if (cfg.telemetry.registry != nullptr) {
    cfg.telemetry.lane = cfg.telemetry.registry->lane(shard.index);
    cfg.telemetry.lane_id = shard.index;
  }
  // A sharded scan does not checkpoint: a sink copied into every shard
  // would run on several workers at once with no shard tag.
  cfg.checkpoint_sink = nullptr;
  return cfg;
}

ScanResult ShardedTracer::run() {
  const std::vector<ShardInfo> shards = plan(config_);
  const int workers = shards.empty() ? 1 : shards.back().worker + 1;

  // Slice the global per-prefix tables so each shard indexes from zero.
  const auto slice = [&](const std::vector<std::uint32_t>& table,
                         std::vector<std::vector<std::uint32_t>>& out) {
    out.resize(shards.size());
    for (const ShardInfo& shard : shards) {
      const std::uint32_t offset =
          shard.first_prefix - config_.base.first_prefix;
      auto& dst = out[static_cast<std::size_t>(shard.index)];
      dst.clear();
      for (std::uint32_t i = 0; i < shard.num_prefixes; ++i) {
        const std::size_t src = static_cast<std::size_t>(offset) + i;
        dst.push_back(src < table.size() ? table[src] : 0);
      }
    }
  };
  shard_hitlists_.clear();
  shard_targets_.clear();
  if (config_.base.hitlist != nullptr) slice(*config_.base.hitlist,
                                             shard_hitlists_);
  if (config_.base.target_override != nullptr)
    slice(*config_.base.target_override, shard_targets_);

  std::vector<ScanResult> results(shards.size());
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([this, w, &shards, &results] {
      for (const ShardInfo& shard : shards) {
        if (shard.worker != w) continue;
        // The Tracer — and with it the shard's DCB segment — is constructed
        // *inside* the owning worker, so first-touch places each segment on
        // the worker's NUMA node and ring walks stay node-local
        // (DESIGN.md §10).
        Tracer tracer(shard_config(shard), provider_.runtime_for(shard));
        results[static_cast<std::size_t>(shard.index)] = tracer.run();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  return merge_shard_results(std::move(results), shards,
                             config_.base.collect_routes, workers);
}

ScanResult merge_shard_results(std::vector<ScanResult>&& shard_results,
                               const std::vector<ShardInfo>& shards,
                               bool collect_routes, int num_workers) {
  ScanResult merged;
  std::uint32_t total_prefixes = 0;
  for (const ShardInfo& shard : shards) total_prefixes += shard.num_prefixes;
  if (collect_routes) merged.routes.reserve(total_prefixes);
  merged.destination_distance.reserve(total_prefixes);
  merged.trigger_ttl.reserve(total_prefixes);
  merged.measured_distance.reserve(total_prefixes);
  merged.predicted_distance.reserve(total_prefixes);

  std::vector<util::Nanos> worker_time(
      static_cast<std::size_t>(num_workers), 0);
  std::vector<util::Nanos> worker_preprobe_time(
      static_cast<std::size_t>(num_workers), 0);

  for (const ShardInfo& shard : shards) {
    ScanResult& r = shard_results[static_cast<std::size_t>(shard.index)];
    const auto append = [](auto& dst, auto& src) {
      dst.insert(dst.end(), std::make_move_iterator(src.begin()),
                 std::make_move_iterator(src.end()));
    };
    if (collect_routes) append(merged.routes, r.routes);
    append(merged.destination_distance, r.destination_distance);
    append(merged.trigger_ttl, r.trigger_ttl);
    append(merged.measured_distance, r.measured_distance);
    append(merged.predicted_distance, r.predicted_distance);
    append(merged.probe_log, r.probe_log);
    merged.interfaces.insert(r.interfaces.begin(), r.interfaces.end());

    merged.probes_sent += r.probes_sent;
    merged.preprobe_probes += r.preprobe_probes;
    merged.responses += r.responses;
    merged.mismatches += r.mismatches;
    merged.destinations_reached += r.destinations_reached;
    merged.distances_measured += r.distances_measured;
    merged.distances_predicted += r.distances_predicted;
    merged.convergence_stops += r.convergence_stops;
    merged.send_failures += r.send_failures;
    merged.retransmits += r.retransmits;
    merged.probe_timeouts += r.probe_timeouts;
    merged.rate_backoffs += r.rate_backoffs;

    worker_time[static_cast<std::size_t>(shard.worker)] += r.scan_time;
    worker_preprobe_time[static_cast<std::size_t>(shard.worker)] +=
        r.preprobe_time;
  }

  // Parallel makespan: workers run their shard sequences concurrently.
  merged.scan_time =
      *std::max_element(worker_time.begin(), worker_time.end());
  merged.preprobe_time = *std::max_element(worker_preprobe_time.begin(),
                                           worker_preprobe_time.end());
  return merged;
}

}  // namespace flashroute::core
