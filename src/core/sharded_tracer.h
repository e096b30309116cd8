// Sharded multi-core scan engine.
//
// The paper's headline result is throughput: sending and receiving are
// decoupled and per-response work is O(1) (§3.2, §3.4), so the scan rate is
// limited by how fast probes can be generated and responses absorbed.  One
// Tracer on one core caps that rate; randomized probing is embarrassingly
// parallel across the target space (Yarrp, IMC '17), so this engine
// partitions the /24 range into contiguous *logical shards*, each a
// self-contained sub-scan with its own DCB ring, permutation stream, and
// slice of the global probing-rate budget, and drives them with N worker
// threads.
//
// Determinism: the shard decomposition depends only on the configuration
// (shard_prefix_bits), never on the worker count.  Each shard's permutation
// and RNG stream derive from (scan seed, shard index), each shard keeps its
// own Doubletree stop set, and per-shard results are merged in shard-index
// order — so the merged ScanResult (routes, distances, probe counts) is
// bit-identical for any number of workers given the same seed.  Only the
// scan_time/preprobe_time fields reflect the actual parallel makespan and
// vary with the worker count.
//
// The trade-off versus a single global Tracer: backward-probing convergence
// stops (§3.2's Doubletree redundancy elimination) only see interfaces
// discovered within the same shard, so a sharded scan sends somewhat more
// probes near shard boundaries.  That is the price of order-independence;
// the paper's own tool pays a similar price across its independent vantage
// points.

#pragma once

#include <cstdint>
#include <vector>

#include "core/result.h"
#include "core/runtime.h"
#include "core/tracer.h"

namespace flashroute::core {

/// One logical shard of a sharded scan: a contiguous run of /24 prefixes
/// processed start-to-finish by exactly one worker thread.
struct ShardInfo {
  int index = 0;   ///< shard id — seeds the shard's permutation/RNG stream
  int worker = 0;  ///< worker thread that owns the shard
  std::uint32_t first_prefix = 0;  ///< absolute first /24 index of the shard
  std::uint32_t num_prefixes = 0;  ///< always a power of two
  /// The shard's fair slice of the global budget (global pps / shard count).
  /// Worker-count independent, so virtual-time runtimes pacing by this value
  /// stay deterministic.  Real-time runtimes may instead pace per *worker*
  /// at the sum of its shards' slices — only one shard per worker is active
  /// at a time, so the global budget still holds.
  double probes_per_second = 0.0;
};

/// Supplies the ScanRuntime each shard's sub-scan executes against.
/// `runtime_for` is called from worker threads, concurrently for shards
/// owned by different workers; implementations preallocate per-shard (or
/// per-worker) runtimes up front so the call itself stays lock-free.
class ShardRuntimeProvider {
 public:
  virtual ~ShardRuntimeProvider() = default;
  virtual ScanRuntime& runtime_for(const ShardInfo& shard) = 0;
};

struct ShardedTracerConfig {
  /// The full-range scan configuration (first_prefix/prefix_bits span the
  /// whole scan; per-shard sub-configurations are derived from it).  A
  /// sharded scan does not checkpoint: base.checkpoint_sink is never
  /// called, and only an unsharded Tracer checkpoints (DESIGN.md §9).
  TracerConfig base;

  /// Worker threads.  Clamped to the shard count; 1 runs the same shard
  /// sequence sequentially and produces the identical merged result.
  int num_workers = 1;

  /// Each logical shard spans 2^min(shard_prefix_bits, base.prefix_bits)
  /// /24s.  This — not num_workers — fixes the decomposition, which is what
  /// makes results invariant under the worker count.
  int shard_prefix_bits = 10;

  int num_shards() const noexcept {
    const int bits = shard_prefix_bits < base.prefix_bits
                         ? base.prefix_bits - shard_prefix_bits
                         : 0;
    return 1 << bits;
  }
};

class ShardedTracer {
 public:
  ShardedTracer(const ShardedTracerConfig& config,
                ShardRuntimeProvider& provider);

  /// Runs all shards to completion across the configured workers and returns
  /// the deterministically merged result.
  [[nodiscard]] ScanResult run();

  /// Same per-/24 target the sub-scans probe (global target_seed keyed by
  /// absolute prefix, so identical for every decomposition).
  std::uint32_t target_of(std::uint32_t prefix_offset) const noexcept;

  /// The shard decomposition and worker assignment for a configuration —
  /// shard i covers a contiguous range, worker w owns the contiguous shard
  /// run [w*L/N, (w+1)*L/N).  Runtime providers use this to preallocate.
  static std::vector<ShardInfo> plan(const ShardedTracerConfig& config);

 private:
  TracerConfig shard_config(const ShardInfo& shard) const;

  ShardedTracerConfig config_;
  ShardRuntimeProvider& provider_;
  /// Per-shard slices of the global hitlist / target-override tables, built
  /// before the workers start so shard configs can point into them.
  std::vector<std::vector<std::uint32_t>> shard_hitlists_;
  std::vector<std::vector<std::uint32_t>> shard_targets_;
};

/// Merges per-shard results in shard order: per-prefix vectors concatenate,
/// counters sum, interface sets union.  scan_time/preprobe_time become the
/// parallel makespan (max over workers of the worker's serial time).
ScanResult merge_shard_results(std::vector<ScanResult>&& shard_results,
                               const std::vector<ShardInfo>& shards,
                               bool collect_routes, int num_workers);

}  // namespace flashroute::core
