// Lock-free scan telemetry: a registry of named counters, log2-bucketed
// histograms and sampled gauges, laid out as cache-line-padded per-shard
// "lanes" so the probe/response hot path never contends (DESIGN.md §7).
//
// Concurrency contract
//   * Each lane has exactly ONE writer thread (the shard's scan loop).  A
//     writer bumps its own cells with relaxed atomic load+store — no RMW,
//     no fence, no sharing — so with a modern compiler the increment costs
//     the same as a plain `++` on private memory.
//   * Lanes are padded to 64-byte blocks: two shards never touch the same
//     cache line (no false sharing).
//   * snapshot() may run concurrently with the writers (the CLI's periodic
//     flush, a dashboard thread): it reads every cell with a relaxed atomic
//     load and merges lanes into plain uint64 sums.  Readers may observe a
//     slightly stale but always torn-free value; TSan is clean
//     (tests/obs_metrics_test.cc).
//   * Registration (add_counter/add_histogram) happens before freeze();
//     gauges may be registered any time before the first snapshot.
//   * There is deliberately no mutex anywhere in this subsystem, so the
//     capability annotations of DESIGN.md §13 have nothing to guard here;
//     the write/snapshot linearization claim is instead proven
//     interleaving-exhaustively by tests/model_metrics_test.cc (the
//     fr_model litmus harness) on top of the FR_SINGLE_WRITER lint rule.
//
// Runtime toggle: telemetry off means no MetricsLane is handed to the
// engine (a null pointer), so the hot path executes one predictable branch
// and *zero* extra atomic operations — nothing needs to be compiled out.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/annotations.h"
#include "util/stats.h"

namespace flashroute::obs {

/// Index of a registered counter / histogram, handed out by the registry.
using CounterId = std::uint32_t;
using HistogramId = std::uint32_t;

namespace detail {

/// One cache line of counter cells.  Lanes are built from whole blocks so
/// no two lanes share a line.
struct alignas(64) CellBlock {
  // fr-atomic: lane counter cells — single-writer relaxed store, relaxed
  // snapshot loads (MetricsLane is the FR_SINGLE_WRITER scope that writes).
  std::array<std::atomic<std::uint64_t>, 8> cells{};
};
static_assert(sizeof(CellBlock) == 64);

}  // namespace detail

/// A single shard's private view of the registry's cell slab.  Cheap to
/// copy (two pointers); the engine stores a pointer to one and bumps it
/// from exactly one thread.
class FR_SINGLE_WRITER MetricsLane {
 public:
  MetricsLane() = default;

  /// A default-constructed lane is invalid; inc/record on it are UB (the
  /// ScanTelemetry wrapper checks before calling).
  FR_HOT bool valid() const noexcept { return blocks_ != nullptr; }

  /// Single-writer increment: relaxed load + relaxed store.  Deliberately
  /// NOT fetch_add — there is one writer per lane, so a read-modify-write
  /// (lock-prefixed on x86) would buy nothing and cost ~20 cycles.
  FR_HOT void inc(CounterId id, std::uint64_t delta = 1) const noexcept {
    auto& cell = cell_at(id);
    cell.store(cell.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
  }

  /// Records one sample into a log2-bucketed histogram.
  FR_HOT void record(HistogramId id, std::uint64_t value) const noexcept {
    auto& cell = cell_at(
        hist_base_ + id * util::Log2Histogram::kBuckets +
        static_cast<std::uint32_t>(util::Log2Histogram::bucket_of(value)));
    cell.store(cell.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  }

  /// Reads one counter cell (relaxed; used by ScanTracer delta capture,
  /// which runs on the lane's own writer thread).
  FR_HOT std::uint64_t counter(CounterId id) const noexcept {
    return cell_at(id).load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  MetricsLane(detail::CellBlock* blocks, std::uint32_t hist_base)
      : blocks_(blocks), hist_base_(hist_base) {}

  FR_HOT std::atomic<std::uint64_t>& cell_at(std::uint32_t index) const noexcept {
    return blocks_[index / 8].cells[index % 8];
  }

  detail::CellBlock* blocks_ = nullptr;
  std::uint32_t hist_base_ = 0;  // cell index where histogram cells start
};

/// A merged, plain-value view of every metric — what the exporter writes.
struct MetricsSnapshot {
  std::vector<std::string> counter_names;
  std::vector<std::uint64_t> counters;  // summed across lanes

  std::vector<std::string> histogram_names;
  std::vector<util::Log2Histogram> histograms;  // merged across lanes

  std::vector<std::string> gauge_names;
  std::vector<int> gauge_lanes;  // owning lane of each gauge
  std::vector<double> gauges;    // sampled at snapshot time
};

/// Owns the metric name table and the padded cell slab; hands out lanes.
///
/// Lifecycle: add_counter()/add_histogram() → freeze(num_lanes) →
/// lane(i) handed to each shard → writers run → snapshot() any time.
class MetricsRegistry {
 public:
  /// Registers a named counter; must be called before freeze().
  CounterId add_counter(std::string name);

  /// Registers a named log2 histogram; must be called before freeze().
  HistogramId add_histogram(std::string name);

  /// Registers a sampled gauge (e.g. response-pool occupancy) owned by a
  /// lane.  The callback is invoked on the snapshotting thread, so it must
  /// be safe to call concurrently with the scan (the sim counters it reads
  /// are plain uint64s written by the lane's own thread; snapshots taken
  /// mid-scan may be stale by a few probes, which is fine for a gauge).
  /// Allowed after freeze(), but not after the first snapshot.
  void add_gauge(std::string name, int lane, std::function<double()> sample);

  /// Allocates the cell slab for `num_lanes` single-writer lanes.
  void freeze(int num_lanes);

  bool frozen() const noexcept { return !blocks_.empty(); }
  int num_lanes() const noexcept { return num_lanes_; }
  std::size_t num_counters() const noexcept { return counter_names_.size(); }

  /// The lane for shard `index` (0-based).  Requires freeze().
  MetricsLane lane(int index);

  /// Merges every lane (relaxed loads) and samples every gauge.
  MetricsSnapshot snapshot() const;

  /// Samples just the gauges registered for one lane, in registration
  /// order.  Called by ScanTracer on the lane's own thread at interval
  /// ticks, so the values are deterministic under virtual time.
  std::vector<std::pair<std::string, double>> sample_lane_gauges(
      int lane) const;

  const std::vector<std::string>& counter_names() const noexcept {
    return counter_names_;
  }
  const std::vector<std::string>& histogram_names() const noexcept {
    return histogram_names_;
  }

 private:
  std::vector<std::string> counter_names_;
  std::vector<std::string> histogram_names_;

  struct Gauge {
    std::string name;
    int lane = 0;
    std::function<double()> sample;
  };
  std::vector<Gauge> gauges_;

  // One slab, lane-strided: lane i owns blocks [i*stride, (i+1)*stride).
  std::vector<detail::CellBlock> blocks_;
  std::uint32_t blocks_per_lane_ = 0;
  std::uint32_t hist_base_ = 0;
  int num_lanes_ = 0;
};

}  // namespace flashroute::obs
