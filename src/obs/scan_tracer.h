// ScanTracer: records WHEN things happened — phase transitions
// (preprobing → main rounds → extra scans) and per-interval counter deltas
// — against the util::Clock abstraction, so under SimClock every capture
// lands on a deterministic virtual-time tick and two same-seed scans emit
// byte-identical streams (DESIGN.md §7).
//
// Each lane (shard) has its own private LaneState, padded and touched only
// by that shard's thread; the engine calls tick(lane, now) from its probe
// loop, which is one integer compare in the common no-capture case.
// Captured intervals are buffered in-lane and only read back after the
// scan by SnapshotExporter — no cross-thread traffic during the run.

#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/annotations.h"
#include "util/clock.h"

namespace flashroute::obs {

/// The scan phases the engines report.  Values are stable (exported).
enum class ScanPhase : std::uint8_t {
  kInit = 0,       // before the first probe
  kPreprobe = 1,   // hop-distance preprobing (FlashRoute §3.2)
  kMain = 2,       // main backward/forward rounds
  kExtra = 3,      // discovery-optimized extra scans (§5.2)
  kDone = 4,       // scan finished
};

const char* phase_name(ScanPhase phase) noexcept;

/// One captured interval: counter deltas + lane gauges over [t_begin, t).
struct TraceInterval {
  util::Nanos t = 0;  // virtual end-of-interval timestamp
  ScanPhase phase = ScanPhase::kInit;
  std::vector<std::uint64_t> deltas;                   // per counter id
  std::vector<std::pair<std::string, double>> gauges;  // lane gauges
};

/// One phase transition.
struct TraceTransition {
  util::Nanos t = 0;
  ScanPhase phase = ScanPhase::kInit;
};

class ScanTracer {
 public:
  /// `interval` is the snapshot cadence in virtual nanoseconds; <= 0
  /// disables interval capture (transitions are still recorded).
  ScanTracer(MetricsRegistry& registry, util::Nanos interval);

  /// Marks a phase transition on a lane, capturing the interval that the
  /// outgoing phase was accumulating.  The first call on a lane anchors
  /// its tick grid at `now`.
  void begin_phase(int lane, ScanPhase phase, util::Nanos now);

  /// Hot-loop hook: captures an interval when `now` crossed the lane's
  /// next tick.  One compare + branch when it hasn't.
  FR_HOT void tick(int lane, util::Nanos now) {
    auto& st = *lanes_[static_cast<std::size_t>(lane)];
    if (interval_ <= 0 || now < st.next_tick) return;
    // fr-lint: allow(hot-call): interval capture runs only at tick-grid
    // boundaries (at most once per metrics interval), never per probe.
    capture(lane, st, now);
    // Advance past `now` on the fixed grid so a long stall emits one
    // catch-up interval, not a burst of empty ones.
    st.next_tick += ((now - st.next_tick) / interval_ + 1) * interval_;
  }

  /// True when tick(lane, now) would capture an interval.
  FR_HOT bool due(int lane, util::Nanos now) const {
    return interval_ > 0 &&
           now >= lanes_[static_cast<std::size_t>(lane)]->next_tick;
  }

  /// Final capture + kDone transition for a lane.
  void finish(int lane, util::Nanos now);

  int num_lanes() const noexcept { return static_cast<int>(lanes_.size()); }
  util::Nanos interval() const noexcept { return interval_; }

  const std::vector<TraceInterval>& intervals(int lane) const {
    return lanes_[static_cast<std::size_t>(lane)]->intervals;
  }
  const std::vector<TraceTransition>& transitions(int lane) const {
    return lanes_[static_cast<std::size_t>(lane)]->transitions;
  }

 private:
  // Heap-allocated per lane so neighbouring lanes' mutable state (cursor
  // counters, next_tick) never shares a cache line.
  struct alignas(64) LaneState {
    MetricsLane metrics;
    ScanPhase phase = ScanPhase::kInit;
    bool started = false;
    util::Nanos interval_begin = 0;
    // Max-initialised so tick() is inert until begin_phase anchors the grid.
    util::Nanos next_tick = std::numeric_limits<util::Nanos>::max();
    std::vector<std::uint64_t> last;  // counter values at last capture
    std::vector<TraceInterval> intervals;
    std::vector<TraceTransition> transitions;
  };

  void capture(int lane, LaneState& st, util::Nanos now);

  MetricsRegistry& registry_;
  util::Nanos interval_;
  std::vector<std::unique_ptr<LaneState>> lanes_;
};

}  // namespace flashroute::obs
