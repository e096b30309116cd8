// The standard metric set core::Tracer and core::ShardedTracer report, and
// ScanTelemetry — the nullable handle a TracerConfig carries into the
// engine.  The Yarrp and Scamper baselines report no telemetry: they hand
// their ProbeSender and ResponseRecorder a disabled handle.
//
// Telemetry is opt-in at runtime: a default ScanTelemetry has a null lane,
// enabled() is false, and every hook in the hot path reduces to one
// predictable branch — no atomics, no allocation, nothing compiled out.

#pragma once

#include "obs/metrics.h"
#include "util/annotations.h"
#include "obs/scan_tracer.h"
#include "util/clock.h"

namespace flashroute::obs {

/// Counter / histogram ids (registered once per registry by
/// register_scan_metrics).
struct ScanMetricIds {
  // Counters.
  CounterId probes_sent = 0;
  CounterId preprobe_probes = 0;
  CounterId responses = 0;
  CounterId mismatches = 0;
  CounterId destinations_reached = 0;
  CounterId interfaces_discovered = 0;
  CounterId convergence_stops = 0;

  // Resilience counters — registered only when register_scan_metrics is
  // asked for them (the summary snapshot emits every registered counter,
  // so unconditional registration would change existing telemetry bytes).
  // `resilience` says whether the ids below are live; it must be checked
  // before counting them because CounterId 0 is a valid id.
  bool resilience = false;
  CounterId retransmits = 0;
  CounterId send_failures = 0;
  CounterId probe_timeouts = 0;
  CounterId rate_backoffs = 0;
  CounterId checkpoints_written = 0;

  // Log2 histograms.
  HistogramId rtt_us = 0;        // response round-trip time, microseconds
  HistogramId hop_distance = 0;  // hop distance of each discovered interface
  HistogramId gap_run = 0;       // unresponsive-run length at gap-limit stops
};

/// Registers the standard scan metrics on a (not yet frozen) registry.
/// With `resilience`, also registers the retransmission / backoff /
/// checkpoint counter family (DESIGN.md §9).
ScanMetricIds register_scan_metrics(MetricsRegistry& registry,
                                    bool resilience = false);

/// The handle an engine carries: lane + tracer + ids.  Copyable, cheap,
/// and valid in its disabled (default) state — the lane is held by value
/// (two words), so a default ScanTelemetry is self-contained and every
/// hook below is one branch.  The registry/tracer outlive the scan (the
/// CLI / test owns them).
struct ScanTelemetry {
  MetricsRegistry* registry = nullptr;
  ScanTracer* tracer = nullptr;
  MetricsLane lane;  // invalid by default = telemetry off
  int lane_id = 0;
  ScanMetricIds ids;

  FR_HOT bool enabled() const noexcept { return lane.valid(); }

  FR_HOT void count(CounterId id, std::uint64_t delta = 1) const noexcept {
    if (lane.valid()) lane.inc(id, delta);
  }
  FR_HOT void sample(HistogramId id, std::uint64_t value) const noexcept {
    if (lane.valid()) lane.record(id, value);
  }
  void begin_phase(ScanPhase phase, util::Nanos now) const {
    if (tracer != nullptr) tracer->begin_phase(lane_id, phase, now);
  }
  FR_HOT void tick(util::Nanos now) const {
    if (tracer != nullptr) tracer->tick(lane_id, now);
  }
  void finish(util::Nanos now) const {
    if (tracer != nullptr) tracer->finish(lane_id, now);
  }
};

}  // namespace flashroute::obs
