// Deterministic JSONL job-event stream (DESIGN.md §12).
//
// Every lifecycle transition of every job becomes one line:
//
//   {"type":"job_event","seq":3,"t_ns":120000000,"job":1,"event":"running",
//    "worker":0,"slice":1}
//
// and the stream ends with a single "job_summary" line carrying per-event
// counts, the drained / clean_shutdown flags, and the merged svc.* counters
// from the metrics registry.  scripts/check_metrics_schema.py --job-events
// validates the stream: seq strictly increasing from 1, t_ns monotone, the
// per-job state machine legal, and the summary counts equal to the observed
// event counts.
//
// The timestamp supplier is injected: the daemon passes monotonic
// nanoseconds since its start, the unit tests pass the scheduler's virtual
// clock — which makes the test streams byte-identical across runs (the
// determinism boundary of the service sits at the socket; everything inside
// it is replayable).

#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "util/annotations.h"
#include "util/sync.h"

namespace flashroute::svc {

/// One lifecycle event.  Unused optional fields are omitted from the JSON.
struct JobEvent {
  std::uint64_t job_id = 0;
  const char* event = "";    ///< submitted|admitted|rejected|running|
                             ///< preempted|resumed|completed|failed|cancelled
  std::string name;          ///< job label (submitted events)
  std::string reason;        ///< machine-readable (rejected events)
  std::string detail;        ///< human-readable elaboration
  std::uint64_t probes = 0;  ///< cumulative probes (progress events)
  std::uint64_t slice = 0;   ///< slice ordinal (running/resumed/preempted)
  int worker = -1;           ///< worker index, -1 = control plane
  bool has_priority = false;
  int priority = 0;
};

class JobEventLog {
 public:
  using NowFn = std::function<std::uint64_t()>;

  /// `out` may be null (events are still counted for the summary).  `now`
  /// supplies t_ns; it is sampled under the log's lock and clamped to be
  /// monotone.
  JobEventLog(std::ostream* out, NowFn now);

  void emit(const JobEvent& event) FR_EXCLUDES(mutex_);

  /// Writes the final "job_summary" line.  `counters` is the merged svc.*
  /// snapshot from the metrics registry, emitted name → value.
  void summary(bool drained, bool clean_shutdown,
               const std::vector<std::pair<std::string, std::uint64_t>>&
                   counters) FR_EXCLUDES(mutex_);

  std::uint64_t events_emitted() const FR_EXCLUDES(mutex_);

 private:
  // Immutable after construction: the sink pointer and the timestamp
  // supplier are set once and only ever read.
  // fr-lint: allow(guarded-member): set in the constructor, read-only after
  std::ostream* out_;
  // fr-lint: allow(guarded-member): set in the constructor, read-only after
  NowFn now_;
  mutable util::Mutex mutex_;
  std::uint64_t seq_ FR_GUARDED_BY(mutex_) = 0;
  std::uint64_t last_t_ FR_GUARDED_BY(mutex_) = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counts_
      FR_GUARDED_BY(mutex_);
};

}  // namespace flashroute::svc
