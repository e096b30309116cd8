// Job-lifecycle counters for the scan-job service (src/svc/, DESIGN.md §12).
//
// The daemon's control thread and each worker own one single-writer metrics
// lane (the PR 3 discipline: relaxed load+store, no RMW, no sharing), so
// lifecycle accounting never contends with a running scan.  The counter
// family mirrors the job-event JSONL stream: the summary record embeds the
// merged snapshot, and scripts/check_metrics_schema.py --job-events
// cross-checks the two against each other.

#pragma once

#include "obs/metrics.h"

namespace flashroute::obs {

/// Counter ids for the svc.* family (registered once per registry by
/// register_job_metrics, before freeze()).
struct JobMetricIds {
  CounterId jobs_submitted = 0;
  CounterId jobs_admitted = 0;
  CounterId jobs_rejected = 0;
  CounterId jobs_preempted = 0;
  CounterId jobs_resumed = 0;
  CounterId jobs_completed = 0;
  CounterId jobs_failed = 0;
  CounterId jobs_cancelled = 0;
  /// Jobs rebuilt from the journal at daemon boot (DESIGN.md §14).
  CounterId jobs_recovered = 0;
  /// Damaged bytes the journal and the archive skipped mid-file when the
  /// daemon opened them (DESIGN.md §14.1): records lost to corruption.
  CounterId journal_corrupt_bytes = 0;
  CounterId archive_corrupt_bytes = 0;
  /// One per scheduler dispatch (first slice and every resume).
  CounterId slices_dispatched = 0;
  /// Probes executed across all jobs, accumulated at slice boundaries.
  CounterId probes_executed = 0;
};

/// Registers the svc.* counter family on a (not yet frozen) registry.
JobMetricIds register_job_metrics(MetricsRegistry& registry);

}  // namespace flashroute::obs
