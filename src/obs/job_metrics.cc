#include "obs/job_metrics.h"

namespace flashroute::obs {

JobMetricIds register_job_metrics(MetricsRegistry& registry) {
  JobMetricIds ids;
  ids.jobs_submitted = registry.add_counter("svc.jobs_submitted");
  ids.jobs_admitted = registry.add_counter("svc.jobs_admitted");
  ids.jobs_rejected = registry.add_counter("svc.jobs_rejected");
  ids.jobs_preempted = registry.add_counter("svc.jobs_preempted");
  ids.jobs_resumed = registry.add_counter("svc.jobs_resumed");
  ids.jobs_completed = registry.add_counter("svc.jobs_completed");
  ids.jobs_failed = registry.add_counter("svc.jobs_failed");
  ids.jobs_cancelled = registry.add_counter("svc.jobs_cancelled");
  ids.jobs_recovered = registry.add_counter("svc.jobs_recovered");
  ids.journal_corrupt_bytes = registry.add_counter("svc.journal_corrupt_bytes");
  ids.archive_corrupt_bytes = registry.add_counter("svc.archive_corrupt_bytes");
  ids.slices_dispatched = registry.add_counter("svc.slices_dispatched");
  ids.probes_executed = registry.add_counter("svc.probes_executed");
  return ids;
}

}  // namespace flashroute::obs
