// Scan jobs: the unit of work of the continuous-scanning service
// (DESIGN.md §12).
//
// A JobSpec is one sim-backed scan (svc/scan_spec.h's ScanSpec: universe,
// seeds, engine knobs, faults) plus the scheduling inputs (priority,
// fair-share weight).  The spec's rate is its admission input, and its
// checkpoint_interval doubles as the preemption granularity: the scheduler
// may only stop a job at the deterministic virtual-time checkpoint barriers
// the spec itself defines, which is what makes a preempted-then-resumed
// job's output byte-identical to its uncontended run (the equivalence
// contract of DESIGN.md §9: the quiesce at every barrier happens whether or
// not the job is preempted there).

#pragma once

#include <cstdint>
#include <string>

#include "svc/scan_spec.h"

namespace flashroute::svc {

/// Job lifecycle states.  Legal transitions (mirrored by the JSONL event
/// stream and validated by scripts/check_metrics_schema.py --job-events):
///
///   submitted → queued | rejected
///   queued    → running | cancelled
///   running   → preempted | completed | failed | cancelled
///   preempted → running | cancelled
///
/// rejected / completed / failed / cancelled are terminal.
enum class JobState : std::uint8_t {
  kQueued,
  kRunning,
  kPreempted,
  kCompleted,
  kFailed,
  kCancelled,
  kRejected,
};

inline const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kPreempted:
      return "preempted";
    case JobState::kCompleted:
      return "completed";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kRejected:
      return "rejected";
  }
  return "unknown";
}

inline bool job_state_terminal(JobState state) {
  return state == JobState::kCompleted || state == JobState::kFailed ||
         state == JobState::kCancelled || state == JobState::kRejected;
}

// Machine-readable admission-rejection reasons (carried verbatim on the
// wire and in the "rejected" job event).
inline constexpr char kRejectRateExceedsGlobalBudget[] =
    "rate_exceeds_global_budget";
inline constexpr char kRejectQueueFull[] = "queue_full";
inline constexpr char kRejectBadSpec[] = "bad_spec";
inline constexpr char kRejectDraining[] = "draining";

// Machine-readable failure reason set during daemon recovery when a job's
// on-disk checkpoint no longer matches its spec (svc/daemon.cc).  A
// replayed spec that validate_scan refuses fails with its detail instead.
inline constexpr char kFailRecoveryCheckpointMismatch[] =
    "recovery_checkpoint_mismatch";

/// One scan job: a ScanSpec plus the inputs that schedule it.  Every scan
/// field participates in the scan's determinism: two jobs with equal scan
/// fields produce byte-identical archive payloads no matter how the
/// scheduler slices them, at the checkpoint barriers the spec defines.
struct JobSpec : ScanSpec {
  std::string name;     ///< client label, echoed in events (not semantic)
  int priority = 0;     ///< higher dispatches first
  double weight = 1.0;  ///< fair-share weight within a priority class

  /// Optional client-supplied idempotency key.  A journaled daemon
  /// deduplicates submits by this key — across restarts — and replays the
  /// original reply, so clients can blindly retry after a crash without
  /// double-admitting.  Empty means "no deduplication".
  std::string request_key;
};

/// Validates a spec for admission; returns nullptr when acceptable, else a
/// short human-readable detail (the wire reason stays kRejectBadSpec).
/// validate_scan's verdict first, then frd's own policy: a universe of at
/// most 2^20 /24s, checkpoint barriers to preempt at, a positive weight,
/// and labels of at most 128 bytes.
inline const char* validate_spec(const JobSpec& spec) {
  if (const char* error = validate_scan(spec)) return error;
  if (spec.prefix_bits > 20) return "prefix_bits above frd's limit of 20";
  if (spec.checkpoint_interval <= 0) {
    return "checkpoint_interval must be positive (preemption granularity)";
  }
  if (!(spec.weight > 0.0)) return "weight must be positive";
  if (spec.name.size() > 128) return "name longer than 128 bytes";
  if (spec.request_key.size() > 128) {
    return "request_key longer than 128 bytes";
  }
  return nullptr;
}

}  // namespace flashroute::svc
