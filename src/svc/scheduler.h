// Multi-tenant scan-job scheduler (DESIGN.md §12).
//
// Pure decision logic, deliberately unsynchronized and wall-clock-free:
// every method takes an explicit `now`, so the daemon drives it with
// monotonic time under its own lock while the unit tests drive it with
// virtual time single-threaded — the same property that makes the sim
// engines testable makes the scheduler's decisions replayable.
//
// Because synchronization is external, the capability annotations live at
// the owner: `Daemon::scheduler_` is FR_GUARDED_BY(Daemon::mutex_), so the
// clang thread-safety build (DESIGN.md §13) rejects any daemon code path
// that consults the scheduler without that lock.  Single-threaded owners
// (tests, benches) need no lock and no annotation.
//
// Model:
//  * Admission — a submission is rejected (machine-readable reason) when
//    its spec is invalid, its rate alone exceeds the global pps budget,
//    the bounded queue of waiting jobs is full, or the daemon is draining.
//  * Dispatch — a free worker acquires the best runnable job: one whose
//    rate fits the unreserved share of the global budget and whose
//    token-bucket balance is in credit (when metering is on).  Order:
//    priority desc, fair-share progress (probes / weight) asc, id asc.
//  * Preemption — a running job consults the scheduler at every checkpoint
//    barrier of its spec (the only instants a scan can stop and resume
//    byte-identically).  It yields when the daemon is draining, when its
//    budget is in debt and a peer is waiting, when a higher-priority job
//    waits, or when an equal-priority peer has fallen behind in fair-share
//    progress — producing round-robin slicing at barrier granularity.
//  * Budgets — each job owns a util::TokenBucket charged with the probes
//    of each slice.  rate_multiplier scales the refill from the job's
//    nominal (virtual) pps to wall dispatch credit; 0 disables metering
//    (the right setting for virtual-time jobs, which execute probes far
//    faster than their nominal virtual rate), leaving fair-share ordering
//    in charge.  Metering is work-conserving: a job in debt keeps its
//    worker while no peer is waiting.
//
// The scheduler-tick and budget-accounting paths are FR_HOT: a daemon
// saturated with jobs calls them at every barrier of every running scan.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "svc/job.h"
#include "util/annotations.h"
#include "util/clock.h"
#include "util/token_bucket.h"

namespace flashroute::svc {

struct SchedulerConfig {
  /// Aggregate probes-per-second the service may have running at once; a
  /// single spec asking for more is rejected outright.
  double global_pps_budget = 100'000.0;
  /// Worker slots jobs are multiplexed onto.
  int num_workers = 2;
  /// Bounded admission queue: jobs waiting to start (queued, not yet run).
  /// Preempted jobs do not count — they were admitted already.
  int max_queued = 8;
  /// Wall-credit multiplier for the per-job token buckets (see above).
  double rate_multiplier = 0.0;
};

/// What a running job must do at a checkpoint barrier.
enum class BarrierDecision : std::uint8_t {
  kContinue,  ///< keep scanning
  kPreempt,   ///< stop here; the job's next slice continues from here
  kCancel,    ///< stop here and discard the job
};

struct Submission {
  bool admitted = false;
  std::uint64_t job_id = 0;       ///< assigned even to rejected jobs
  std::string reason;             ///< machine-readable, empty when admitted
  std::string detail;             ///< human-readable elaboration
};

/// Read-only view of one job, for status/list queries and event context.
struct JobView {
  std::uint64_t id = 0;
  JobState state = JobState::kQueued;
  std::string name;
  int priority = 0;
  double probes_per_second = 0.0;
  std::uint64_t probes = 0;
  std::uint64_t slices = 0;
  /// Set while the job is preempted: it resumes where it stopped.
  bool has_checkpoint = false;
  std::string detail;
};

enum class CancelOutcome : std::uint8_t {
  kNotFound,
  kAlreadyTerminal,
  kCancelled,   ///< was waiting; now terminal
  kSignalled,   ///< running; will stop at its next barrier
};

class Scheduler {
 public:
  explicit Scheduler(const SchedulerConfig& config);

  /// Admission control.  Every submission gets a job id; rejected ones are
  /// recorded in the kRejected terminal state so status queries answer.
  Submission submit(const JobSpec& spec, util::Nanos now);

  /// Recovery (DESIGN.md §14): recreates a journaled job at boot.  Must be
  /// called in job-id order before any submit(), because ids are assigned
  /// positionally.  A job is never restored as kRunning — an interrupted
  /// slice re-enters as kPreempted (its runner resumes from the recovered
  /// checkpoint) or kQueued (rerun from scratch; determinism makes the
  /// output identical), so the running-slot counters stay untouched.
  /// Returns the assigned id.
  std::uint64_t restore(const JobSpec& spec, JobState state,
                        std::uint64_t probes, std::uint64_t slices,
                        std::string detail, util::Nanos now);

  /// A free worker asks for work; marks the winner running.  nullopt when
  /// nothing is dispatchable.
  std::optional<std::uint64_t> acquire(util::Nanos now);

  /// Decision point at a checkpoint barrier of a running job.
  /// `probes_total` is the scan's cumulative probe count at the barrier;
  /// the delta since the last barrier is charged to the job's budget.
  BarrierDecision on_barrier(std::uint64_t job_id, std::uint64_t probes_total,
                             util::Nanos now);

  // Slice outcomes (the job must be running).  A preempted job's paused
  // engine stays with its runner, not here.
  /// Parks a job paused at a barrier as kPreempted, or, when a cancel
  /// arrived after the barrier's verdict, retires it as kCancelled: the
  /// state it leaves the job in, which the caller must act on.
  JobState release_preempted(std::uint64_t job_id);
  void release_completed(std::uint64_t job_id, std::uint64_t probes_total,
                         util::Nanos now);
  void release_failed(std::uint64_t job_id, std::string detail);
  void release_cancelled(std::uint64_t job_id);

  /// Requests cancellation; see CancelOutcome.
  CancelOutcome cancel(std::uint64_t job_id);

  /// Stops admitting and dispatching; running jobs are told to preempt at
  /// their next barrier.
  void drain();
  bool draining() const noexcept { return draining_; }

  /// True when some waiting job could be dispatched right now.
  bool has_dispatchable(util::Nanos now);

  /// True when every job has reached a terminal state: none is waiting
  /// or running.
  bool idle() const;

  int queue_depth() const;
  int running_count() const noexcept { return running_count_; }
  double running_pps() const noexcept { return running_pps_; }

  std::optional<JobView> view(std::uint64_t job_id) const;
  std::vector<JobView> views() const;

 private:
  struct Entry {
    std::uint64_t id = 0;
    JobSpec spec;
    JobState state = JobState::kQueued;
    util::TokenBucket bucket;
    bool metered = false;
    bool cancel_requested = false;
    std::uint64_t probes = 0;  ///< cumulative, updated at barriers
    std::uint64_t slices = 0;
    std::string detail;

    Entry(std::uint64_t id_in, JobSpec spec_in, util::TokenBucket bucket_in)
        : id(id_in), spec(std::move(spec_in)), bucket(bucket_in) {}

    FR_HOT bool waiting() const noexcept {
      return state == JobState::kQueued || state == JobState::kPreempted;
    }
    FR_HOT double progress() const noexcept {
      return static_cast<double>(probes) / spec.weight;
    }
  };

  Entry* find(std::uint64_t job_id);
  const Entry* find(std::uint64_t job_id) const;
  static JobView view_of(const Entry& entry);
  void release_running(Entry& entry);
  /// Moves a job into a terminal state and off the live list.
  void retire(Entry& entry, JobState terminal);

  /// Scheduler tick: the best dispatchable waiter, null when none.
  /// `yielding` (nullable) is a running job assumed to give up its slot —
  /// its rate is returned to the budget and it never competes.
  FR_HOT Entry* pick(util::Nanos now, const Entry* yielding) noexcept;
  /// Budget accounting: does `entry`'s rate fit beside `reserved_pps`, and
  /// is its bucket in credit (when metered)?
  FR_HOT bool dispatchable(Entry& entry, double reserved_pps,
                           util::Nanos now) noexcept;
  FR_HOT static bool wins(const Entry& a, const Entry& b) noexcept;

  SchedulerConfig config_;
  std::vector<Entry> jobs_;  ///< job id i lives at index i - 1
  /// Ids of the jobs not yet terminal, ascending: what every scheduler
  /// tick walks, so its cost follows the live jobs, not the history.
  std::vector<std::uint64_t> live_;
  double running_pps_ = 0.0;
  int running_count_ = 0;
  bool draining_ = false;
};

}  // namespace flashroute::svc
