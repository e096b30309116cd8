#include "svc/scheduler.h"

#include <algorithm>
#include <utility>

namespace flashroute::svc {

namespace {

// Tolerance for the budget comparison: admitting N jobs whose rates sum to
// exactly the global budget must not founder on floating-point dust.
constexpr double kBudgetEpsilon = 1e-6;

/// Token-bucket capacity, in seconds of the job's (scaled) rate.
constexpr double kBurstSeconds = 0.25;

util::TokenBucket make_bucket(const JobSpec& spec,
                              const SchedulerConfig& config, util::Nanos now) {
  const double rate = spec.probes_per_second > 0.0 ? spec.probes_per_second
                                                   : 1.0;  // rejected anyway
  const double scaled =
      rate * (config.rate_multiplier > 0.0 ? config.rate_multiplier : 1.0);
  const double burst = scaled * kBurstSeconds;
  return util::TokenBucket(scaled, burst < 1.0 ? 1.0 : burst, now);
}

}  // namespace

Scheduler::Scheduler(const SchedulerConfig& config) : config_(config) {}

Submission Scheduler::submit(const JobSpec& spec, util::Nanos now) {
  Submission submission;
  submission.job_id = jobs_.size() + 1;

  const char* reject = nullptr;
  const char* detail = nullptr;
  if (draining_) {
    reject = kRejectDraining;
    detail = "daemon is shutting down";
  } else if (const char* bad = validate_spec(spec); bad != nullptr) {
    reject = kRejectBadSpec;
    detail = bad;
  } else if (spec.probes_per_second >
             config_.global_pps_budget * (1.0 + kBudgetEpsilon)) {
    reject = kRejectRateExceedsGlobalBudget;
    detail = "spec rate alone exceeds the global pps budget";
  } else if (queue_depth() >= config_.max_queued) {
    reject = kRejectQueueFull;
    detail = "admission queue is full";
  }

  Entry entry(submission.job_id, spec, make_bucket(spec, config_, now));
  entry.metered = config_.rate_multiplier > 0.0;
  if (reject != nullptr) {
    entry.state = JobState::kRejected;
    entry.detail = detail;
    submission.admitted = false;
    submission.reason = reject;
    submission.detail = detail;
  } else {
    entry.state = JobState::kQueued;
    submission.admitted = true;
    live_.push_back(entry.id);
  }
  jobs_.push_back(std::move(entry));
  return submission;
}

std::uint64_t Scheduler::restore(const JobSpec& spec, JobState state,
                                 std::uint64_t probes, std::uint64_t slices,
                                 std::string detail, util::Nanos now) {
  Entry entry(jobs_.size() + 1, spec, make_bucket(spec, config_, now));
  entry.metered = config_.rate_multiplier > 0.0;
  entry.state = state == JobState::kRunning ? JobState::kQueued : state;
  entry.probes = probes;
  entry.slices = slices;
  entry.detail = std::move(detail);
  if (!job_state_terminal(entry.state)) live_.push_back(entry.id);
  jobs_.push_back(std::move(entry));
  return jobs_.back().id;
}

std::optional<std::uint64_t> Scheduler::acquire(util::Nanos now) {
  if (draining_ || running_count_ >= config_.num_workers) return std::nullopt;
  Entry* entry = pick(now, nullptr);
  if (entry == nullptr) return std::nullopt;
  entry->state = JobState::kRunning;
  entry->slices += 1;
  running_pps_ += entry->spec.probes_per_second;
  running_count_ += 1;
  return entry->id;
}

BarrierDecision Scheduler::on_barrier(std::uint64_t job_id,
                                      std::uint64_t probes_total,
                                      util::Nanos now) {
  Entry* entry = find(job_id);
  if (entry == nullptr || entry->state != JobState::kRunning) {
    return BarrierDecision::kCancel;  // defensive: unknown job must stop
  }
  const std::uint64_t delta =
      probes_total > entry->probes ? probes_total - entry->probes : 0;
  entry->probes = probes_total > entry->probes ? probes_total : entry->probes;
  if (entry->metered && delta > 0) {
    entry->bucket.charge(static_cast<double>(delta), now);
  }

  if (draining_) return BarrierDecision::kPreempt;
  if (entry->cancel_requested) return BarrierDecision::kCancel;

  // Would some waiter win this slot if we yielded it?
  const Entry* waiter = pick(now, entry);
  if (waiter == nullptr) {
    return BarrierDecision::kContinue;  // work-conserving even in debt
  }
  if (entry->metered && !entry->bucket.in_credit(now)) {
    return BarrierDecision::kPreempt;  // out of budget and a peer waits
  }
  if (waiter->spec.priority > entry->spec.priority) {
    return BarrierDecision::kPreempt;
  }
  if (waiter->spec.priority == entry->spec.priority &&
      waiter->progress() < entry->progress()) {
    return BarrierDecision::kPreempt;  // fair-share: let the laggard catch up
  }
  return BarrierDecision::kContinue;
}

void Scheduler::release_running(Entry& entry) {
  running_pps_ -= entry.spec.probes_per_second;
  if (running_pps_ < 0.0) running_pps_ = 0.0;
  running_count_ -= 1;
}

void Scheduler::retire(Entry& entry, JobState terminal) {
  entry.state = terminal;
  // live_ is ascending, and a job leaves it once.
  const auto it = std::lower_bound(live_.begin(), live_.end(), entry.id);
  if (it != live_.end() && *it == entry.id) live_.erase(it);
}

JobState Scheduler::release_preempted(std::uint64_t job_id) {
  Entry* entry = find(job_id);
  if (entry == nullptr) return JobState::kCancelled;
  if (entry->state != JobState::kRunning) return entry->state;
  release_running(*entry);
  // A cancel answered kSignalled while the job ran; pick() would skip the
  // parked job forever, so the cancel takes effect here.
  if (entry->cancel_requested) {
    retire(*entry, JobState::kCancelled);
  } else {
    entry->state = JobState::kPreempted;
  }
  return entry->state;
}

void Scheduler::release_completed(std::uint64_t job_id,
                                  std::uint64_t probes_total,
                                  util::Nanos now) {
  Entry* entry = find(job_id);
  if (entry == nullptr || entry->state != JobState::kRunning) return;
  const std::uint64_t delta =
      probes_total > entry->probes ? probes_total - entry->probes : 0;
  entry->probes = probes_total > entry->probes ? probes_total : entry->probes;
  if (entry->metered && delta > 0) {
    entry->bucket.charge(static_cast<double>(delta), now);
  }
  release_running(*entry);
  retire(*entry, JobState::kCompleted);
}

void Scheduler::release_failed(std::uint64_t job_id, std::string detail) {
  Entry* entry = find(job_id);
  if (entry == nullptr || entry->state != JobState::kRunning) return;
  release_running(*entry);
  retire(*entry, JobState::kFailed);
  entry->detail = std::move(detail);
}

void Scheduler::release_cancelled(std::uint64_t job_id) {
  Entry* entry = find(job_id);
  if (entry == nullptr || entry->state != JobState::kRunning) return;
  release_running(*entry);
  retire(*entry, JobState::kCancelled);
}

CancelOutcome Scheduler::cancel(std::uint64_t job_id) {
  Entry* entry = find(job_id);
  if (entry == nullptr) return CancelOutcome::kNotFound;
  if (job_state_terminal(entry->state)) return CancelOutcome::kAlreadyTerminal;
  if (entry->state == JobState::kRunning) {
    entry->cancel_requested = true;
    return CancelOutcome::kSignalled;
  }
  // Queued or preempted: cancel immediately, the job holds no worker.
  retire(*entry, JobState::kCancelled);
  return CancelOutcome::kCancelled;
}

void Scheduler::drain() { draining_ = true; }

bool Scheduler::has_dispatchable(util::Nanos now) {
  return !draining_ && running_count_ < config_.num_workers &&
         pick(now, nullptr) != nullptr;
}

bool Scheduler::idle() const { return live_.empty(); }

int Scheduler::queue_depth() const {
  int depth = 0;
  for (const std::uint64_t id : live_) {
    if (jobs_[id - 1].state == JobState::kQueued) ++depth;
  }
  return depth;
}

std::optional<JobView> Scheduler::view(std::uint64_t job_id) const {
  const Entry* entry = find(job_id);
  if (entry == nullptr) return std::nullopt;
  return view_of(*entry);
}

std::vector<JobView> Scheduler::views() const {
  std::vector<JobView> result;
  result.reserve(jobs_.size());
  for (const Entry& entry : jobs_) result.push_back(view_of(entry));
  return result;
}

Scheduler::Entry* Scheduler::find(std::uint64_t job_id) {
  if (job_id == 0 || job_id > jobs_.size()) return nullptr;
  return &jobs_[static_cast<std::size_t>(job_id - 1)];
}

const Scheduler::Entry* Scheduler::find(std::uint64_t job_id) const {
  if (job_id == 0 || job_id > jobs_.size()) return nullptr;
  return &jobs_[static_cast<std::size_t>(job_id - 1)];
}

JobView Scheduler::view_of(const Entry& entry) {
  JobView view;
  view.id = entry.id;
  view.state = entry.state;
  view.name = entry.spec.name;
  view.priority = entry.spec.priority;
  view.probes_per_second = entry.spec.probes_per_second;
  view.probes = entry.probes;
  view.slices = entry.slices;
  view.has_checkpoint = entry.state == JobState::kPreempted;
  view.detail = entry.detail;
  return view;
}

FR_HOT Scheduler::Entry* Scheduler::pick(util::Nanos now,
                                         const Entry* yielding) noexcept {
  double reserved = running_pps_;
  if (yielding != nullptr) reserved -= yielding->spec.probes_per_second;
  if (reserved < 0.0) reserved = 0.0;
  Entry* best = nullptr;
  for (const std::uint64_t id : live_) {
    Entry& entry = jobs_[id - 1];
    if (!entry.waiting() || entry.cancel_requested) continue;
    if (&entry == yielding) continue;
    if (!dispatchable(entry, reserved, now)) continue;
    if (best == nullptr || wins(entry, *best)) best = &entry;
  }
  return best;
}

FR_HOT bool Scheduler::dispatchable(Entry& entry, double reserved_pps,
                                    util::Nanos now) noexcept {
  if (reserved_pps + entry.spec.probes_per_second >
      config_.global_pps_budget * (1.0 + 1e-6)) {
    return false;
  }
  return !entry.metered || entry.bucket.in_credit(now);
}

FR_HOT bool Scheduler::wins(const Entry& a, const Entry& b) noexcept {
  if (a.spec.priority != b.spec.priority) {
    return a.spec.priority > b.spec.priority;
  }
  const double pa = a.progress();
  const double pb = b.progress();
  if (pa != pb) return pa < pb;
  return a.id < b.id;
}

}  // namespace flashroute::svc
