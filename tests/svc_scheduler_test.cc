// Tests for the multi-tenant scan-job scheduler (svc/scheduler.h) and its
// coupling to slice execution (svc/job_runner.h): admission reasons,
// dispatch order, fair-share alternation, budget metering, drain, decisions
// that ignore finished jobs, and the headline determinism contract — a job
// preempted at a checkpoint barrier and continued later produces a
// byte-identical archive payload to the same spec run uncontended.
//
// Everything here is single-threaded and runs on virtual time: the
// scheduler takes `now` explicitly, so the tests replay the exact decision
// sequence the daemon would make without threads or wall clocks.

#include "svc/scheduler.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "io/scan_archive.h"
#include "svc/event_log.h"
#include "svc/job.h"
#include "svc/job_runner.h"
#include "util/clock.h"

namespace flashroute::svc {
namespace {

JobSpec small_spec(const std::string& name) {
  JobSpec spec;
  spec.name = name;
  spec.prefix_bits = 6;
  spec.collect_routes = true;
  spec.checkpoint_interval = util::kMillisecond;  // a barrier every round
  return spec;
}

/// Single-threaded re-enactment of the daemon's dispatch loop: one worker
/// slot, virtual time, optional event stream mirroring the daemon's
/// emission points.  Tests inject mid-scan submissions through
/// `at_barrier(job, ordinal)`, which runs before the scheduler's verdict —
/// exactly where another client's submit would land.
struct Service {
  explicit Service(const SchedulerConfig& config, JobEventLog* log = nullptr)
      : scheduler(config), events(log) {}

  Scheduler scheduler;
  JobEventLog* events;
  std::map<std::uint64_t, std::unique_ptr<JobRunner>> runners;
  util::Nanos now = 0;

  std::uint64_t submit(const JobSpec& spec) {
    const Submission sub = scheduler.submit(spec, now);
    if (events) {
      JobEvent submitted;
      submitted.job_id = sub.job_id;
      submitted.event = "submitted";
      submitted.name = spec.name;
      submitted.has_priority = true;
      submitted.priority = spec.priority;
      events->emit(submitted);
      JobEvent outcome;
      outcome.job_id = sub.job_id;
      outcome.event = sub.admitted ? "admitted" : "rejected";
      outcome.reason = sub.reason;
      outcome.detail = sub.detail;
      events->emit(outcome);
    }
    if (sub.admitted) {
      runners[sub.job_id] = std::make_unique<JobRunner>(spec);
    }
    return sub.job_id;
  }

  void emit_progress(std::uint64_t id, const char* name,
                     std::uint64_t probes, std::uint64_t slice) {
    if (!events) return;
    JobEvent event;
    event.job_id = id;
    event.event = name;
    event.probes = probes;
    event.slice = slice;
    event.worker = 0;
    events->emit(event);
  }

  /// Runs one slice of the best dispatchable job; false when none.
  bool step(const std::function<void(std::uint64_t, int)>& at_barrier = {},
            std::vector<std::uint64_t>* order = nullptr,
            io::JobArchive* archive = nullptr) {
    const auto id = scheduler.acquire(now);
    if (!id) return false;
    if (order) order->push_back(*id);
    const std::uint64_t slice_no = scheduler.view(*id)->slices;
    JobRunner& runner = *runners.at(*id);
    const std::uint64_t base = runner.resume_probes().value_or(0);
    emit_progress(*id, slice_no == 1 ? "running" : "resumed", base,
                  slice_no);
    int barriers = 0;
    SliceResult slice = runner.run_slice(
        std::nullopt, [&](const io::ScanCheckpoint& cp) {
          ++barriers;
          if (at_barrier) at_barrier(*id, barriers);
          now += util::kMillisecond;  // one control-plane tick per barrier
          return scheduler.on_barrier(*id, cp.result.probes_sent, now);
        });
    switch (slice.outcome) {
      case SliceOutcome::kCompleted:
        if (archive) {
          archive->append(*id, slice.result, runner.archive_header());
        }
        scheduler.release_completed(*id, slice.probes_total, now);
        emit_progress(*id, "completed", slice.probes_total, slice_no);
        break;
      case SliceOutcome::kPreempted:
        scheduler.release_preempted(*id);
        emit_progress(*id, "preempted", slice.probes_total, slice_no);
        break;
      case SliceOutcome::kCancelled:
        scheduler.release_cancelled(*id);
        emit_progress(*id, "cancelled", slice.probes_total, slice_no);
        break;
    }
    return true;
  }

  void run_all(const std::function<void(std::uint64_t, int)>& at_barrier = {},
               std::vector<std::uint64_t>* order = nullptr,
               io::JobArchive* archive = nullptr) {
    while (step(at_barrier, order, archive)) {
    }
  }
};

std::string temp_archive_path(const char* tag) {
  return "/tmp/fr_svc_sched_" + std::string(tag) + "_" +
         std::to_string(static_cast<long>(::getpid())) + ".bin";
}

TEST(SvcAdmission, MachineReadableRejectReasons) {
  SchedulerConfig config;
  config.max_queued = 1;
  config.global_pps_budget = 100'000.0;
  Scheduler scheduler(config);

  JobSpec bad = small_spec("bad");
  bad.prefix_bits = 0;
  const Submission r1 = scheduler.submit(bad, 0);
  EXPECT_FALSE(r1.admitted);
  EXPECT_EQ(r1.reason, kRejectBadSpec);
  EXPECT_FALSE(r1.detail.empty());

  JobSpec greedy = small_spec("greedy");
  greedy.probes_per_second = 200'000.0;
  const Submission r2 = scheduler.submit(greedy, 0);
  EXPECT_FALSE(r2.admitted);
  EXPECT_EQ(r2.reason, kRejectRateExceedsGlobalBudget);

  const Submission r3 = scheduler.submit(small_spec("ok"), 0);
  EXPECT_TRUE(r3.admitted);
  EXPECT_EQ(scheduler.queue_depth(), 1);

  const Submission r4 = scheduler.submit(small_spec("overflow"), 0);
  EXPECT_FALSE(r4.admitted);
  EXPECT_EQ(r4.reason, kRejectQueueFull);

  scheduler.drain();
  const Submission r5 = scheduler.submit(small_spec("late"), 0);
  EXPECT_FALSE(r5.admitted);
  EXPECT_EQ(r5.reason, kRejectDraining);

  // Every submission got a distinct id, and rejected jobs answer status.
  EXPECT_EQ(r1.job_id, 1u);
  EXPECT_EQ(r5.job_id, 5u);
  const auto view = scheduler.view(r1.job_id);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->state, JobState::kRejected);
  EXPECT_FALSE(view->detail.empty());
}

TEST(SvcAdmission, ExactBudgetSumAdmitsAndDispatches) {
  SchedulerConfig config;
  config.global_pps_budget = 40'000.0;
  Scheduler scheduler(config);
  JobSpec spec = small_spec("half");
  spec.probes_per_second = 20'000.0;
  const Submission a = scheduler.submit(spec, 0);
  const Submission b = scheduler.submit(spec, 0);
  ASSERT_TRUE(a.admitted);
  ASSERT_TRUE(b.admitted);
  EXPECT_TRUE(scheduler.acquire(0).has_value());
  EXPECT_TRUE(scheduler.acquire(0).has_value());  // sums exactly to budget
  EXPECT_DOUBLE_EQ(scheduler.running_pps(), 40'000.0);
}

TEST(SvcDispatch, PriorityBeforeFairShareBeforeId) {
  Service service(SchedulerConfig{});
  const std::uint64_t low1 = service.submit(small_spec("low1"));
  JobSpec high = small_spec("high");
  high.priority = 5;
  const std::uint64_t high_id = service.submit(high);
  const std::uint64_t low2 = service.submit(small_spec("low2"));

  std::vector<std::uint64_t> order;
  service.run_all({}, &order);
  ASSERT_FALSE(order.empty());
  EXPECT_EQ(order.front(), high_id);  // priority wins over id order
  EXPECT_EQ(service.scheduler.view(low1)->state, JobState::kCompleted);
  EXPECT_EQ(service.scheduler.view(low2)->state, JobState::kCompleted);
  EXPECT_TRUE(service.scheduler.idle());
}

TEST(SvcDispatch, FairShareAlternatesAtBarriers) {
  Service service(SchedulerConfig{});
  const std::uint64_t a = service.submit(small_spec("a"));
  const std::uint64_t b = service.submit(small_spec("b"));

  std::vector<std::uint64_t> order;
  service.run_all({}, &order);

  // The running job yields to the equal-priority peer that has fallen
  // behind, so the single worker alternates at barrier granularity: both
  // jobs ran more than one slice.
  EXPECT_GE(service.scheduler.view(a)->slices, 2u);
  EXPECT_GE(service.scheduler.view(b)->slices, 2u);
  ASSERT_GE(order.size(), 3u);
  EXPECT_NE(order[0], order[1]);
  EXPECT_EQ(service.scheduler.view(a)->state, JobState::kCompleted);
  EXPECT_EQ(service.scheduler.view(b)->state, JobState::kCompleted);
}

TEST(SvcDispatch, PreemptionFreesBudgetForQueuedJob) {
  SchedulerConfig config;
  config.global_pps_budget = 30'000.0;
  Service service(config);
  JobSpec big = small_spec("big");
  big.probes_per_second = 25'000.0;
  JobSpec small = small_spec("small");
  small.probes_per_second = 10'000.0;
  const std::uint64_t big_id = service.submit(big);
  const std::uint64_t small_id = service.submit(small);

  // While `big` runs, `small` is admitted but cannot fit beside it.
  bool checked = false;
  std::vector<std::uint64_t> order;
  service.run_all(
      [&](std::uint64_t job, int barrier) {
        if (job == big_id && barrier == 1 && !checked) {
          checked = true;
          EXPECT_FALSE(service.scheduler.has_dispatchable(service.now));
        }
      },
      &order);

  ASSERT_TRUE(checked);
  ASSERT_GE(order.size(), 2u);
  EXPECT_EQ(order[0], big_id);
  EXPECT_EQ(order[1], small_id);  // dispatched into the freed budget
  EXPECT_EQ(service.scheduler.view(big_id)->state, JobState::kCompleted);
  EXPECT_EQ(service.scheduler.view(small_id)->state, JobState::kCompleted);
}

TEST(SvcBudget, MeteredJobYieldsOnlyWhenPeerWaits) {
  SchedulerConfig config;
  config.rate_multiplier = 0.001;  // 20 kpps spec → 20 credit tokens/sec
  Scheduler scheduler(config);
  const Submission only = scheduler.submit(small_spec("only"), 0);
  ASSERT_TRUE(only.admitted);
  ASSERT_TRUE(scheduler.acquire(0).has_value());

  // Deep in debt but alone: work conservation keeps it running.
  EXPECT_EQ(scheduler.on_barrier(only.job_id, 10'000, 0),
            BarrierDecision::kContinue);

  // A waiting peer turns the same debt into a preemption.
  const Submission peer = scheduler.submit(small_spec("peer"), 0);
  ASSERT_TRUE(peer.admitted);
  EXPECT_EQ(scheduler.on_barrier(only.job_id, 20'000, 0),
            BarrierDecision::kPreempt);
}

TEST(SvcCancel, OutcomesFollowJobState) {
  Scheduler scheduler(SchedulerConfig{});
  EXPECT_EQ(scheduler.cancel(99), CancelOutcome::kNotFound);

  const Submission queued = scheduler.submit(small_spec("queued"), 0);
  EXPECT_EQ(scheduler.cancel(queued.job_id), CancelOutcome::kCancelled);
  EXPECT_EQ(scheduler.view(queued.job_id)->state, JobState::kCancelled);
  EXPECT_EQ(scheduler.cancel(queued.job_id),
            CancelOutcome::kAlreadyTerminal);

  const Submission running = scheduler.submit(small_spec("running"), 0);
  ASSERT_TRUE(scheduler.acquire(0).has_value());
  EXPECT_EQ(scheduler.cancel(running.job_id), CancelOutcome::kSignalled);
  EXPECT_EQ(scheduler.on_barrier(running.job_id, 10, 0),
            BarrierDecision::kCancel);
  scheduler.release_cancelled(running.job_id);
  EXPECT_EQ(scheduler.view(running.job_id)->state, JobState::kCancelled);
  EXPECT_TRUE(scheduler.idle());
}

// The lost cancel: a cancel that lands between a barrier's kPreempt
// verdict and the worker's release (frd drops its lock in between) was
// answered kSignalled, yet the job was parked as kPreempted and, with its
// cancel requested, never dispatched again: idle() stayed false forever.
// The release now retires it as cancelled and says so.
TEST(SvcCancel, CancelBetweenPreemptVerdictAndReleaseCancelsTheJob) {
  SchedulerConfig config;
  config.num_workers = 1;
  Scheduler scheduler(config);
  const Submission job = scheduler.submit(small_spec("job"), 0);
  const Submission peer = scheduler.submit(small_spec("peer"), 0);
  ASSERT_EQ(scheduler.acquire(0), job.job_id);
  EXPECT_EQ(scheduler.on_barrier(job.job_id, 10, 0),
            BarrierDecision::kPreempt);
  EXPECT_EQ(scheduler.cancel(job.job_id), CancelOutcome::kSignalled);
  EXPECT_EQ(scheduler.release_preempted(job.job_id), JobState::kCancelled);
  EXPECT_EQ(scheduler.view(job.job_id)->state, JobState::kCancelled);

  ASSERT_EQ(scheduler.acquire(0), peer.job_id);
  scheduler.release_completed(peer.job_id, 20, 0);
  EXPECT_FALSE(scheduler.acquire(0).has_value());
  EXPECT_TRUE(scheduler.idle());
}

TEST(SvcDrain, RunningJobsPreemptAndNothingDispatches) {
  Scheduler scheduler(SchedulerConfig{});
  const Submission job = scheduler.submit(small_spec("job"), 0);
  ASSERT_TRUE(scheduler.acquire(0).has_value());
  scheduler.drain();
  EXPECT_TRUE(scheduler.draining());
  EXPECT_EQ(scheduler.on_barrier(job.job_id, 10, 0),
            BarrierDecision::kPreempt);
  scheduler.release_preempted(job.job_id);
  EXPECT_EQ(scheduler.view(job.job_id)->state, JobState::kPreempted);
  EXPECT_FALSE(scheduler.acquire(0).has_value());
  EXPECT_FALSE(scheduler.idle());
  // The daemon's shutdown reap cancels what drain stranded.
  EXPECT_EQ(scheduler.cancel(job.job_id), CancelOutcome::kCancelled);
  EXPECT_TRUE(scheduler.idle());
}

// The tentpole determinism gate, scheduler edition: a job preempted by a
// mid-scan high-priority arrival and resumed afterwards archives exactly
// the bytes of an uncontended run of the same spec.
TEST(SvcPreemption, ResumedJobIsByteIdenticalToUncontendedRun) {
  const std::string path = temp_archive_path("identity");
  std::remove(path.c_str());
  {
    io::JobArchive archive(path);
    ASSERT_TRUE(archive.ok());

    Service service(SchedulerConfig{});
    JobSpec victim_spec = small_spec("victim");
    victim_spec.prefix_bits = 7;
    const std::uint64_t victim = service.submit(victim_spec);

    JobSpec intruder = small_spec("intruder");
    intruder.priority = 5;
    bool submitted_intruder = false;
    std::vector<std::uint64_t> order;
    service.run_all(
        [&](std::uint64_t job, int barrier) {
          if (job == victim && barrier == 2 && !submitted_intruder) {
            submitted_intruder = true;
            service.submit(intruder);
          }
        },
        &order, &archive);

    ASSERT_TRUE(submitted_intruder);
    const auto view = service.scheduler.view(victim);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->state, JobState::kCompleted);
    EXPECT_GE(view->slices, 2u) << "the victim was never preempted";

    // Uncontended reference: same spec, no scheduler in the way.
    JobRunner solo(victim_spec);
    const SliceResult solo_run = solo.run_slice(
        std::nullopt,
        [](const io::ScanCheckpoint&) { return BarrierDecision::kContinue; });
    ASSERT_EQ(solo_run.outcome, SliceOutcome::kCompleted);

    io::Writer expected;
    io::write_archive(solo_run.result, solo.archive_header(), expected);
    const auto archived = archive.payload_bytes(victim);
    ASSERT_TRUE(archived.has_value());
    EXPECT_EQ(*archived, expected.str());
    EXPECT_EQ(view->probes, solo_run.probes_total);
  }
  std::remove(path.c_str());
}

// The paused engine is the uninterrupted one: a runner told to preempt at
// every barrier, and continued slice after slice, archives the bytes of
// the same spec run in one slice.
TEST(SvcRunner, PreemptedAtEveryBarrierMatchesOneUninterruptedSlice) {
  JobSpec spec = small_spec("sliced");
  spec.prefix_bits = 7;
  spec.max_retransmits = 1;
  spec.adaptive_backoff = true;
  JobRunner solo(spec);
  const SliceResult whole = solo.run_slice(
      std::nullopt,
      [](const io::ScanCheckpoint&) { return BarrierDecision::kContinue; });
  ASSERT_EQ(whole.outcome, SliceOutcome::kCompleted);

  JobRunner runner(spec);
  EXPECT_FALSE(runner.resume_probes().has_value());
  int slices = 0;
  std::uint64_t probes = 0;
  SliceResult slice;
  do {
    if (slices > 0) {
      ASSERT_TRUE(runner.resume_probes().has_value());
      EXPECT_EQ(*runner.resume_probes(), probes);
    }
    ++slices;
    slice = runner.run_slice(std::nullopt, [](const io::ScanCheckpoint&) {
      return BarrierDecision::kPreempt;
    });
    EXPECT_GE(slice.probes_total, probes);
    probes = slice.probes_total;
  } while (slice.outcome == SliceOutcome::kPreempted && slices < 1000);
  ASSERT_EQ(slice.outcome, SliceOutcome::kCompleted);
  EXPECT_GE(slices, 3) << "too few barriers to exercise the pause";
  EXPECT_FALSE(runner.resume_probes().has_value());
  EXPECT_EQ(slice.probes_total, whole.probes_total);

  io::Writer expected;
  io::write_archive(whole.result, solo.archive_header(), expected);
  io::Writer sliced;
  io::write_archive(slice.result, runner.archive_header(), sliced);
  EXPECT_EQ(sliced.str(), expected.str());
}

// A job cancelled while it waits, paused at a barrier, is never dispatched
// again, and a runner whose barrier verdict is kCancel frees the engine it
// had paused.
TEST(SvcRunner, CancelledPausedJobFreesItsEngineAndNeverRunsAgain) {
  Service service(SchedulerConfig{});
  JobSpec victim_spec = small_spec("victim");
  victim_spec.prefix_bits = 7;
  const std::uint64_t victim = service.submit(victim_spec);
  JobSpec intruder = small_spec("intruder");
  intruder.priority = 5;
  std::uint64_t intruder_id = 0;
  bool cancelled = false;
  std::vector<std::uint64_t> order;
  service.run_all(
      [&](std::uint64_t job, int barrier) {
        if (job == victim && barrier == 1 && intruder_id == 0) {
          intruder_id = service.submit(intruder);
        }
        if (job == intruder_id && barrier == 1) {
          ASSERT_EQ(service.scheduler.view(victim)->state,
                    JobState::kPreempted);
          EXPECT_TRUE(service.scheduler.view(victim)->has_checkpoint);
          const JobRunner& paused = *service.runners.at(victim);
          EXPECT_TRUE(paused.resume_probes().has_value());
          EXPECT_EQ(service.scheduler.cancel(victim),
                    CancelOutcome::kCancelled);
          cancelled = true;
        }
      },
      &order);
  ASSERT_TRUE(cancelled);
  EXPECT_EQ(std::count(order.begin(), order.end(), victim), 1);
  const auto view = service.scheduler.view(victim);
  EXPECT_EQ(view->state, JobState::kCancelled);
  EXPECT_FALSE(view->has_checkpoint);
  EXPECT_EQ(service.scheduler.view(intruder_id)->state,
            JobState::kCompleted);
  EXPECT_TRUE(service.scheduler.idle());

  JobRunner runner(victim_spec);
  const SliceResult paused = runner.run_slice(
      std::nullopt,
      [](const io::ScanCheckpoint&) { return BarrierDecision::kPreempt; });
  ASSERT_EQ(paused.outcome, SliceOutcome::kPreempted);
  ASSERT_TRUE(runner.resume_probes().has_value());
  const SliceResult stopped = runner.run_slice(
      std::nullopt,
      [](const io::ScanCheckpoint&) { return BarrierDecision::kCancel; });
  EXPECT_EQ(stopped.outcome, SliceOutcome::kCancelled);
  EXPECT_GE(stopped.probes_total, paused.probes_total);
  EXPECT_FALSE(runner.resume_probes().has_value());
}

// Every scheduler tick walks only the jobs that are not yet terminal: one
// that has finished 100,000 jobs decides exactly as one that never held
// them.
TEST(SvcDispatch, FinishedJobsLeaveEveryDecisionUnchanged) {
  constexpr std::uint64_t kFinished = 100'000;
  constexpr std::uint64_t kBarriersPerJob = 6;
  SchedulerConfig config;
  config.num_workers = 1;
  Scheduler veteran(config);
  for (std::uint64_t i = 0; i < kFinished; ++i) {
    const Submission done = veteran.submit(small_spec("done"), 0);
    const std::optional<std::uint64_t> id = veteran.acquire(0);
    ASSERT_TRUE(id.has_value() && *id == done.job_id);
    veteran.release_completed(done.job_id, 10, 0);
  }
  ASSERT_TRUE(veteran.idle());
  Scheduler fresh(config);

  JobSpec low = small_spec("low");
  JobSpec heavy = small_spec("heavy");
  heavy.weight = 2.0;
  JobSpec high = small_spec("high");
  high.priority = 1;
  for (const JobSpec* spec : {&low, &heavy, &high}) {
    ASSERT_TRUE(veteran.submit(*spec, 0).admitted);
    ASSERT_TRUE(fresh.submit(*spec, 0).admitted);
  }
  EXPECT_EQ(veteran.queue_depth(), 3);
  EXPECT_EQ(fresh.queue_depth(), 3);

  std::map<std::uint64_t, std::uint64_t> barriers;  // by the fresh id
  util::Nanos now = 0;
  int preemptions = 0;
  while (true) {
    EXPECT_EQ(veteran.idle(), fresh.idle());
    EXPECT_EQ(veteran.queue_depth(), fresh.queue_depth());
    EXPECT_EQ(veteran.has_dispatchable(now), fresh.has_dispatchable(now));
    const std::optional<std::uint64_t> id = fresh.acquire(now);
    const std::optional<std::uint64_t> veteran_id = veteran.acquire(now);
    ASSERT_EQ(veteran_id.has_value(), id.has_value());
    if (!id.has_value()) break;
    ASSERT_EQ(*veteran_id, *id + kFinished);

    BarrierDecision decision = BarrierDecision::kContinue;
    std::uint64_t probes = 0;
    while (decision == BarrierDecision::kContinue &&
           barriers[*id] < kBarriersPerJob) {
      now += util::kMillisecond;
      probes = 100 * ++barriers[*id];
      decision = fresh.on_barrier(*id, probes, now);
      ASSERT_EQ(veteran.on_barrier(*veteran_id, probes, now), decision);
    }
    if (decision == BarrierDecision::kPreempt) {
      ++preemptions;
      fresh.release_preempted(*id);
      veteran.release_preempted(*veteran_id);
      EXPECT_TRUE(veteran.view(*veteran_id)->has_checkpoint);
    } else {
      fresh.release_completed(*id, probes, now);
      veteran.release_completed(*veteran_id, probes, now);
    }
  }
  EXPECT_GE(preemptions, 3);
  EXPECT_TRUE(fresh.idle());
  EXPECT_TRUE(veteran.idle());
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const auto a = fresh.view(id);
    const auto b = veteran.view(id + kFinished);
    EXPECT_EQ(a->state, b->state);
    EXPECT_EQ(a->probes, b->probes);
    EXPECT_EQ(a->slices, b->slices);
  }
}

// Two identical workloads driven on virtual time emit byte-identical JSONL
// event streams — the replayability the daemon's tests and CI validator
// build on.
TEST(SvcEvents, VirtualTimeStreamIsDeterministic) {
  const auto run_once = [](std::string* out) {
    std::ostringstream stream;
    util::Nanos virtual_now = 0;
    JobEventLog log(&stream, [&] {
      return static_cast<std::uint64_t>(virtual_now);
    });
    Service service(SchedulerConfig{}, &log);
    service.submit(small_spec("a"));
    service.submit(small_spec("b"));
    JobSpec bad = small_spec("bad");
    bad.prefix_bits = 0;
    service.submit(bad);
    // Tie the log's clock to the service's virtual clock.
    virtual_now = service.now;
    std::vector<std::uint64_t> order;
    service.run_all(
        [&](std::uint64_t, int) { virtual_now = service.now; }, &order);
    log.summary(false, true, {{"svc.events", log.events_emitted()}});
    *out = stream.str();
  };

  std::string first;
  std::string second;
  run_once(&first);
  run_once(&second);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"event\":\"preempted\""), std::string::npos);
  EXPECT_NE(first.find("\"event\":\"rejected\""), std::string::npos);
  EXPECT_NE(first.find("\"type\":\"job_summary\""), std::string::npos);
}

}  // namespace
}  // namespace flashroute::svc
