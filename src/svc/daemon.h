// frd — the continuous-scanning daemon (DESIGN.md §12).
//
// Threads:
//   * one I/O thread runs a poll(2) loop over the AF_UNIX listener, the
//     connected clients, and a self-pipe; it decodes frames (wire.h),
//     serves control-plane requests under the daemon mutex, and never
//     touches a scan;
//   * `num_workers` worker threads sleep on a condition variable and, when
//     the scheduler has a dispatchable job, run one slice of it
//     (job_runner.h), consulting the scheduler at every checkpoint barrier.
//
// The scheduler itself is unsynchronized; every access happens under
// `mutex_`.  Scan slices run outside the lock — a barrier decision is the
// only moment a running scan synchronizes with the control plane.
//
// Completed jobs append their FRSC payload to a shared io::JobArchive;
// diff queries load two jobs' snapshots from it and run
// analysis::diff_snapshots.  Every lifecycle transition is emitted to the
// JSONL job-event stream (event_log.h) and mirrored in the svc.* metrics
// lanes: lane 0 belongs to the I/O thread (admission events), lane 1+i to
// worker i (execution events) — the PR 3 single-writer discipline.
//
// Crash safety (DESIGN.md §14): every admission/dispatch/barrier/terminal
// transition is appended to the write-ahead journal (svc/journal.h) before
// it becomes visible, and barrier checkpoints are published atomically
// under state_dir.  Boot always replays the journal against the archive
// and those checkpoints: queued jobs are re-admitted, interrupted jobs
// resume from their last barrier, retried submits are deduplicated by
// request key, and new jobs are numbered past every id the journal or the
// archive holds — with the recovered archives byte-identical to an
// uncrashed run.
//
// Shutdown: drain (reject new work, preempt running jobs at their next
// barrier), join the workers once no slice runs, then write the
// "job_summary" line.  Waiting jobs stay journaled and the next boot
// finishes them.  A daemon killed between those steps leaves a
// truncated-but-recoverable archive (JobArchive's crash contract).

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "io/scan_archive.h"
#include "obs/job_metrics.h"
#include "obs/metrics.h"
#include "svc/event_log.h"
#include "svc/job_runner.h"
#include "svc/journal.h"
#include "svc/scheduler.h"
#include "svc/socket.h"
#include "svc/wire.h"
#include "util/annotations.h"
#include "util/clock.h"
#include "util/sync.h"

namespace flashroute::svc {

struct DaemonOptions {
  std::string socket_path = "/tmp/frd.sock";
  std::string archive_path = "frd_archive.bin";
  SchedulerConfig scheduler;
  /// JSONL job-event sink; null = events are counted but not written.
  std::ostream* events = nullptr;
  /// Timestamp supplier for the event stream; null = monotonic nanoseconds
  /// since daemon start.  Tests inject a deterministic clock here.
  JobEventLog::NowFn event_clock;

  /// Write-ahead job journal (DESIGN.md §14); start() refuses an empty
  /// path.
  std::string journal_path = "frd_journal.bin";
  /// Directory for per-job barrier checkpoints (`job_<id>.frck`); created
  /// if absent.  start() refuses an empty path.
  std::string state_dir = "frd_state";
  /// How hard each journal and archive append pushes toward stable
  /// storage.
  Durability durability = Durability::kFlush;
  /// Graceful-drain budget after a shutdown request: once exceeded,
  /// still-running jobs are hard-cancelled at their next barrier (their
  /// last published checkpoint survives for the next boot).  0 = wait
  /// for running slices indefinitely.
  util::Nanos drain_deadline = 0;
};

class Daemon {
 public:
  explicit Daemon(const DaemonOptions& options);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Opens the archive, state dir and journal, recovers from them, binds
  /// the socket and spawns the threads.  False when any of these could not
  /// be set up; start_error() then names the path and why.
  [[nodiscard]] bool start();
  const std::string& start_error() const noexcept { return start_error_; }

  /// Blocks until shutdown (a kShutdown frame or request_shutdown())
  /// completes, then writes the job_summary line.
  void wait();

  /// Programmatic equivalent of a kShutdown frame (tests, owner threads).
  void request_shutdown() FR_EXCLUDES(mutex_);

  /// Async-signal-safe shutdown request for SIGTERM/SIGINT handlers: one
  /// relaxed atomic store plus a WakePipe write (both signal-safe).  The
  /// I/O loop notices on its next wakeup and starts the graceful drain,
  /// honoring DaemonOptions::drain_deadline.
  void request_shutdown_async() noexcept;

  const std::string& socket_path() const noexcept {
    return options_.socket_path;
  }
  obs::MetricsSnapshot metrics_snapshot() const {
    return registry_.snapshot();
  }

 private:
  void io_loop() FR_EXCLUDES(mutex_);
  void worker_loop(int worker_index) FR_EXCLUDES(mutex_);
  /// Serves one request frame; returns the reply payload ("" = drop peer).
  /// Handlers lock internally, so the I/O thread must call them unlocked.
  std::string handle_request(std::string_view payload) FR_EXCLUDES(mutex_);
  std::string handle_submit(io::Reader& reader) FR_EXCLUDES(mutex_);
  std::string handle_status(io::Reader& reader) FR_EXCLUDES(mutex_);
  std::string handle_list() FR_EXCLUDES(mutex_);
  std::string handle_cancel(io::Reader& reader) FR_EXCLUDES(mutex_);
  std::string handle_diff(io::Reader& reader) FR_EXCLUDES(mutex_);
  std::string handle_verify(io::Reader& reader) FR_EXCLUDES(mutex_);
  /// Boot-time recovery (DESIGN.md §14): replays the journal against the
  /// archive and on-disk checkpoints, rebuilding scheduler/runners/dedup
  /// state.  Runs in start() before any thread is spawned.
  void recover_from_journal() FR_EXCLUDES(mutex_);
  /// `<state_dir>/job_<id>.frck` — the job's published barrier checkpoint.
  std::string checkpoint_path(std::uint64_t job_id) const;
  util::Nanos now() const noexcept { return clock_.now() - epoch_; }

  // fr-lint: allow(guarded-member): set in the constructor, read-only after
  DaemonOptions options_;
  // fr-lint: allow(guarded-member): stateless monotonic-clock reader
  util::MonotonicClock clock_;
  // fr-lint: allow(guarded-member): written once in start(), pre-thread
  util::Nanos epoch_ = 0;

  // Metrics are the lock-free plane: the registry merges single-writer
  // lanes on snapshot (DESIGN.md §7); ids/lanes are frozen in the ctor.
  // fr-lint: allow(guarded-member): internally synchronized (PR 3 lanes)
  obs::MetricsRegistry registry_;
  // fr-lint: allow(guarded-member): frozen in the constructor
  obs::JobMetricIds ids_;
  // fr-lint: allow(guarded-member): frozen in the constructor
  std::vector<obs::MetricsLane> lanes_;  ///< [0] control, [1+i] worker i

  // fr-lint: allow(guarded-member): set in start(); JobEventLog locks itself
  std::unique_ptr<JobEventLog> events_;
  // fr-lint: allow(guarded-member): set in start(); JobArchive locks itself
  std::unique_ptr<io::JobArchive> archive_;
  // fr-lint: allow(guarded-member): set in start(); JobJournal locks itself
  std::unique_ptr<JobJournal> journal_;
  // fr-lint: allow(guarded-member): I/O-thread-only after start()
  ListenSocket listener_;
  // fr-lint: allow(guarded-member): wake()/drain() are async-signal-safe
  WakePipe wake_;

  mutable util::Mutex mutex_;
  util::CondVar cv_;
  Scheduler scheduler_ FR_GUARDED_BY(mutex_);
  /// runners_[id - 1]; null for rejected jobs, and for every job once it
  /// turns terminal (its runner and topology are freed then).  Changes
  /// under mutex_ only.
  std::vector<std::unique_ptr<JobRunner>> runners_ FR_GUARDED_BY(mutex_);
  bool shutdown_requested_ FR_GUARDED_BY(mutex_) = false;
  bool stop_workers_ FR_GUARDED_BY(mutex_) = false;
  /// Idempotent-submit replay: request key → the original submit verdict,
  /// rebuilt from the journal at boot.  std::map for deterministic walks.
  std::map<std::string, Submission> request_keys_ FR_GUARDED_BY(mutex_);
  /// Per-job now() of the last checkpoint-file publish; throttles barrier
  /// publishes to a real-time cadence (the virtual clock outruns the wall
  /// clock, and recovery only ever reads the newest file).
  std::map<std::uint64_t, util::Nanos> checkpoint_published_at_
      FR_GUARDED_BY(mutex_);
  /// Absolute now() at which the graceful drain gives up (0 = unset).
  util::Nanos drain_deadline_at_ FR_GUARDED_BY(mutex_) = 0;
  bool drain_cancelled_ FR_GUARDED_BY(mutex_) = false;

  // fr-atomic: shutdown latch — stored by request_shutdown_async (possibly
  // from a signal handler), consumed by the I/O loop on its next wakeup.
  std::atomic<bool> shutdown_async_{false};

  // fr-lint: allow(guarded-member): joined only by the thread calling wait()
  std::thread io_thread_;
  // fr-lint: allow(guarded-member): joined only by the thread calling wait()
  std::vector<std::thread> workers_;
  // fr-lint: allow(guarded-member): start()/wait() run on the owner thread
  bool started_ = false;
  // fr-lint: allow(guarded-member): start() runs on the owner thread
  std::string start_error_;
  // fr-lint: allow(guarded-member): wait() runs after every join
  bool summary_written_ = false;
};

}  // namespace flashroute::svc
