#include "svc/daemon.h"

#include <algorithm>
#include <set>
#include <utility>

#include "analysis/churn.h"
#include "io/checkpoint.h"
#include "util/crash_point.h"
#include "util/sync.h"

namespace flashroute::svc {

namespace {

/// Minimum real time between checkpoint publishes at continue-barriers.
/// Bounds recovery loss to ~100ms of wall progress per job while keeping
/// the per-barrier file churn off the hot path (sim barriers arrive on the
/// virtual clock, far faster than real time).
constexpr util::Nanos kCheckpointPublishInterval = 100 * util::kMillisecond;

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::string error_reply(const char* text) {
  io::Writer w = message(MsgType::kError);
  w.put_string(text);
  return w.str();
}

}  // namespace

Daemon::Daemon(const DaemonOptions& options)
    : options_(options), scheduler_(([&options] {
        SchedulerConfig config = options.scheduler;
        if (config.num_workers < 1) config.num_workers = 1;
        return config;
      })()) {
  if (options_.scheduler.num_workers < 1) options_.scheduler.num_workers = 1;
  ids_ = obs::register_job_metrics(registry_);
  registry_.freeze(1 + options_.scheduler.num_workers);
  for (int i = 0; i < registry_.num_lanes(); ++i) {
    lanes_.push_back(registry_.lane(i));
  }
}

Daemon::~Daemon() {
  if (started_) {
    request_shutdown();
    wait();
  }
}

bool Daemon::start() {
  const auto refuse = [this](const std::string& path, const char* why) {
    start_error_ = path + ": " + why;
    return false;
  };
  archive_ = std::make_unique<io::JobArchive>(options_.archive_path,
                                              options_.durability);
  if (!archive_->ok()) {
    return refuse(options_.archive_path,
                  "cannot open, or not a job archive of this format; left "
                  "untouched");
  }
  lanes_[0].inc(ids_.archive_corrupt_bytes, archive_->corrupt_bytes());
  // One file opened as both logs would have each overwrite the other's
  // frames.  An empty state dir or journal path fails here as well: there
  // is no unjournaled mode.
  if (!io::ensure_directory(options_.state_dir)) {
    return refuse(options_.state_dir, "cannot create the state directory");
  }
  if (io::same_file(options_.journal_path, options_.archive_path)) {
    return refuse(options_.journal_path, "named as both journal and archive");
  }
  journal_ =
      std::make_unique<JobJournal>(options_.journal_path, options_.durability);
  if (!journal_->ok()) {
    return refuse(options_.journal_path,
                  "cannot open, or not a job journal of this format (an "
                  "older frd's journal is refused, not converted); left "
                  "untouched");
  }
  lanes_[0].inc(ids_.journal_corrupt_bytes, journal_->corrupt_bytes());
  auto listener = ListenSocket::bind_and_listen(options_.socket_path);
  if (!listener.has_value() || !wake_.valid()) {
    return refuse(options_.socket_path, "cannot bind the socket");
  }
  listener_ = std::move(*listener);
  epoch_ = clock_.now();
  JobEventLog::NowFn event_clock = options_.event_clock;
  if (!event_clock) {
    event_clock = [this] { return static_cast<std::uint64_t>(now()); };
  }
  events_ = std::make_unique<JobEventLog>(options_.events, event_clock);
  recover_from_journal();
  io_thread_ = std::thread(&Daemon::io_loop, this);
  workers_.reserve(static_cast<std::size_t>(options_.scheduler.num_workers));
  for (int i = 0; i < options_.scheduler.num_workers; ++i) {
    workers_.emplace_back(&Daemon::worker_loop, this, i);
  }
  started_ = true;
  return true;
}

void Daemon::request_shutdown() {
  {
    const util::MutexLock lock(mutex_);
    shutdown_requested_ = true;
    scheduler_.drain();
    if (options_.drain_deadline > 0 && drain_deadline_at_ == 0) {
      drain_deadline_at_ = now() + options_.drain_deadline;
    }
  }
  cv_.notify_all();
  wake_.wake();
}

void Daemon::request_shutdown_async() noexcept {
  // No locks, no allocation: safe from a signal handler.  The I/O loop
  // turns the latch into a normal request_shutdown() on its next pass.
  shutdown_async_.store(true, std::memory_order_relaxed);
  wake_.wake();
}

std::string Daemon::checkpoint_path(std::uint64_t job_id) const {
  return options_.state_dir + "/job_" + std::to_string(job_id) + ".frck";
}

void Daemon::recover_from_journal() {
  // Fold the journal into one view per job id.  The submit path appends
  // admission records in id order, so ids are dense.  Recovery may have
  // cut a torn tail (a suffix of records) or skipped damaged records
  // mid-file (counted in svc.journal_corrupt_bytes), so any one record of
  // a job may be missing while its later ones survive.
  struct Replay {
    bool seen_admitted = false;
    bool rejected = false;
    JobSpec spec;
    std::string reason;
    std::string detail;
    std::uint64_t probes = 0;
    std::uint64_t slices = 0;
    std::optional<JournalKind> terminal;
    std::string terminal_detail;
  };
  std::map<std::uint64_t, Replay> jobs;
  std::uint64_t max_id = 0;
  for (const JournalRecord& record : journal_->take_records()) {
    if (record.job_id == 0) continue;
    Replay& replay = jobs[record.job_id];
    max_id = std::max(max_id, record.job_id);
    switch (record.kind) {
      case JournalKind::kAdmitted:
        replay.seen_admitted = true;
        replay.spec = record.spec;
        break;
      case JournalKind::kRejected:
        replay.seen_admitted = true;
        replay.rejected = true;
        replay.spec = record.spec;
        replay.reason = record.reason;
        replay.detail = record.detail;
        break;
      case JournalKind::kStarted:
        replay.slices = std::max(replay.slices, record.slices);
        break;
      case JournalKind::kBarrier:
        replay.probes = record.probes;
        replay.slices = std::max(replay.slices, record.slices);
        break;
      case JournalKind::kCompleted:
      case JournalKind::kCancelled:
      case JournalKind::kFailed:
        replay.terminal = record.kind;
        replay.terminal_detail = record.detail;
        replay.probes = std::max(replay.probes, record.probes);
        break;
    }
  }
  std::set<std::uint64_t> archived;
  for (const io::JobArchive::Entry& entry : archive_->index()) {
    archived.insert(entry.job_id);
    max_id = std::max(max_id, entry.job_id);
  }
  if (max_id == 0) return;

  const util::MutexLock lock(mutex_);
  for (std::uint64_t id = 1; id <= max_id; ++id) {
    const auto it = jobs.find(id);
    const Replay replay = it != jobs.end() ? it->second : Replay{};
    const bool has_payload = archived.count(id) != 0;

    JobState state = JobState::kQueued;
    std::optional<io::ScanCheckpoint> checkpoint;
    std::uint64_t probes = replay.probes;
    std::string detail;
    if (!replay.seen_admitted) {
      // Orphan id: its admission record is gone, and the spec and request
      // key with it, so this id can never rerun.  Cut with a torn tail,
      // the client never saw a reply (replies follow the journal append)
      // and retries under a fresh id.  Skipped as damaged, the client was
      // told "admitted"; a keyed resubmit finds no key and is admitted
      // anew.
      state = has_payload ? JobState::kCompleted : JobState::kFailed;
      detail = has_payload ? "archived result without a journaled admission"
                           : "journal admission record lost";
    } else if (replay.rejected) {
      state = JobState::kRejected;
      detail = replay.detail;
    } else if (replay.terminal.has_value()) {
      state = *replay.terminal == JournalKind::kCompleted
                  ? JobState::kCompleted
                  : (*replay.terminal == JournalKind::kCancelled
                         ? JobState::kCancelled
                         : JobState::kFailed);
      detail = replay.terminal_detail;
    } else if (has_payload) {
      // Crashed between the archive append and the terminal journal
      // record: the payload is authoritative — never run (and append)
      // a second time.
      state = JobState::kCompleted;
      detail = "archive payload recovered";
    } else if (const char* invalid = validate_scan(replay.spec)) {
      // A spec the engine cannot run (admitted by an older, laxer daemon,
      // say) fails here instead of aborting every boot in its worker.
      state = JobState::kFailed;
      detail = invalid;
    } else {
      // Interrupted mid-run or never started: resume from the last
      // published barrier checkpoint, or rerun from scratch — the
      // determinism contract makes the output byte-identical either way.
      std::optional<io::ScanCheckpoint> saved =
          io::load_checkpoint_file(checkpoint_path(id));
      if (saved.has_value()) {
        if (saved->header.first_prefix == replay.spec.first_prefix &&
            saved->header.prefix_bits == replay.spec.prefix_bits &&
            saved->header.seed == replay.spec.scan_seed) {
          state = JobState::kPreempted;
          probes = saved->result.probes_sent;
          checkpoint = std::move(saved);
        } else {
          state = JobState::kFailed;
          detail = kFailRecoveryCheckpointMismatch;
        }
      } else {
        state = JobState::kQueued;
        detail = replay.slices > 0 ? "rerun from scratch after crash" : "";
      }
    }

    scheduler_.restore(replay.spec, state, probes, replay.slices, detail,
                       now());
    // The recovered checkpoint goes to the runner whose first slice
    // restores the scan from it.
    runners_.push_back(job_state_terminal(state)
                           ? nullptr
                           : std::make_unique<JobRunner>(
                                 replay.spec, std::move(checkpoint)));
    if (replay.seen_admitted && !replay.spec.request_key.empty()) {
      Submission submission;
      submission.admitted = !replay.rejected;
      submission.job_id = id;
      submission.reason = replay.reason;
      submission.detail = replay.detail;
      request_keys_[replay.spec.request_key] = std::move(submission);
    }
    lanes_[0].inc(ids_.jobs_recovered);
    JobEvent event;
    event.job_id = id;
    event.event = "recovered";
    event.name = replay.spec.name;
    event.reason = job_state_name(state);
    event.detail = detail;
    event.probes = probes;
    events_->emit(event);
  }
}

void Daemon::wait() {
  if (!started_) return;
  if (io_thread_.joinable()) io_thread_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (summary_written_) return;
  summary_written_ = true;
  const obs::MetricsSnapshot snapshot = registry_.snapshot();
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  counters.reserve(snapshot.counter_names.size());
  for (std::size_t i = 0; i < snapshot.counter_names.size(); ++i) {
    counters.emplace_back(snapshot.counter_names[i], snapshot.counters[i]);
  }
  bool drained = false;
  {
    // Every thread has been joined, but the capability contract is about
    // access discipline, not liveness — take the lock like everyone else.
    const util::MutexLock lock(mutex_);
    drained = scheduler_.draining();
  }
  events_->summary(drained, /*clean_shutdown=*/true, counters);
}

void Daemon::io_loop() {
  std::vector<Connection> clients;
  std::string payload;
  while (true) {
    if (shutdown_async_.exchange(false, std::memory_order_relaxed)) {
      request_shutdown();  // turn the signal-handler latch into a drain
    }
    {
      const util::MutexLock lock(mutex_);
      if (shutdown_requested_ && !drain_cancelled_ &&
          drain_deadline_at_ != 0 && now() >= drain_deadline_at_) {
        // Drain deadline blown: hard-cancel running slices.  The deadline
        // trades the tails of the running slices (cancellation is
        // terminal) for a bounded shutdown time.
        drain_cancelled_ = true;
        for (const JobView& view : scheduler_.views()) {
          if (view.state != JobState::kRunning) continue;
          if (scheduler_.cancel(view.id) == CancelOutcome::kSignalled) {
            JobRunner* runner = runners_[view.id - 1].get();
            if (runner != nullptr) runner->request_cancel();
          }
        }
      }
      // The drain keeps waiting jobs: their admission is journaled, so the
      // next boot resumes them.  Only running slices hold shutdown open.
      if (shutdown_requested_ && scheduler_.running_count() == 0) {
        stop_workers_ = true;
        break;
      }
    }
    std::vector<int> fds;
    fds.reserve(clients.size() + 2);
    fds.push_back(listener_.fd());
    fds.push_back(wake_.read_fd());
    for (const Connection& client : clients) fds.push_back(client.fd());
    const std::vector<int> ready = wait_readable(fds, 100);

    for (const int fd : ready) {
      if (fd == wake_.read_fd()) {
        wake_.drain();
      } else if (fd == listener_.fd()) {
        if (auto client = listener_.accept_client(); client.has_value()) {
          clients.push_back(std::move(*client));
        }
      }
    }
    for (Connection& client : clients) {
      bool alive = client.valid();
      for (const int fd : ready) {
        if (alive && fd == client.fd()) {
          if (client.read_frame(payload)) {
            const std::string reply = handle_request(payload);
            alive = !reply.empty() && client.write_frame(reply);
          } else {
            alive = false;
          }
        }
      }
      if (!alive) client.close();
    }
    std::erase_if(clients,
                  [](const Connection& client) { return !client.valid(); });
  }
  cv_.notify_all();
}

std::string Daemon::handle_request(std::string_view payload) {
  const std::optional<MsgType> type = peek_type(payload);
  if (!type.has_value()) return error_reply("unknown message type");
  io::Reader reader(payload);
  reader.u8();  // consume the type byte
  switch (*type) {
    case MsgType::kSubmit:
      return handle_submit(reader);
    case MsgType::kRetiredSubmit:
      return error_reply("submit in a retired spec layout; upgrade frctl");
    case MsgType::kStatus:
      return handle_status(reader);
    case MsgType::kList:
      return handle_list();
    case MsgType::kCancel:
      return handle_cancel(reader);
    case MsgType::kDiff:
      return handle_diff(reader);
    case MsgType::kVerify:
      return handle_verify(reader);
    case MsgType::kShutdown:
      request_shutdown();
      return message(MsgType::kOk).str();
    default:
      return error_reply("unexpected message type");
  }
}

std::string Daemon::handle_submit(io::Reader& reader) {
  const std::optional<JobSpec> spec = decode_spec(reader);
  if (!spec.has_value()) return error_reply("malformed submit");

  const bool keyed = !spec->request_key.empty();
  if (keyed) {
    // Idempotent submit: a retried request key replays the original
    // verdict verbatim — no new job, no new events, no journal append.
    const util::MutexLock lock(mutex_);
    const auto it = request_keys_.find(spec->request_key);
    if (it != request_keys_.end()) {
      io::Writer w = message(MsgType::kSubmitReply);
      w.put_bool(it->second.admitted);
      w.put_u64(it->second.job_id);
      w.put_string(it->second.reason);
      w.put_string(it->second.detail);
      return w.str();
    }
  }

  Submission submission;
  {
    const util::MutexLock lock(mutex_);
    submission = scheduler_.submit(*spec, now());
    if (keyed) request_keys_[spec->request_key] = submission;
    runners_.push_back(submission.admitted
                           ? std::make_unique<JobRunner>(*spec)
                           : nullptr);
    lanes_[0].inc(ids_.jobs_submitted);
    JobEvent event;
    event.job_id = submission.job_id;
    event.event = "submitted";
    event.name = spec->name;
    event.has_priority = true;
    event.priority = spec->priority;
    events_->emit(event);
    JobEvent verdict;
    verdict.job_id = submission.job_id;
    if (submission.admitted) {
      lanes_[0].inc(ids_.jobs_admitted);
      verdict.event = "admitted";
    } else {
      lanes_[0].inc(ids_.jobs_rejected);
      verdict.event = "rejected";
      verdict.reason = submission.reason;
      verdict.detail = submission.detail;
    }
    events_->emit(verdict);
  }

  // Durable admission: the reply leaves only after the admission record is
  // journaled.  A crash before this point means the client saw no reply
  // and can blindly retry; a crash after it means recovery re-admits the
  // job the client was told about.  The append happens before
  // cv_.notify_all() so no worker journals a kStarted record ahead of the
  // admission it refers to.
  JournalRecord record;
  record.kind =
      submission.admitted ? JournalKind::kAdmitted : JournalKind::kRejected;
  record.job_id = submission.job_id;
  record.spec = *spec;
  record.reason = submission.reason;
  record.detail = submission.detail;
  journal_->append(record);
  FR_CRASH_POINT(util::crash::kSubmitJournaled);
  cv_.notify_all();

  io::Writer w = message(MsgType::kSubmitReply);
  w.put_bool(submission.admitted);
  w.put_u64(submission.job_id);
  w.put_string(submission.reason);
  w.put_string(submission.detail);
  return w.str();
}

std::string Daemon::handle_status(io::Reader& reader) {
  const std::uint64_t job_id = reader.u64();
  if (!reader.ok()) return error_reply("malformed status");
  std::optional<JobView> view;
  {
    const util::MutexLock lock(mutex_);
    view = scheduler_.view(job_id);
  }
  io::Writer w = message(MsgType::kStatusReply);
  w.put_bool(view.has_value());
  if (view.has_value()) encode_view(w, *view);
  return w.str();
}

std::string Daemon::handle_list() {
  std::vector<JobView> views;
  {
    const util::MutexLock lock(mutex_);
    views = scheduler_.views();
  }
  io::Writer w = message(MsgType::kListReply);
  w.put_varint(views.size());
  for (const JobView& view : views) encode_view(w, view);
  return w.str();
}

std::string Daemon::handle_cancel(io::Reader& reader) {
  const std::uint64_t job_id = reader.u64();
  if (!reader.ok()) return error_reply("malformed cancel");
  CancelOutcome outcome = CancelOutcome::kNotFound;
  std::unique_ptr<JobRunner> cancelled;  // freed after the lock is released
  {
    const util::MutexLock lock(mutex_);
    outcome = scheduler_.cancel(job_id);
    if (outcome == CancelOutcome::kSignalled) {
      JobRunner* runner = runners_[job_id - 1].get();
      if (runner != nullptr) runner->request_cancel();
    } else if (outcome == CancelOutcome::kCancelled) {
      cancelled = std::move(runners_[job_id - 1]);  // no worker holds it
      lanes_[0].inc(ids_.jobs_cancelled);
      JobEvent event;
      event.job_id = job_id;
      event.event = "cancelled";
      event.detail = "cancelled before running";
      events_->emit(event);
    }
  }
  if (outcome == CancelOutcome::kCancelled) {
    // A running job's cancellation is journaled by its worker when the
    // slice actually stops; a waiting job's is terminal right here.
    JournalRecord record;
    record.kind = JournalKind::kCancelled;
    record.job_id = job_id;
    record.detail = "cancelled before running";
    journal_->append(record);
    io::discard_checkpoint(checkpoint_path(job_id));
  }
  io::Writer w = message(MsgType::kCancelReply);
  w.put_u8(static_cast<std::uint8_t>(outcome));
  return w.str();
}

std::string Daemon::handle_diff(io::Reader& reader) {
  const std::uint64_t before_id = reader.u64();
  const std::uint64_t after_id = reader.u64();
  if (!reader.ok()) return error_reply("malformed diff");
  // Archive reads take the archive's own lock, not the daemon's — a diff
  // of two large snapshots must not stall admissions.
  const std::optional<io::LoadedArchive> before = archive_->load(before_id);
  const std::optional<io::LoadedArchive> after = archive_->load(after_id);
  io::Writer w = message(MsgType::kDiffReply);
  if (!before.has_value() || !after.has_value()) {
    w.put_bool(false);
    w.put_string("job has no archived result");
    return w.str();
  }
  const std::optional<analysis::ChurnReport> report =
      analysis::diff_snapshots(*before, *after);
  if (!report.has_value()) {
    w.put_bool(false);
    w.put_string("snapshots are not comparable");
    return w.str();
  }
  w.put_bool(true);
  w.put_u64(report->interfaces_before);
  w.put_u64(report->interfaces_after);
  w.put_u64(report->interfaces_appeared);
  w.put_u64(report->interfaces_vanished);
  w.put_u64(report->routes_compared);
  w.put_u64(report->routes_changed_hops);
  w.put_u64(report->routes_changed_length);
  return w.str();
}

std::string Daemon::handle_verify(io::Reader& reader) {
  const std::uint64_t job_id = reader.u64();
  if (!reader.ok()) return error_reply("malformed verify");
  const std::optional<std::string> payload = archive_->payload_bytes(job_id);
  io::Writer w = message(MsgType::kVerifyReply);
  w.put_bool(payload.has_value());
  if (payload.has_value()) {
    w.put_u64(payload->size());
    w.put_u64(fnv1a(*payload));
  }
  return w.str();
}

void Daemon::worker_loop(int worker_index) {
  const obs::MetricsLane lane =
      lanes_[static_cast<std::size_t>(1 + worker_index)];
  while (true) {
    // Dispatch state carried from the locked acquire phase into the
    // unlocked slice execution.  Two scoped MutexLock regions (acquire,
    // release) instead of one unique_lock with manual unlock/relock: the
    // thread-safety analysis — and a reader — sees exactly where the lock
    // is held, and the scan slice provably runs outside it.
    std::optional<std::uint64_t> id;
    JobRunner* runner = nullptr;
    bool resumed = false;
    std::uint64_t base_probes = 0;
    std::uint64_t slice_no = 0;
    {
      const util::MutexLock lock(mutex_);
      while (!stop_workers_ && !scheduler_.has_dispatchable(now())) {
        cv_.wait(mutex_);
      }
      if (stop_workers_) return;
      id = scheduler_.acquire(now());
      if (!id.has_value()) continue;

      runner = runners_[*id - 1].get();
      const std::optional<std::uint64_t> resume_probes =
          runner->resume_probes();
      resumed = resume_probes.has_value();
      base_probes = resume_probes.value_or(0);
      slice_no = scheduler_.view(*id)->slices;
      lane.inc(ids_.slices_dispatched);
      if (resumed) lane.inc(ids_.jobs_resumed);
      JobEvent event;
      event.job_id = *id;
      event.event = resumed ? "resumed" : "running";
      event.worker = worker_index;
      event.slice = slice_no;
      event.probes = base_probes;
      events_->emit(event);
    }

    JournalRecord started;
    started.kind = JournalKind::kStarted;
    started.job_id = *id;
    started.probes = base_probes;
    started.slices = slice_no;
    journal_->append(started);
    FR_CRASH_POINT(util::crash::kJobStarted);

    // Checkpoint publication is throttled to a real-time cadence, tracked
    // per job so scheduler timeslicing cannot defeat it: sim barriers —
    // preemption quanta included — fire on the virtual clock, which
    // outruns the wall clock by orders of magnitude, and recovery only
    // ever reads the newest file.  A preemption barrier needs no publish
    // of its own: the paused engine stays in the runner for the next
    // slice, and a crash simply resumes from the last published file (or
    // reruns from scratch) with byte-identical output.
    SliceResult slice = runner->run_slice(
        std::nullopt,
        [&](const io::ScanCheckpoint& barrier_checkpoint) {
          BarrierDecision decision;
          bool due = false;
          {
            const util::MutexLock barrier_lock(mutex_);
            decision = scheduler_.on_barrier(
                *id, barrier_checkpoint.result.probes_sent, now());
            if (decision != BarrierDecision::kCancel) {
              util::Nanos& published_at = checkpoint_published_at_[*id];
              const util::Nanos barrier_now = now();
              if (published_at == 0 ||
                  barrier_now - published_at >= kCheckpointPublishInterval) {
                // Claimed optimistically: if the publish below fails, the
                // retry waits a full interval — fine, publish failure is
                // an abnormal path and retrying every barrier would melt.
                published_at = barrier_now;
                due = true;
              }
            }
          }
          if (due) {
            // Publish the barrier durably, outside the daemon lock:
            // checkpoint file first (atomic rename), then the journal
            // record that makes it the job's resume point.  A crash
            // between the two resumes from this same checkpoint anyway —
            // recovery trusts the newest matching file on disk.  The
            // per-file fsync follows the journal's durability contract:
            // rename atomicity covers process death on its own, so only
            // kFsync pays the power-loss stall at every barrier.
            if (io::save_checkpoint_atomic(
                    checkpoint_path(*id), barrier_checkpoint,
                    options_.durability == Durability::kFsync)) {
              JournalRecord record;
              record.kind = JournalKind::kBarrier;
              record.job_id = *id;
              record.probes = barrier_checkpoint.result.probes_sent;
              record.slices = slice_no;
              journal_->append(record);
              FR_CRASH_POINT(util::crash::kBarrierPublished);
            }
          }
          return decision;
        });

    // The archive append happens unlocked: JobArchive serializes itself,
    // and holding the daemon lock across file I/O would stall admissions
    // (and create a daemon→archive lock-order edge for no benefit).
    std::string fail_detail;
    if (slice.outcome == SliceOutcome::kCompleted) {
      if (archive_->append(*id, slice.result, runner->archive_header())) {
        FR_CRASH_POINT(util::crash::kJobArchived);
      } else {
        fail_detail = "archive append failed";
      }
    }

    // A terminal job's runner, freed with its topology at the end of this
    // iteration, outside the lock.
    std::unique_ptr<JobRunner> finished;
    {
      const util::MutexLock lock(mutex_);
      lane.inc(ids_.probes_executed, slice.probes_total > base_probes
                                         ? slice.probes_total - base_probes
                                         : 0);
      JobEvent done;
      done.job_id = *id;
      done.worker = worker_index;
      done.slice = slice_no;
      done.probes = slice.probes_total;
      if (slice.outcome == SliceOutcome::kPreempted &&
          scheduler_.release_preempted(*id) == JobState::kCancelled) {
        // A cancel landed between the barrier's verdict and this release:
        // the scheduler retired the job, and the paused engine ends here
        // as a cancelled slice's does (release_cancelled below then finds
        // the job no longer running and leaves it be).
        slice.outcome = SliceOutcome::kCancelled;
      }
      switch (slice.outcome) {
        case SliceOutcome::kCompleted:
          if (fail_detail.empty()) {
            scheduler_.release_completed(*id, slice.probes_total, now());
            lane.inc(ids_.jobs_completed);
            done.event = "completed";
          } else {
            scheduler_.release_failed(*id, fail_detail);
            lane.inc(ids_.jobs_failed);
            done.event = "failed";
            done.detail = fail_detail;
          }
          break;
        case SliceOutcome::kPreempted:
          lane.inc(ids_.jobs_preempted);
          done.event = "preempted";
          break;
        case SliceOutcome::kCancelled:
          scheduler_.release_cancelled(*id);
          lane.inc(ids_.jobs_cancelled);
          done.event = "cancelled";
          break;
      }
      if (slice.outcome != SliceOutcome::kPreempted) {
        // Nothing else holds the runner: a cancel reaches one only while
        // its job is running, under this same lock.
        checkpoint_published_at_.erase(*id);
        finished = std::move(runners_[*id - 1]);
      }
      events_->emit(done);
    }

    if (slice.outcome != SliceOutcome::kPreempted) {
      // Terminal record after the archive append (recovery invariant:
      // archive payload present ⇒ the job may be marked completed, so the
      // payload must hit the file first), outside the daemon lock.
      JournalRecord record;
      record.job_id = *id;
      record.probes = slice.probes_total;
      record.slices = slice_no;
      switch (slice.outcome) {
        case SliceOutcome::kCompleted:
          record.kind = fail_detail.empty() ? JournalKind::kCompleted
                                            : JournalKind::kFailed;
          record.detail = fail_detail;
          break;
        case SliceOutcome::kCancelled:
          record.kind = JournalKind::kCancelled;
          break;
        case SliceOutcome::kPreempted:
          break;  // unreachable
      }
      journal_->append(record);
      FR_CRASH_POINT(util::crash::kJobTerminal);
      io::discard_checkpoint(checkpoint_path(*id));
    }
    cv_.notify_all();
    wake_.wake();  // let the I/O loop re-evaluate drain progress
  }
}

}  // namespace flashroute::svc
