// End-to-end tests for the frd daemon (svc/daemon.h) over its real AF_UNIX
// socket: submit/status/list/wait, admission rejection on the wire, cancel,
// archive-backed diff and verify queries, the drain, boot recovery from the
// journal, and the JSONL event stream's structural invariants.  These run
// the daemon's actual thread structure (I/O poll loop + worker pool), so
// they are also the TSan coverage for the svc locking discipline and the
// journal/recovery paths; the fork-based kill matrix lives in
// svc_crash_recovery_test.cc.

#include "svc/daemon.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/checkpoint.h"
#include "io/scan_archive.h"
#include "svc/client.h"
#include "svc/job.h"
#include "svc/job_runner.h"
#include "svc/journal.h"
#include "svc/socket.h"
#include "svc/wire.h"
#include "util/clock.h"

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace flashroute::svc {
namespace {

/// Removes what a daemon leaves on disk: archive, journal and state dir.
void remove_daemon_files(const DaemonOptions& options) {
  std::remove(options.archive_path.c_str());
  std::remove(options.journal_path.c_str());
  std::error_code ignored;
  std::filesystem::remove_all(options.state_dir, ignored);
}

/// One daemon on durable paths under /tmp, unstarted; restart() is the
/// in-process stand-in for "the process died and came back".
struct DaemonFixture {
  std::string socket_path;
  std::string archive_path;
  std::string journal_path;
  std::string state_dir;
  std::ostringstream events;
  std::unique_ptr<Daemon> daemon;
  int workers;
  double budget;
  int max_queued;
  util::Nanos drain_deadline;

  explicit DaemonFixture(const char* tag, int num_workers = 2,
                         double pps_budget = 1e6, int queue_bound = 8,
                         util::Nanos deadline = 0)
      : workers(num_workers),
        budget(pps_budget),
        max_queued(queue_bound),
        drain_deadline(deadline) {
    const std::string base = "/tmp/fr_svc_test_" + std::string(tag) + "_" +
                             std::to_string(static_cast<long>(::getpid()));
    socket_path = base + ".sock";
    archive_path = base + ".bin";
    journal_path = base + ".frwj";
    state_dir = base + "_state";
    remove_daemon_files(options());
    boot();
  }

  DaemonOptions options() {
    DaemonOptions options;
    options.socket_path = socket_path;
    options.archive_path = archive_path;
    options.journal_path = journal_path;
    options.state_dir = state_dir;
    options.durability = Durability::kFlush;
    options.events = &events;
    options.drain_deadline = drain_deadline;
    options.scheduler.num_workers = workers;
    options.scheduler.global_pps_budget = budget;
    options.scheduler.max_queued = max_queued;
    return options;
  }

  void boot() { daemon = std::make_unique<Daemon>(options()); }

  void restart() {
    daemon.reset();  // request_shutdown + wait
    boot();
  }

  ~DaemonFixture() {
    daemon.reset();
    remove_daemon_files(options());
  }

  Client connect() {
    auto client = Client::connect(socket_path);
    EXPECT_TRUE(client.has_value());
    return std::move(*client);
  }
};

/// FNV-1a 64 over `bytes`: the digest `verify` answers with.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

JobSpec quick_spec(const std::string& name, std::uint64_t scan_seed = 7) {
  JobSpec spec;
  spec.name = name;
  spec.prefix_bits = 6;
  spec.scan_seed = scan_seed;
  return spec;
}

TEST(SvcDaemon, SubmitRunsToCompletionAndAnswersQueries) {
  DaemonFixture fixture("basic");
  ASSERT_TRUE(fixture.daemon->start());
  Client client = fixture.connect();

  const auto first = client.submit(quick_spec("first", 7));
  const auto second = client.submit(quick_spec("second", 8));
  ASSERT_TRUE(first.has_value() && first->admitted);
  ASSERT_TRUE(second.has_value() && second->admitted);
  EXPECT_NE(first->job_id, second->job_id);

  ASSERT_TRUE(client.wait_all(2));
  const auto views = client.list();
  ASSERT_TRUE(views.has_value());
  ASSERT_EQ(views->size(), 2u);
  for (const JobView& view : *views) {
    EXPECT_EQ(view.state, JobState::kCompleted);
    EXPECT_GT(view.probes, 0u);
    EXPECT_GE(view.slices, 1u);
  }

  const auto status = client.status(first->job_id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->name, "first");

  // Both results are archived; same-universe snapshots diff cleanly.
  const auto verify = client.verify(first->job_id);
  ASSERT_TRUE(verify.has_value());
  EXPECT_TRUE(verify->found);
  EXPECT_GT(verify->payload_size, 0u);

  const auto diff = client.diff(first->job_id, second->job_id);
  ASSERT_TRUE(diff.has_value());
  EXPECT_TRUE(diff->ok) << diff->error;
  EXPECT_GT(diff->routes_compared, 0u);

  EXPECT_TRUE(client.shutdown());
  fixture.daemon->wait();

  const std::string stream = fixture.events.str();
  EXPECT_NE(stream.find("\"event\":\"submitted\""), std::string::npos);
  EXPECT_NE(stream.find("\"event\":\"completed\""), std::string::npos);
  EXPECT_NE(stream.find("\"type\":\"job_summary\""), std::string::npos);
  EXPECT_NE(stream.find("\"clean_shutdown\":true"), std::string::npos);
}

TEST(SvcDaemon, SurvivesClientsThatHangUpBeforeTheirReply) {
  // A client killed mid-request (Ctrl-C, its own timeout) closes its socket
  // before frd answers.  Writing that reply must fail quietly: a SIGPIPE
  // would kill the daemon, and this test process with it.
  DaemonFixture fixture("hangup");
  ASSERT_TRUE(fixture.daemon->start());
  const io::Writer list = message(MsgType::kList);
  for (int i = 0; i < 20; ++i) {
    auto connection = connect_unix(fixture.socket_path);
    ASSERT_TRUE(connection.has_value());
    ASSERT_TRUE(connection->write_frame(list.str()));
  }  // each connection closes here, before its reply

  Client client = fixture.connect();
  const auto views = client.list();
  ASSERT_TRUE(views.has_value());
  EXPECT_TRUE(views->empty());
}

TEST(SvcDaemon, IdenticalSpecsArchiveIdenticalPayloads) {
  DaemonFixture fixture("identical");
  ASSERT_TRUE(fixture.daemon->start());
  Client client = fixture.connect();

  const auto a = client.submit(quick_spec("twin-a"));
  const auto b = client.submit(quick_spec("twin-b"));
  ASSERT_TRUE(a.has_value() && a->admitted);
  ASSERT_TRUE(b.has_value() && b->admitted);
  ASSERT_TRUE(client.wait_all(2));

  const auto va = client.verify(a->job_id);
  const auto vb = client.verify(b->job_id);
  ASSERT_TRUE(va.has_value() && va->found);
  ASSERT_TRUE(vb.has_value() && vb->found);
  // Equal specs ⇒ equal bytes, however the two workers interleaved.
  EXPECT_EQ(va->payload_size, vb->payload_size);
  EXPECT_EQ(va->payload_fnv1a, vb->payload_fnv1a);
}

TEST(SvcDaemon, RejectionsAndMissingJobsOnTheWire) {
  DaemonFixture fixture("reject", /*workers=*/1, /*budget=*/10'000.0);
  ASSERT_TRUE(fixture.daemon->start());
  Client client = fixture.connect();

  JobSpec greedy = quick_spec("greedy");
  greedy.probes_per_second = 20'000.0;
  const auto rejected = client.submit(greedy);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_FALSE(rejected->admitted);
  EXPECT_EQ(rejected->reason, kRejectRateExceedsGlobalBudget);

  // Rejected jobs still answer status (terminal, with the detail).
  const auto view = client.status(rejected->job_id);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->state, JobState::kRejected);

  EXPECT_FALSE(client.status(999).has_value());
  const auto cancel = client.cancel(999);
  ASSERT_TRUE(cancel.has_value());
  EXPECT_EQ(*cancel, CancelOutcome::kNotFound);

  const auto diff = client.diff(rejected->job_id, rejected->job_id);
  ASSERT_TRUE(diff.has_value());
  EXPECT_FALSE(diff->ok);
  EXPECT_FALSE(diff->error.empty());

  const auto verify = client.verify(rejected->job_id);
  ASSERT_TRUE(verify.has_value());
  EXPECT_FALSE(verify->found);
}

/// FNV-1a over each frame's length and bytes, in order.
std::uint64_t frames_digest(const std::vector<std::string>& frames) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](unsigned char byte) {
    hash = (hash ^ byte) * 0x100000001b3ULL;
  };
  for (const std::string& frame : frames) {
    for (int shift = 0; shift < 64; shift += 8) mix(frame.size() >> shift);
    for (const char c : frame) mix(static_cast<unsigned char>(c));
  }
  return hash;
}

/// Serves one Client on `path` in place of frd, answering every request
/// with `reply`, while `calls` runs; returns the requests it received.
std::vector<std::string> stand_in(const std::string& path,
                                  const std::string& reply,
                                  const std::function<void(Client&)>& calls) {
  std::optional<ListenSocket> listener = ListenSocket::bind_and_listen(path);
  EXPECT_TRUE(listener.has_value());
  if (!listener.has_value()) return {};
  std::vector<std::string> requests;
  std::jthread server([&listener, &requests, &reply] {
    std::optional<Connection> peer = listener->accept_client();
    std::string frame;
    while (peer.has_value() && peer->read_frame(frame)) {
      requests.push_back(frame);
      if (!peer->write_frame(reply)) break;
    }
  });
  {
    std::optional<Client> client = Client::connect(path);
    EXPECT_TRUE(client.has_value());
    if (client.has_value()) {
      calls(*client);
    } else {
      (void)connect_unix(path);  // let the server's accept return
    }
  }  // the client hangs up, so the server's read fails and it ends
  server.join();
  return requests;
}

std::string stand_in_path(const char* tag) {
  return "/tmp/fr_svc_test_stand_in_" + std::string(tag) + "_" +
         std::to_string(static_cast<long>(::getpid())) + ".sock";
}

// Pins every byte of the frd protocol: one request of each type as Client
// sends it, captured by a stand-in server that answers each with an error,
// then the real daemon's reply to each of those requests (a rejected job's
// views included) and to a malformed one.
TEST(SvcDaemon, RequestAndReplyFramesMatchTheirGoldenBytes) {
  const std::string error(1, static_cast<char>(MsgType::kError));
  std::vector<std::string> requests =
      stand_in(stand_in_path("frames"), error, [](Client& client) {
        JobSpec greedy = quick_spec("greedy", 9);
        greedy.probes_per_second = 20'000.0;
        greedy.priority = 2;
        greedy.request_key = "frames";
        EXPECT_FALSE(client.submit(greedy).has_value());
        EXPECT_FALSE(client.status(1).has_value());
        EXPECT_FALSE(client.list().has_value());
        EXPECT_FALSE(client.cancel(1).has_value());
        EXPECT_FALSE(client.diff(1, 2).has_value());
        EXPECT_FALSE(client.verify(1).has_value());
        EXPECT_FALSE(client.shutdown());
      });
  ASSERT_EQ(requests.size(), 7u);
  // Re-recorded when JobSpec became a ScanSpec plus its scheduling fields
  // (it was 0x0d038958f29b5454): the submit frame took a new type byte
  // and carries the spec's new fields.  The six other frames and every
  // reply below kept their bytes.
  EXPECT_EQ(frames_digest(requests), 0xb6f40a018cf65d1bULL)
      << std::hex << frames_digest(requests);

  DaemonFixture fixture("frames", /*workers=*/1, /*budget=*/10'000.0);
  ASSERT_TRUE(fixture.daemon->start());
  std::optional<Connection> raw = connect_unix(fixture.socket_path);
  ASSERT_TRUE(raw.has_value());
  requests.insert(requests.end() - 1,
                  std::string(1, static_cast<char>(MsgType::kStatus)));
  std::vector<std::string> replies;
  for (const std::string& request : requests) {
    std::string reply;
    ASSERT_TRUE(raw->write_frame(request) && raw->read_frame(reply));
    replies.push_back(reply);
  }
  EXPECT_EQ(frames_digest(replies), 0x2d31b9512553cdedULL)
      << std::hex << frames_digest(replies);
}

// A submit from a client built before ScanSpec: type byte 1 and the older
// spec layout.  The daemon answers kError without decoding it, and goes on
// serving.
TEST(SvcDaemon, ParentFormatSubmitGetsAnErrorReply) {
  const std::string parent_submit(
      "\x01\x06\x70\x61\x72\x65\x6e\x74\x06\x00\x00\x00\x00\x00\x01\x00"
      "\x01\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00"
      "\x2a\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x88\xd3\x40"
      "\x10\x05\x20\x00\x01\x00\x00\x80\xf0\xfa\x02\x00\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x00\xf0\x3f\x00\xe1\xf5\x05\x00"
      "\x00\x00\x00\x0a\x70\x61\x72\x65\x6e\x74\x2d\x6b\x65\x79",
      94);
  DaemonFixture fixture("parent_submit", /*workers=*/1);
  ASSERT_TRUE(fixture.daemon->start());
  std::optional<Connection> raw = connect_unix(fixture.socket_path);
  ASSERT_TRUE(raw.has_value());
  std::string reply;
  ASSERT_TRUE(raw->write_frame(parent_submit) && raw->read_frame(reply));
  EXPECT_EQ(peek_type(reply), MsgType::kError);
  Client client = fixture.connect();
  const auto views = client.list();
  ASSERT_TRUE(views.has_value());
  EXPECT_TRUE(views->empty());
}

// A universe the simulator cannot build — over its interface pool, or past
// 255.255.255.255 — is a bad_spec at admission, and the daemon keeps
// serving.  Admitted, it would abort the worker that built its topology.
TEST(SvcDaemon, UnbuildableUniverseIsABadSpec) {
  DaemonFixture fixture("bad_universe", /*workers=*/1);
  ASSERT_TRUE(fixture.daemon->start());
  Client client = fixture.connect();
  for (const std::uint32_t first_prefix : {0xC80000u, 0xFFFFF0u}) {
    JobSpec spec = quick_spec("poison");
    spec.first_prefix = first_prefix;
    const auto rejected = client.submit(spec);
    ASSERT_TRUE(rejected.has_value());
    EXPECT_FALSE(rejected->admitted);
    EXPECT_EQ(rejected->reason, kRejectBadSpec);
    EXPECT_FALSE(rejected->detail.empty());
  }
  const auto fine = client.submit(quick_spec("fine"));
  ASSERT_TRUE(fine.has_value() && fine->admitted);
  const auto done = client.wait_job(fine->job_id, 2);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::kCompleted);
}

// A journal can hold an admitted spec that validate_scan refuses: an older
// daemon admitted it, say.  Boot fails that job with the validator's detail
// and runs the others; before, its worker aborted the daemon at every boot.
TEST(SvcDaemon, RecoveryFailsAJournaledSpecTheValidatorRefuses) {
  DaemonFixture fixture("poison_journal", /*workers=*/1);
  JobSpec poison = quick_spec("poison");
  poison.first_prefix = 0xC80000;  // over the simulator's interface pool
  JobSpec fine = quick_spec("fine");
  {
    JobJournal journal(fixture.journal_path, Durability::kFlush);
    JournalRecord record;
    record.kind = JournalKind::kAdmitted;
    record.job_id = 1;
    record.spec = poison;
    ASSERT_TRUE(journal.append(record));
    record.job_id = 2;
    record.spec = fine;
    ASSERT_TRUE(journal.append(record));
  }
  ASSERT_TRUE(fixture.daemon->start());
  Client client = fixture.connect();
  ASSERT_TRUE(client.wait_all());
  const auto failed = client.status(1);
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->state, JobState::kFailed);
  EXPECT_EQ(failed->detail, validate_scan(poison));
  const auto completed = client.status(2);
  ASSERT_TRUE(completed.has_value());
  EXPECT_EQ(completed->state, JobState::kCompleted);
}

// A journal written before ScanSpec ("FRWJ" frames, the older spec layout)
// is refused at boot with a message that names it, and left byte for byte.
TEST(SvcDaemon, ParentFormatJournalIsRefusedAtBootAndLeftUntouched) {
  const std::string parent_journal(
      "\x46\x52\x57\x4a\x78\x00\x00\x00\x01\x01\x00\x00\x00\x00\x00\x00"
      "\x00\x06\x70\x61\x72\x65\x6e\x74\x06\x00\x00\x00\x00\x00\x01\x00"
      "\x01\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00"
      "\x2a\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x88\xd3\x40"
      "\x10\x05\x20\x00\x01\x00\x00\x80\xf0\xfa\x02\x00\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x00\xf0\x3f\x00\xe1\xf5\x05\x00"
      "\x00\x00\x00\x0a\x70\x61\x72\x65\x6e\x74\x2d\x6b\x65\x79\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
      "\x64\x7c\x3b\x1e",
      132);
  DaemonFixture fixture("parent_journal");
  {
    std::ofstream out(fixture.journal_path, std::ios::binary);
    out << parent_journal;
  }
  EXPECT_FALSE(fixture.daemon->start());
  EXPECT_NE(fixture.daemon->start_error().find(fixture.journal_path),
            std::string::npos)
      << fixture.daemon->start_error();
  EXPECT_EQ(read_file(fixture.journal_path), parent_journal);
}

// A list reply declaring more views than its bytes hold is refused before
// anything is allocated for them.
TEST(SvcDaemon, ListReplyCountPastTheEndIsRefused) {
  io::Writer reply = message(MsgType::kListReply);
  reply.put_varint(std::uint64_t{1} << 62);
  reply.put_u64(0);
  stand_in(stand_in_path("list"), reply.str(), [](Client& client) {
    EXPECT_FALSE(client.list().has_value());
  });
}

TEST(SvcDaemon, CancelQueuedJobBeforeItRuns) {
  // Zero workers is clamped to one; a long-running job pins it while the
  // victim waits in the queue.
  DaemonFixture fixture("cancel", /*workers=*/1);
  ASSERT_TRUE(fixture.daemon->start());
  Client client = fixture.connect();

  JobSpec runner = quick_spec("runner");
  runner.prefix_bits = 12;
  const auto running = client.submit(runner);
  ASSERT_TRUE(running.has_value() && running->admitted);
  const auto queued = client.submit(quick_spec("victim"));
  ASSERT_TRUE(queued.has_value() && queued->admitted);

  const auto outcome = client.cancel(queued->job_id);
  ASSERT_TRUE(outcome.has_value());
  // Usually still queued (kCancelled); kSignalled if it slipped onto the
  // worker first.  Either way it must reach a terminal state.
  EXPECT_TRUE(*outcome == CancelOutcome::kCancelled ||
              *outcome == CancelOutcome::kSignalled);
  const auto view = client.wait_job(queued->job_id, 2);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(job_state_terminal(view->state));

  ASSERT_TRUE(client.wait_all(2));
  const auto final_runner = client.status(running->job_id);
  ASSERT_TRUE(final_runner.has_value());
  EXPECT_EQ(final_runner->state, JobState::kCompleted);
}

/// The job_event lines of `stream` that belong to job `id`.
std::vector<std::string> events_of(const std::string& stream,
                                   std::uint64_t id) {
  const std::string tag = "\"job\":" + std::to_string(id) + ",";
  std::vector<std::string> lines;
  std::istringstream in(stream);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(tag) != std::string::npos) lines.push_back(line);
  }
  return lines;
}

bool has_event(const std::string& line, const char* event) {
  return line.find("\"event\":\"" + std::string(event) + "\"") !=
         std::string::npos;
}

// A job preempted at a barrier waits with its engine paused.  Cancelling it
// then is terminal at once: the daemon frees its runner, engine and all,
// and no worker runs it again.
TEST(SvcDaemon, CancelledPausedJobNeverRunsAgain) {
  DaemonFixture fixture("cancel_paused", /*workers=*/1);
  ASSERT_TRUE(fixture.daemon->start());
  Client client = fixture.connect();

  std::optional<JobView> view;
  // Polls job `id` while it is in `state`; `view` keeps the last answer.
  const auto wait_out = [&](std::uint64_t id, JobState state) {
    for (int poll = 0; poll < 10'000; ++poll) {
      view = client.status(id);
      if (!view.has_value() || view->state != state) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  JobSpec victim = quick_spec("victim");
  victim.prefix_bits = 15;
  const auto paused = client.submit(victim);
  ASSERT_TRUE(paused.has_value() && paused->admitted);
  // The intruder arrives once the victim holds the only worker, so the
  // victim's next barrier preempts it.
  wait_out(paused->job_id, JobState::kQueued);
  ASSERT_TRUE(view.has_value());
  ASSERT_EQ(view->state, JobState::kRunning) << job_state_name(view->state);
  JobSpec intruder = quick_spec("intruder", 8);
  intruder.prefix_bits = 16;  // outlasts the polls below
  intruder.priority = 5;
  const auto running = client.submit(intruder);
  ASSERT_TRUE(running.has_value() && running->admitted);

  wait_out(paused->job_id, JobState::kRunning);
  ASSERT_TRUE(view.has_value());
  ASSERT_EQ(view->state, JobState::kPreempted) << job_state_name(view->state);
  EXPECT_TRUE(view->has_checkpoint);
  const auto outcome = client.cancel(paused->job_id);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, CancelOutcome::kCancelled);
  // The intruder has done its part; stopping it ends the test sooner.
  ASSERT_TRUE(client.cancel(running->job_id).has_value());

  ASSERT_TRUE(client.wait_all());
  view = client.status(paused->job_id);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->state, JobState::kCancelled);
  EXPECT_FALSE(view->has_checkpoint);
  const auto verify = client.verify(paused->job_id);
  ASSERT_TRUE(verify.has_value());
  EXPECT_FALSE(verify->found);
  EXPECT_TRUE(client.shutdown());
  fixture.daemon->wait();

  const std::vector<std::string> lines =
      events_of(fixture.events.str(), paused->job_id);
  const auto preempted = std::find_if(
      lines.begin(), lines.end(),
      [](const std::string& line) { return has_event(line, "preempted"); });
  ASSERT_NE(preempted, lines.end());
  int cancelled = 0;
  for (auto it = preempted + 1; it != lines.end(); ++it) {
    EXPECT_FALSE(has_event(*it, "resumed")) << *it;
    if (has_event(*it, "cancelled")) ++cancelled;
  }
  EXPECT_EQ(cancelled, 1);
}

// With two workers and more jobs than workers, fair share preempts jobs at
// their barriers, and whichever worker dispatches a paused job next
// continues its engine.  Every payload matches its spec run alone.
TEST(SvcDaemon, PausedJobsContinueOnWhicheverWorkerPicksThemUp) {
  constexpr int kJobs = 6;
  std::vector<JobSpec> specs;
  for (int k = 0; k < kJobs; ++k) {
    JobSpec spec = quick_spec("shared", static_cast<std::uint64_t>(11 + k));
    spec.prefix_bits = 10;
    spec.max_retransmits = k % 2 == 0 ? 1 : 0;
    specs.push_back(spec);
  }

  DaemonFixture fixture("continue_anywhere", /*workers=*/2);
  ASSERT_TRUE(fixture.daemon->start());
  Client client = fixture.connect();
  std::vector<std::uint64_t> ids;
  for (const JobSpec& spec : specs) {
    const auto submission = client.submit(spec);
    ASSERT_TRUE(submission.has_value() && submission->admitted);
    ids.push_back(submission->job_id);
  }
  ASSERT_TRUE(client.wait_all());

  for (int k = 0; k < kJobs; ++k) {
    JobRunner solo(specs[static_cast<std::size_t>(k)]);
    const SliceResult alone = solo.run_slice(
        std::nullopt,
        [](const io::ScanCheckpoint&) { return BarrierDecision::kContinue; });
    ASSERT_EQ(alone.outcome, SliceOutcome::kCompleted);
    io::Writer expected;
    io::write_archive(alone.result, solo.archive_header(), expected);
    const auto verify = client.verify(ids[static_cast<std::size_t>(k)]);
    ASSERT_TRUE(verify.has_value() && verify->found);
    EXPECT_EQ(verify->payload_size, expected.str().size()) << "job " << k;
    EXPECT_EQ(verify->payload_fnv1a, fnv1a(expected.str())) << "job " << k;
  }
  EXPECT_TRUE(client.shutdown());
  fixture.daemon->wait();
  const std::string stream = fixture.events.str();
  EXPECT_NE(stream.find("\"event\":\"resumed\""), std::string::npos)
      << "no job was preempted and continued";
}

JobSpec keyed_spec(const std::string& name, const std::string& key,
                   std::uint64_t scan_seed = 7) {
  JobSpec spec = quick_spec(name, scan_seed);
  spec.request_key = key;
  return spec;
}

TEST(SvcDaemon, JournaledDrainPreservesWaitingJobsAndRestartFinishesThem) {
  // Control: the stranded job run without a restart — the byte-identity
  // oracle.
  std::uint64_t control_size = 0;
  std::uint64_t control_fnv = 0;
  {
    DaemonFixture control("recovery_control", /*workers=*/1);
    ASSERT_TRUE(control.daemon->start());
    Client client = control.connect();
    const auto submission = client.submit(quick_spec("stranded", 9));
    ASSERT_TRUE(submission.has_value() && submission->admitted);
    ASSERT_TRUE(client.wait_all());
    const auto verify = client.verify(submission->job_id);
    ASSERT_TRUE(verify.has_value() && verify->found);
    control_size = verify->payload_size;
    control_fnv = verify->payload_fnv1a;
  }

  DaemonFixture fixture("drain", /*workers=*/1);
  ASSERT_TRUE(fixture.daemon->start());
  std::uint64_t big_id = 0;
  std::uint64_t stranded_id = 0;
  {
    Client client = fixture.connect();
    JobSpec big = keyed_spec("big", "drain-key-big");
    big.prefix_bits = 12;
    const auto a = client.submit(big);
    const auto b =
        client.submit(keyed_spec("stranded", "drain-key-stranded", 9));
    ASSERT_TRUE(a.has_value() && a->admitted);
    ASSERT_TRUE(b.has_value() && b->admitted);
    big_id = a->job_id;
    stranded_id = b->job_id;
    EXPECT_TRUE(client.shutdown());
  }
  fixture.daemon->wait();
  EXPECT_NE(fixture.events.str().find("\"type\":\"job_summary\""),
            std::string::npos);
  EXPECT_NE(fixture.events.str().find("\"drained\":true"),
            std::string::npos);
  // Journaled drain never cancels the waiting job — it is durable.
  EXPECT_EQ(fixture.events.str().find("\"event\":\"cancelled\""),
            std::string::npos);

  fixture.restart();
  ASSERT_TRUE(fixture.daemon->start());
  Client client = fixture.connect();
  // Recovery re-admitted both jobs under their original ids...
  EXPECT_NE(fixture.events.str().find("\"event\":\"recovered\""),
            std::string::npos);
  const auto big_view = client.status(big_id);
  ASSERT_TRUE(big_view.has_value());
  EXPECT_EQ(big_view->name, "big");
  // ...and a retried submit with the original key replays the original
  // verdict instead of admitting a duplicate.
  JobSpec retry = keyed_spec("big", "drain-key-big");
  retry.prefix_bits = 12;
  const auto replay = client.submit(retry);
  ASSERT_TRUE(replay.has_value());
  EXPECT_TRUE(replay->admitted);
  EXPECT_EQ(replay->job_id, big_id);

  ASSERT_TRUE(client.wait_all());
  for (const std::uint64_t id : {big_id, stranded_id}) {
    const auto view = client.status(id);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->state, JobState::kCompleted) << view->detail;
  }
  // The job that crossed the restart produced the control run's bytes.
  const auto verify = client.verify(stranded_id);
  ASSERT_TRUE(verify.has_value() && verify->found);
  EXPECT_EQ(verify->payload_size, control_size);
  EXPECT_EQ(verify->payload_fnv1a, control_fnv);
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The same path (or swapped paths) passed as --journal and --archive must
// not erase either file: each log refuses the other's file untouched, and
// one file is never opened as both logs, even while it is empty.
TEST(SvcDaemon, StartRefusesSwappedJournalAndArchivePaths) {
  DaemonFixture fixture("swapped");
  {
    io::JobArchive archive(fixture.archive_path);
    core::ScanResult result;
    result.probes_sent = 7;
    ASSERT_TRUE(archive.append(1, result, {}));
    ASSERT_TRUE(archive.append(2, result, {}));
    JobJournal journal(fixture.journal_path, Durability::kFlush);
    ASSERT_TRUE(journal.append({}));
  }
  const std::string archive_bytes = read_file(fixture.archive_path);
  const std::string journal_bytes = read_file(fixture.journal_path);

  DaemonOptions options;
  options.socket_path = fixture.socket_path;
  options.state_dir = fixture.state_dir;
  options.archive_path = fixture.archive_path + ".fresh";
  options.journal_path = fixture.archive_path;
  EXPECT_FALSE(Daemon(options).start());
  options.archive_path = fixture.journal_path;
  options.journal_path = fixture.journal_path + ".fresh";
  EXPECT_FALSE(Daemon(options).start());
  options.archive_path = options.journal_path = fixture.archive_path;
  EXPECT_FALSE(Daemon(options).start());

  EXPECT_EQ(read_file(fixture.archive_path), archive_bytes);
  EXPECT_EQ(read_file(fixture.journal_path), journal_bytes);
  std::remove((fixture.archive_path + ".fresh").c_str());
  std::remove((fixture.journal_path + ".fresh").c_str());

  const std::string shared = fixture.state_dir + ".shared";
  std::remove(shared.c_str());
  options.archive_path = options.journal_path = shared;
  EXPECT_FALSE(Daemon(options).start());
  EXPECT_TRUE(read_file(shared).empty());
  std::remove(shared.c_str());
}

// A barrier checkpoint damaged on disk must not be resumed: recovery
// reruns the job from scratch, with the uncrashed run's bytes.
TEST(SvcDaemon, CorruptCheckpointRerunsTheJobFromScratch) {
  JobSpec spec = keyed_spec("damaged-checkpoint", "checkpoint-key", 11);
  spec.prefix_bits = 8;
  spec.checkpoint_interval = util::kMillisecond;
  std::uint64_t control_size = 0;
  std::uint64_t control_fnv = 0;
  {
    DaemonFixture control("checkpoint_control", /*workers=*/1);
    ASSERT_TRUE(control.daemon->start());
    Client client = control.connect();
    const auto submission = client.submit(spec);
    ASSERT_TRUE(submission.has_value() && submission->admitted);
    ASSERT_TRUE(client.wait_all());
    const auto verify = client.verify(submission->job_id);
    ASSERT_TRUE(verify.has_value() && verify->found);
    control_size = verify->payload_size;
    control_fnv = verify->payload_fnv1a;
  }

  // The disk state of a daemon that died mid-scan: job 1 admitted and
  // started, its first barrier checkpoint published — with one bit flipped.
  DaemonFixture fixture("damaged_checkpoint", /*workers=*/1);
  {
    JobJournal journal(fixture.journal_path, Durability::kFlush);
    JournalRecord record;
    record.job_id = 1;
    record.spec = spec;
    ASSERT_TRUE(journal.append(record));
    record.kind = JournalKind::kStarted;
    record.slices = 1;
    ASSERT_TRUE(journal.append(record));
  }
  const std::string checkpoint = fixture.state_dir + "/job_1.frck";
  ASSERT_TRUE(io::ensure_directory(fixture.state_dir));
  JobRunner runner(spec);
  bool published = false;
  const SliceResult slice = runner.run_slice(
      std::nullopt, [&](const io::ScanCheckpoint& barrier) {
        published = io::save_checkpoint_atomic(checkpoint, barrier, false);
        return BarrierDecision::kPreempt;
      });
  ASSERT_EQ(slice.outcome, SliceOutcome::kPreempted);
  ASSERT_TRUE(published);
  ASSERT_TRUE(io::load_checkpoint_file(checkpoint).has_value());
  std::string bytes = read_file(checkpoint);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 4);
  write_file(checkpoint, bytes);

  ASSERT_TRUE(fixture.daemon->start());
  EXPECT_NE(fixture.events.str().find("rerun from scratch after crash"),
            std::string::npos);
  Client client = fixture.connect();
  ASSERT_TRUE(client.wait_all());
  const auto verify = client.verify(1);
  ASSERT_TRUE(verify.has_value() && verify->found);
  EXPECT_EQ(verify->payload_size, control_size);
  EXPECT_EQ(verify->payload_fnv1a, control_fnv);
}

// One damaged byte inside an archived payload costs that job's result
// only: the later payloads still verify to their original digests.
TEST(SvcDaemon, CorruptArchivedPayloadCostsOnlyThatJob) {
  DaemonFixture fixture("damaged_payload");
  ASSERT_TRUE(fixture.daemon->start());
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> digests;
  {
    Client client = fixture.connect();
    for (std::uint64_t seed = 7; seed <= 9; ++seed) {
      const auto submission = client.submit(keyed_spec(
          "payload-" + std::to_string(seed), "key-" + std::to_string(seed),
          seed));
      ASSERT_TRUE(submission.has_value() && submission->admitted);
    }
    ASSERT_TRUE(client.wait_all());
    for (std::uint64_t id = 1; id <= 3; ++id) {
      const auto verify = client.verify(id);
      ASSERT_TRUE(verify.has_value() && verify->found);
      digests[id] = {verify->payload_size, verify->payload_fnv1a};
    }
  }
  fixture.restart();

  std::uint64_t damaged = 0;
  std::uint64_t damaged_frame_bytes = 0;
  {
    const io::JobArchive archive(fixture.archive_path);
    const io::JobArchive::Entry first = archive.index().at(0);
    damaged = first.job_id;
    damaged_frame_bytes = 8 + first.frame.size + 4;
    std::string bytes = read_file(fixture.archive_path);
    const std::size_t at = first.frame.offset + first.frame.size / 2;
    bytes[at] = static_cast<char>(~bytes[at]);
    write_file(fixture.archive_path, bytes);
  }

  ASSERT_TRUE(fixture.daemon->start());
  // The skipped frame is reported, not silently dropped.
  const obs::MetricsSnapshot metrics = fixture.daemon->metrics_snapshot();
  std::map<std::string, std::uint64_t> counters;
  for (std::size_t i = 0; i < metrics.counters.size(); ++i) {
    counters[metrics.counter_names[i]] = metrics.counters[i];
  }
  EXPECT_EQ(counters["svc.archive_corrupt_bytes"], damaged_frame_bytes);
  EXPECT_EQ(counters["svc.journal_corrupt_bytes"], 0u);
  Client client = fixture.connect();
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const auto verify = client.verify(id);
    ASSERT_TRUE(verify.has_value());
    if (id == damaged) {
      EXPECT_FALSE(verify->found);
      continue;
    }
    ASSERT_TRUE(verify->found) << "job " << id;
    EXPECT_EQ(verify->payload_size, digests[id].first) << "job " << id;
    EXPECT_EQ(verify->payload_fnv1a, digests[id].second) << "job " << id;
  }
}

TEST(SvcDaemon, AsyncShutdownRequestDrainsLikeAShutdownFrame) {
  DaemonFixture fixture("async");
  ASSERT_TRUE(fixture.daemon->start());
  {
    Client client = fixture.connect();
    const auto submission =
        client.submit(keyed_spec("async-job", "async-key"));
    ASSERT_TRUE(submission.has_value() && submission->admitted);
    ASSERT_TRUE(client.wait_all());
  }
  // What a SIGTERM handler would call: async-signal-safe, no locks.
  fixture.daemon->request_shutdown_async();
  fixture.daemon->wait();
  const std::string stream = fixture.events.str();
  EXPECT_NE(stream.find("\"type\":\"job_summary\""), std::string::npos);
  EXPECT_NE(stream.find("\"clean_shutdown\":true"), std::string::npos);
}

TEST(SvcDaemon, DrainDeadlineHardCancelsRunningSlices) {
  DaemonFixture fixture("deadline", /*workers=*/1, /*budget=*/1e6,
                        /*max_queued=*/8, /*deadline=*/util::kMillisecond);
  ASSERT_TRUE(fixture.daemon->start());
  Client client = fixture.connect();
  JobSpec slow = keyed_spec("slow", "deadline-key");
  slow.prefix_bits = 14;
  const auto submission = client.submit(slow);
  ASSERT_TRUE(submission.has_value() && submission->admitted);

  fixture.daemon->request_shutdown();
  fixture.daemon->wait();
  // The deadline (1ms) bounds the drain: the running slice is preempted
  // at its next barrier or hard-cancelled, whichever the races produce —
  // but the shutdown completes and writes its summary either way.
  EXPECT_NE(fixture.events.str().find("\"type\":\"job_summary\""),
            std::string::npos);

  // And the restart sees a resumable or terminal job, not a wedge.
  fixture.restart();
  ASSERT_TRUE(fixture.daemon->start());
  Client reclient = fixture.connect();
  ASSERT_TRUE(reclient.wait_all());
  const auto views = reclient.list();
  ASSERT_TRUE(views.has_value());
  for (const JobView& view : *views) {
    EXPECT_TRUE(job_state_terminal(view.state))
        << job_state_name(view.state);
  }
}

/// This process's resident set in KiB (VmRSS); 0 when unreadable.  Read
/// after handing the allocator's free pages back: the free memory glibc
/// keeps cached in the workers' arenas rises and falls with allocation
/// order, and is not memory the daemon holds.
std::uint64_t resident_kib() {
#ifdef __GLIBC__
  ::malloc_trim(0);
#endif
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FR_SANITIZER_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FR_SANITIZER_ALLOCATOR 1
#endif
#endif

// Memory soak: the daemon frees a job's runner, and the topology it built,
// when the job turns terminal, so its resident set stops growing with the
// jobs it has finished.  Each job builds its own 2^10 topology (~18 KiB):
// runners kept past their jobs would hold ~8 MiB more after 500 jobs.
// What may grow is each finished job's scheduler record and archive index
// entry, a few hundred bytes each.
TEST(SvcDaemon, ResidentSetStaysFlatOverFiveHundredJobs) {
#ifdef FR_SANITIZER_ALLOCATOR
  GTEST_SKIP() << "the sanitizer's allocator distorts RSS";
#else
  constexpr int kJobs = 500;
  constexpr int kWave = 10;
  DaemonFixture fixture("soak", /*workers=*/2, /*budget=*/1e6, kWave);
  DaemonOptions options = fixture.options();
  // No event sink: an in-memory stream would grow with every job.
  options.events = nullptr;
  fixture.daemon = std::make_unique<Daemon>(options);
  ASSERT_TRUE(fixture.daemon->start());
  auto client = Client::connect(options.socket_path);
  ASSERT_TRUE(client.has_value());
  std::uint64_t after_first_50 = 0;
  std::vector<std::uint64_t> wave;
  for (int job = 0; job < kJobs; job += kWave) {
    wave.clear();
    for (int k = 0; k < kWave; ++k) {
      JobSpec spec = quick_spec("soak", static_cast<std::uint64_t>(job + k));
      spec.prefix_bits = 10;
      const auto submission = client->submit(spec);
      ASSERT_TRUE(submission.has_value() && submission->admitted);
      wave.push_back(submission->job_id);
    }
    // Per-job status polls: a `list` reply would grow with the job count.
    for (const std::uint64_t id : wave) {
      const auto view = client->wait_job(id, 2);
      ASSERT_TRUE(view.has_value());
      ASSERT_EQ(view->state, JobState::kCompleted);
    }
    if (job + kWave == 50) after_first_50 = resident_kib();
  }
  const std::uint64_t after_all = resident_kib();
  ASSERT_GT(after_first_50, 0u) << "VmRSS unreadable";
  EXPECT_LE(after_all * 10, after_first_50 * 11)
      << "VmRSS " << after_first_50 << " KiB after 50 jobs, " << after_all
      << " KiB after " << kJobs;
#endif
}

TEST(SvcDaemon, StartFailsOnUnbindablePath) {
  DaemonFixture fixture("unbindable");
  DaemonOptions options = fixture.options();
  options.socket_path = "/nonexistent-dir/frd.sock";
  Daemon daemon(options);
  EXPECT_FALSE(daemon.start());
  // Everything but the socket was set up: the bind is what failed.
  EXPECT_TRUE(std::filesystem::is_directory(fixture.state_dir));
  EXPECT_TRUE(std::filesystem::exists(fixture.journal_path));
}

// There is no unjournaled mode to fall back to.
TEST(SvcDaemon, StartRefusesAnEmptyJournalPathOrStateDir) {
  DaemonFixture fixture("empty_paths");
  DaemonOptions options = fixture.options();
  options.journal_path.clear();
  EXPECT_FALSE(Daemon(options).start());
  options = fixture.options();
  options.state_dir.clear();
  EXPECT_FALSE(Daemon(options).start());
  EXPECT_TRUE(fixture.daemon->start());
}

// An archive can hold ids its journal never recorded: the journal was lost
// or moved aside, or another daemon wrote the archive.  Recovery numbers
// new jobs past them, so an id never names two jobs, and verify and diff
// of a new job never answer with an older job's payload.
TEST(SvcDaemon, NewJobsAreNumberedPastArchivedIdsTheJournalNeverHeld) {
  DaemonFixture fixture("archive_ahead", /*workers=*/1);
  JobSpec earlier = quick_spec("earlier", 7);
  earlier.prefix_bits = 12;
  {
    JobRunner runner(earlier);
    const SliceResult slice = runner.run_slice(
        std::nullopt,
        [](const io::ScanCheckpoint&) { return BarrierDecision::kContinue; });
    ASSERT_EQ(slice.outcome, SliceOutcome::kCompleted);
    io::JobArchive archive(fixture.archive_path);
    ASSERT_TRUE(archive.append(1, slice.result, runner.archive_header()));
  }

  ASSERT_TRUE(fixture.daemon->start());
  Client client = fixture.connect();
  const auto archived = client.verify(1);
  ASSERT_TRUE(archived.has_value() && archived->found);

  JobSpec fresh = quick_spec("new", 8);
  fresh.prefix_bits = 12;
  const auto submission = client.submit(fresh);
  ASSERT_TRUE(submission.has_value() && submission->admitted);
  EXPECT_EQ(submission->job_id, 2u);
  // The new job runs for milliseconds; until it completes, its id has no
  // archived result.
  const auto pending = client.verify(submission->job_id);
  ASSERT_TRUE(pending.has_value());
  EXPECT_FALSE(pending->found);
  const auto pending_diff = client.diff(1, submission->job_id);
  ASSERT_TRUE(pending_diff.has_value());
  EXPECT_FALSE(pending_diff->ok);

  const auto done = client.wait_job(submission->job_id, 2);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::kCompleted);
  EXPECT_EQ(done->name, "new");
  const auto verify = client.verify(submission->job_id);
  ASSERT_TRUE(verify.has_value() && verify->found);
  EXPECT_NE(verify->payload_fnv1a, archived->payload_fnv1a);
  const auto still_archived = client.verify(1);
  ASSERT_TRUE(still_archived.has_value() && still_archived->found);
  EXPECT_EQ(still_archived->payload_fnv1a, archived->payload_fnv1a);
  const auto diff = client.diff(1, submission->job_id);
  ASSERT_TRUE(diff.has_value());
  EXPECT_TRUE(diff->ok) << diff->error;
}

}  // namespace
}  // namespace flashroute::svc
