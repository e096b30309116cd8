// frd — the FlashRoute continuous-scanning daemon (DESIGN.md §12, §14).
//
// Listens on an AF_UNIX socket for frctl clients, multiplexes their scan
// jobs onto a shared worker pool under a global probes-per-second budget,
// streams finished snapshots into a multi-job scan archive, and answers
// archive-backed diff queries.
//
// The daemon is crash-safe: every admission and lifecycle transition is
// journaled (--journal, default frd_journal.bin) before it becomes
// visible, and barrier checkpoints are published atomically under
// --state-dir (default frd_state).  Every boot replays the journal: it
// re-admits queued jobs, resumes interrupted ones from their last barrier,
// deduplicates retried submits by request key, and numbers new jobs past
// every id the journal or the archive already holds.
//
// Stop it with `frctl shutdown` or SIGTERM/SIGINT: the daemon drains
// (rejecting new work, preempting running jobs at their next checkpoint
// barrier, bounded by --drain-deadline-ms), keeps waiting jobs in the
// journal for the next boot, and writes the job_summary line.  kill -9 is
// recovered at the next boot.
//
// Examples:
//   frd --socket=/tmp/frd.sock --archive=/tmp/frd.bin --workers=2
//       --events=/tmp/frd_events.jsonl --journal=/tmp/frd.journal
//       --state-dir=/tmp/frd_state       (one command line)
//   frctl --socket=/tmp/frd.sock submit --name=morning --prefix-bits=8
//   frctl --socket=/tmp/frd.sock shutdown

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "svc/daemon.h"
#include "util/clock.h"
#include "util/flags.h"

using namespace flashroute;

namespace {

struct FrdOptions {
  std::string socket_path = "/tmp/frd.sock";
  std::string archive_path = "frd_archive.bin";
  std::string events_path;  // empty = no event stream
  std::string journal_path = "frd_journal.bin";
  std::string state_dir = "frd_state";
  svc::Durability durability = svc::Durability::kFlush;
  int drain_deadline_ms = 0;
  int workers = 2;
  double budget_pps = 100'000.0;
  int max_queued = 8;
  double rate_multiplier = 0.0;
  bool help = false;
};

void print_usage(std::FILE* out) {
  std::fputs(
      "usage: frd [FLAG=VALUE ...]\n"
      "continuous-scanning daemon (FlashRoute reproduction)\n"
      "\n"
      "  --socket=PATH         AF_UNIX listening socket (default /tmp/frd.sock)\n"
      "  --archive=PATH        multi-job scan archive (default frd_archive.bin)\n"
      "  --events=PATH         JSONL job-event stream ('-' = stdout; a file is\n"
      "                        opened in append mode so restarts merge streams)\n"
      "  --journal=PATH        write-ahead job journal, replayed at every boot\n"
      "                        (default frd_journal.bin)\n"
      "  --state-dir=PATH      barrier checkpoint directory (default frd_state)\n"
      "  --durability=MODE     journal and archive durability: flush | fsync\n"
      "                        (default flush)\n"
      "  --drain-deadline-ms=N graceful-drain budget on SIGTERM/shutdown;\n"
      "                        0 = wait for running slices (default 0)\n"
      "  --workers=N           concurrent scan workers (default 2)\n"
      "  --budget=PPS          global probes-per-second budget (default 100000)\n"
      "  --max-queued=N        admission queue bound (default 8)\n"
      "  --rate-multiplier=X   wall-credit multiplier for per-job budgets\n"
      "                        (default 0 = unmetered, fair-share only)\n"
      "\n"
      "Jobs are submitted with frctl submit and its scan flags.\n"
      "Stop with: frctl --socket=PATH shutdown   (or SIGTERM/SIGINT)\n",
      out);
}

/// The options, or nullopt after printing why they are not.
std::optional<FrdOptions> parse_args(int argc, char** argv) {
  FrdOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::optional<std::string_view> v;
    const auto value_of = [&](const char* name) {
      return (v = util::flag_value(arg, name)).has_value();
    };
    bool good = true;
    if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (value_of("--socket")) {
      options.socket_path = *v;
    } else if (value_of("--archive")) {
      options.archive_path = *v;
    } else if (value_of("--events")) {
      options.events_path = *v;
    } else if (value_of("--journal")) {
      options.journal_path = *v;
    } else if (value_of("--state-dir")) {
      options.state_dir = *v;
    } else if (value_of("--durability")) {
      const auto mode = io::parse_durability(*v);
      if (mode.has_value()) options.durability = *mode;
      good = mode.has_value();
    } else if (value_of("--drain-deadline-ms")) {
      good = util::read_number(*v, options.drain_deadline_ms);
    } else if (value_of("--workers")) {
      good = util::read_number(*v, options.workers);
    } else if (value_of("--budget")) {
      good = util::read_number(*v, options.budget_pps);
    } else if (value_of("--max-queued")) {
      good = util::read_number(*v, options.max_queued);
    } else if (value_of("--rate-multiplier")) {
      good = util::read_number(*v, options.rate_multiplier);
    } else {
      std::fprintf(stderr, "frd: unknown argument: %s\n", argv[i]);
      return std::nullopt;
    }
    if (!good) {
      std::fprintf(stderr, "frd: bad value: %s\n", argv[i]);
      return std::nullopt;
    }
  }
  return options;
}

// Signal plumbing: handlers may only call the async-signal-safe
// request_shutdown_async() (atomic store + pipe write).  The pointer is
// published before the handlers are installed and never changes after.
svc::Daemon* g_daemon = nullptr;

void handle_signal(int) {
  if (g_daemon != nullptr) g_daemon->request_shutdown_async();
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse_args(argc, argv);
  if (!options) {
    print_usage(stderr);
    return 2;
  }
  if (options->help) {
    print_usage(stdout);
    return 0;
  }

  std::ofstream events_file;
  std::ostream* events = nullptr;
  if (options->events_path == "-") {
    events = &std::cout;
  } else if (!options->events_path.empty()) {
    // Append, not truncate: a restarted daemon merges its event stream
    // with the crashed run's, and the schema checker validates the
    // concatenation (seq restarts at 1 per job segment).
    events_file.open(options->events_path, std::ios::app);
    if (!events_file) {
      std::fprintf(stderr, "frd: cannot open events file %s\n",
                   options->events_path.c_str());
      return 2;
    }
    events = &events_file;
  }

  svc::DaemonOptions daemon_options;
  daemon_options.socket_path = options->socket_path;
  daemon_options.archive_path = options->archive_path;
  daemon_options.events = events;
  daemon_options.journal_path = options->journal_path;
  daemon_options.state_dir = options->state_dir;
  daemon_options.durability = options->durability;
  daemon_options.drain_deadline =
      static_cast<util::Nanos>(options->drain_deadline_ms) * util::kMillisecond;
  daemon_options.scheduler.num_workers = options->workers;
  daemon_options.scheduler.global_pps_budget = options->budget_pps;
  daemon_options.scheduler.max_queued = options->max_queued;
  daemon_options.scheduler.rate_multiplier = options->rate_multiplier;

  svc::Daemon daemon(daemon_options);
  if (!daemon.start()) {
    std::fprintf(stderr, "frd: %s\n", daemon.start_error().c_str());
    return 1;
  }

  g_daemon = &daemon;
  struct sigaction action{};
  action.sa_handler = handle_signal;
  ::sigemptyset(&action.sa_mask);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  std::printf("frd: listening on %s (workers=%d budget=%.0f pps)\n",
              options->socket_path.c_str(), options->workers,
              options->budget_pps);
  std::fflush(stdout);

  daemon.wait();
  std::printf("frd: clean shutdown\n");
  return 0;
}
