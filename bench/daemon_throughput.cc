// Daemon throughput / admission / preemption gates (DESIGN.md §12).
//
// Boots real in-process frd daemons (AF_UNIX socket, worker pool, archive,
// write-ahead journal at durability flush) and drives them through
// svc::Client exactly as frctl would, gating three service-level
// guarantees:
//
//  A. Throughput — N identical sim jobs pushed through one worker (serial)
//     and through the multi-worker pool (concurrent).  The gate is that
//     multiplexing costs little: concurrent aggregate probes/sec must be
//     >= 85% of the serial aggregate.  (On a multi-core host it is usually
//     well above 100% — the workers overlap; the gate guards the floor, not
//     the speedup, so single-core CI still passes.)
//
//  B. Admission — rejections are deterministic and machine-readable:
//     an invalid spec yields "bad_spec", a spec whose rate alone exceeds
//     the global pps budget yields "rate_exceeds_global_budget", and a
//     full waiting queue yields "queue_full".
//
//  C. Preemption determinism — a low-priority job preempted mid-scan by a
//     high-priority arrival (1 worker forces the conflict) and later
//     resumed must leave a byte-identical archive payload (size + FNV-1a)
//     to the same spec run on an uncontended daemon.  This is the PR 5
//     checkpoint-equivalence contract surfaced at the service layer.
//
// Writes BENCH_daemon.json; exits non-zero when any gate fails.
//
// Environment overrides:
//   FR_DAEMON_JOBS   jobs per throughput run (default 6)
//   FR_DAEMON_BITS   universe exponent per throughput job (default 12)
//   FR_WORKERS       concurrent-pool size (default 2)

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "svc/client.h"
#include "svc/daemon.h"
#include "svc/job.h"
#include "util/clock.h"

namespace flashroute {
namespace {

using bench::env_or;

std::string unique_path(const char* stem, int nonce) {
  return "/tmp/" + std::string(stem) + "." +
         std::to_string(static_cast<long>(::getpid())) + "." +
         std::to_string(nonce);
}

/// One in-process daemon plus the paths it owns; the archive, journal and
/// state dir are removed on destruction (the socket unlinks itself).
struct TestDaemon {
  std::string socket_path;
  std::string archive_path;
  std::string journal_path;
  std::string state_dir;
  std::ostringstream events;
  std::unique_ptr<svc::Daemon> daemon;

  static std::unique_ptr<TestDaemon> boot(int nonce, int workers,
                                          double budget, int max_queued) {
    auto td = std::make_unique<TestDaemon>();
    td->socket_path = unique_path("frd_bench", nonce);
    td->archive_path = unique_path("frd_bench_archive", nonce);
    td->journal_path = unique_path("frd_bench_journal", nonce);
    td->state_dir = unique_path("frd_bench_state", nonce);
    svc::DaemonOptions options;
    options.socket_path = td->socket_path;
    options.archive_path = td->archive_path;
    options.journal_path = td->journal_path;
    options.state_dir = td->state_dir;
    options.durability = svc::Durability::kFlush;
    options.events = &td->events;
    options.scheduler.num_workers = workers;
    options.scheduler.global_pps_budget = budget;
    options.scheduler.max_queued = max_queued;
    td->daemon = std::make_unique<svc::Daemon>(options);
    if (!td->daemon->start()) return nullptr;
    return td;
  }

  void stop() {
    if (daemon) {
      daemon->request_shutdown();
      daemon->wait();
    }
  }

  ~TestDaemon() {
    stop();
    std::remove(archive_path.c_str());
    std::remove(journal_path.c_str());
    for (int id = 1; id <= 128; ++id) {
      std::remove((state_dir + "/job_" + std::to_string(id) + ".frck").c_str());
    }
    ::rmdir(state_dir.c_str());
  }
};

svc::JobSpec throughput_spec(int bits, int index) {
  svc::JobSpec spec;
  spec.name = "tp" + std::to_string(index);
  spec.prefix_bits = bits;
  spec.scan_seed = 7 + static_cast<std::uint64_t>(index);
  spec.collect_routes = false;
  return spec;
}

struct ThroughputRun {
  int workers = 0;
  double wall_seconds = 0.0;
  std::uint64_t probes = 0;
  std::uint64_t completed = 0;
  double pps() const {
    return wall_seconds > 0.0 ? static_cast<double>(probes) / wall_seconds
                              : 0.0;
  }
};

/// Pushes `jobs` identical scans through a fresh daemon and measures the
/// wall time from first submit to last completion.
bool run_throughput(int nonce, int workers, int jobs, int bits,
                    ThroughputRun* out) {
  auto daemon = TestDaemon::boot(nonce, workers, 1e6, jobs + 1);
  if (!daemon) return false;
  auto client = svc::Client::connect(daemon->socket_path);
  if (!client) return false;

  util::MonotonicClock clock;
  const util::Nanos start = clock.now();
  for (int i = 0; i < jobs; ++i) {
    const auto submission = client->submit(throughput_spec(bits, i));
    if (!submission || !submission->admitted) return false;
  }
  if (!client->wait_all(2)) return false;
  const double wall =
      static_cast<double>(clock.now() - start) / util::kSecond;

  const auto views = client->list();
  if (!views) return false;
  out->workers = workers;
  out->wall_seconds = wall;
  for (const svc::JobView& view : *views) {
    out->probes += view.probes;
    if (view.state == svc::JobState::kCompleted) out->completed += 1;
  }
  daemon->stop();
  return out->completed == static_cast<std::uint64_t>(jobs);
}

/// Folds one measurement into a best-of accumulator.  Wall-clock noise on
/// a loaded single-core host is one-sided (scheduler stalls only ever slow
/// a run down), so the fastest rep estimates the true rate and keeps the
/// ratio gates from tripping on a hiccup in either numerator or
/// denominator.
bool keep_best(int nonce, int workers, int jobs, int bits, ThroughputRun* best,
               bool prior_ok) {
  ThroughputRun run;
  if (!run_throughput(nonce, workers, jobs, bits, &run)) {
    return prior_ok;
  }
  if (!prior_ok || run.pps() > best->pps()) *best = run;
  return true;
}

/// Spins on status() until the job leaves the queue (running, preempted, or
/// terminal).  Tight loop on purpose: the window before a fast sim job
/// finishes is small and the poll is a cheap local round trip.
bool wait_until_started(svc::Client& client, std::uint64_t id) {
  for (int spin = 0; spin < 2'000'000; ++spin) {
    const auto view = client.status(id);
    if (!view) return false;
    if (view->state != svc::JobState::kQueued) return true;
  }
  return false;
}

struct AdmissionResult {
  std::string bad_spec_reason;
  std::string over_budget_reason;
  std::string queue_full_reason;
  bool ok = false;
};

AdmissionResult run_admission(int nonce) {
  AdmissionResult result;
  auto daemon = TestDaemon::boot(nonce, /*workers=*/1, /*budget=*/10'000.0,
                                 /*max_queued=*/1);
  if (!daemon) return result;
  auto client = svc::Client::connect(daemon->socket_path);
  if (!client) return result;

  svc::JobSpec bad;
  bad.prefix_bits = 0;  // invalid: validate_scan wants [1, 24]
  const auto r1 = client->submit(bad);
  if (!r1 || r1->admitted) return result;
  result.bad_spec_reason = r1->reason;

  svc::JobSpec greedy;
  greedy.probes_per_second = 20'001.0;  // > the 10 kpps global budget
  const auto r2 = client->submit(greedy);
  if (!r2 || r2->admitted) return result;
  result.over_budget_reason = r2->reason;

  // Occupy the single worker with a long scan, queue one waiter behind it,
  // and watch the bounded queue turn the next submission away.
  svc::JobSpec runner;
  runner.name = "runner";
  runner.prefix_bits = 14;
  runner.probes_per_second = 9'000.0;
  const auto r3 = client->submit(runner);
  if (!r3 || !r3->admitted) return result;
  if (!wait_until_started(*client, r3->job_id)) return result;

  svc::JobSpec waiter = runner;
  waiter.name = "waiter";
  const auto r4 = client->submit(waiter);
  if (!r4 || !r4->admitted) return result;

  svc::JobSpec overflow = runner;
  overflow.name = "overflow";
  const auto r5 = client->submit(overflow);
  if (!r5 || r5->admitted) return result;
  result.queue_full_reason = r5->reason;

  // Tidy up: drop the queued waiter, let the runner finish.
  client->cancel(r4->job_id);
  if (!client->wait_all(2)) return result;
  daemon->stop();

  result.ok = result.bad_spec_reason == svc::kRejectBadSpec &&
              result.over_budget_reason ==
                  svc::kRejectRateExceedsGlobalBudget &&
              result.queue_full_reason == svc::kRejectQueueFull;
  return result;
}

struct PreemptionResult {
  bool preempted = false;       ///< contended run actually preempted L
  std::uint64_t slices = 0;     ///< L's slice count in the contended run
  std::uint64_t contended_size = 0;
  std::uint64_t contended_fnv = 0;
  std::uint64_t solo_size = 0;
  std::uint64_t solo_fnv = 0;
  int attempts = 0;
  bool ok = false;
};

svc::JobSpec preemption_victim() {
  svc::JobSpec spec;
  spec.name = "victim";
  spec.prefix_bits = 13;
  spec.probes_per_second = 20'000.0;
  spec.checkpoint_interval = 50 * util::kMillisecond;  // many barriers
  return spec;
}

/// One contended attempt: submit L, wait for it to hold the single worker,
/// then submit a higher-priority H.  True when L was preempted and both
/// jobs completed.
bool contended_attempt(int nonce, PreemptionResult* result) {
  auto daemon = TestDaemon::boot(nonce, /*workers=*/1, 1e6, 4);
  if (!daemon) return false;
  auto client = svc::Client::connect(daemon->socket_path);
  if (!client) return false;

  const auto victim = client->submit(preemption_victim());
  if (!victim || !victim->admitted) return false;
  if (!wait_until_started(*client, victim->job_id)) return false;

  svc::JobSpec intruder;
  intruder.name = "intruder";
  intruder.prefix_bits = 8;
  intruder.priority = 5;
  const auto high = client->submit(intruder);
  if (!high || !high->admitted) return false;

  if (!client->wait_all(2)) return false;
  const auto view = client->wait_job(victim->job_id);
  if (!view || view->state != svc::JobState::kCompleted) return false;

  const auto verify = client->verify(victim->job_id);
  if (!verify || !verify->found) return false;
  daemon->stop();

  const std::string events = daemon->events.str();
  const bool preempted =
      events.find("\"event\":\"preempted\"") != std::string::npos &&
      events.find("\"event\":\"resumed\"") != std::string::npos;
  if (!preempted || view->slices < 2) return false;

  result->preempted = true;
  result->slices = view->slices;
  result->contended_size = verify->payload_size;
  result->contended_fnv = verify->payload_fnv1a;
  return true;
}

PreemptionResult run_preemption(int nonce_base) {
  PreemptionResult result;

  // The intruder's arrival races the victim's (fast, virtual-time) scan, so
  // retry until an attempt lands inside the window.  Every successful
  // attempt must produce the same bytes, so retrying cannot mask a
  // determinism bug — only an arrival-timing miss.
  for (int attempt = 0; attempt < 10; ++attempt) {
    result.attempts = attempt + 1;
    if (contended_attempt(nonce_base + attempt, &result)) break;
    result.preempted = false;
  }
  if (!result.preempted) return result;

  auto daemon = TestDaemon::boot(nonce_base + 100, /*workers=*/1, 1e6, 4);
  if (!daemon) return result;
  auto client = svc::Client::connect(daemon->socket_path);
  if (!client) return result;
  const auto solo = client->submit(preemption_victim());
  if (!solo || !solo->admitted) return result;
  const auto view = client->wait_job(solo->job_id, 2);
  if (!view || view->state != svc::JobState::kCompleted) return result;
  const auto verify = client->verify(solo->job_id);
  if (!verify || !verify->found) return result;
  daemon->stop();

  result.solo_size = verify->payload_size;
  result.solo_fnv = verify->payload_fnv1a;
  result.ok = result.contended_size == result.solo_size &&
              result.contended_fnv == result.solo_fnv;
  return result;
}

}  // namespace
}  // namespace flashroute

int main() {
  using namespace flashroute;

  const int jobs = env_or<int>("FR_DAEMON_JOBS", 6, 1, 64);
  const int bits = env_or<int>("FR_DAEMON_BITS", 12, 1, 20);
  const int workers = env_or<int>("FR_WORKERS", 2, 1, 64);

  std::printf("=== daemon: throughput / admission / preemption gates ===\n");

  // Stage A interleaves its reps round-robin (serial, concurrent, repeat)
  // so a time-correlated slowdown — page-cache pressure, a neighbour
  // stealing the core — lands on both runs instead of biasing whichever
  // ran last; each run keeps its best rep.
  ThroughputRun serial;
  ThroughputRun concurrent;
  bool serial_ok = false;
  bool concurrent_ok = false;
  for (int rep = 0; rep < 3; ++rep) {
    serial_ok = keep_best(100 + rep, 1, jobs, bits, &serial, serial_ok);
    concurrent_ok =
        keep_best(200 + rep, workers, jobs, bits, &concurrent, concurrent_ok);
  }
  const double ratio =
      serial.pps() > 0.0 ? concurrent.pps() / serial.pps() : 0.0;
  const bool gate_throughput = serial_ok && concurrent_ok && ratio >= 0.85;
  std::printf(
      "throughput: %d jobs of 2^%d prefixes\n"
      "  serial     workers=1  wall=%.3fs  probes=%llu  pps=%.0f\n"
      "  concurrent workers=%d  wall=%.3fs  probes=%llu  pps=%.0f\n"
      "  concurrent/serial = %.2f (gate >= 0.85): %s\n",
      jobs, bits, serial.wall_seconds,
      static_cast<unsigned long long>(serial.probes), serial.pps(), workers,
      concurrent.wall_seconds,
      static_cast<unsigned long long>(concurrent.probes), concurrent.pps(),
      ratio, gate_throughput ? "PASS" : "FAIL");

  const AdmissionResult admission = run_admission(10);
  std::printf(
      "admission: bad_spec='%s' over_budget='%s' queue_full='%s': %s\n",
      admission.bad_spec_reason.c_str(),
      admission.over_budget_reason.c_str(),
      admission.queue_full_reason.c_str(), admission.ok ? "PASS" : "FAIL");

  const PreemptionResult preemption = run_preemption(20);
  std::printf(
      "preemption: attempts=%d slices=%llu contended=(%llu, 0x%016llx) "
      "solo=(%llu, 0x%016llx): %s\n",
      preemption.attempts,
      static_cast<unsigned long long>(preemption.slices),
      static_cast<unsigned long long>(preemption.contended_size),
      static_cast<unsigned long long>(preemption.contended_fnv),
      static_cast<unsigned long long>(preemption.solo_size),
      static_cast<unsigned long long>(preemption.solo_fnv),
      preemption.ok ? "PASS" : "FAIL");

  const char* path = "BENCH_daemon.json";
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(
      out,
      "{\n"
      "  \"bench\": \"daemon\",\n"
      "  \"jobs\": %d,\n"
      "  \"prefix_bits\": %d,\n"
      "  \"serial\": {\"workers\": 1, \"wall_seconds\": %.4f, "
      "\"probes\": %llu, \"pps\": %.1f},\n"
      "  \"concurrent\": {\"workers\": %d, \"wall_seconds\": %.4f, "
      "\"probes\": %llu, \"pps\": %.1f},\n"
      "  \"concurrent_over_serial\": %.4f,\n"
      "  \"admission\": {\"bad_spec\": \"%s\", \"over_budget\": \"%s\", "
      "\"queue_full\": \"%s\"},\n"
      "  \"preemption\": {\"attempts\": %d, \"slices\": %llu, "
      "\"contended_size\": %llu, \"contended_fnv1a\": %llu, "
      "\"solo_size\": %llu, \"solo_fnv1a\": %llu},\n"
      "  \"gates\": {\"throughput\": %s, \"admission\": %s, "
      "\"preemption\": %s}\n"
      "}\n",
      jobs, bits, serial.wall_seconds,
      static_cast<unsigned long long>(serial.probes), serial.pps(), workers,
      concurrent.wall_seconds,
      static_cast<unsigned long long>(concurrent.probes), concurrent.pps(),
      ratio, admission.bad_spec_reason.c_str(),
      admission.over_budget_reason.c_str(),
      admission.queue_full_reason.c_str(), preemption.attempts,
      static_cast<unsigned long long>(preemption.slices),
      static_cast<unsigned long long>(preemption.contended_size),
      static_cast<unsigned long long>(preemption.contended_fnv),
      static_cast<unsigned long long>(preemption.solo_size),
      static_cast<unsigned long long>(preemption.solo_fnv),
      gate_throughput ? "true" : "false", admission.ok ? "true" : "false",
      preemption.ok ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", path);

  return (gate_throughput && admission.ok && preemption.ok) ? 0 : 1;
}
