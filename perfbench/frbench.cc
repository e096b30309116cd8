// frbench — one workload of the repository benchmark, in one process.
//
//   frbench --workload scan_full|scan_lossy|daemon_jobs --seed N
//           --seconds S --trace 0|1 [--spans FILE]
//
// Runs the workload against the program's public API, checks its outputs,
// and prints one JSON line: every end-to-end and per-layer metric (per-layer
// values are only measured with --trace 1), the attempted / failed counts,
// the result digest and build facts.  perfbench/run.py builds this binary,
// runs it once per process (VmHWM is monotone) and shapes the final report;
// README.md in this directory documents the workloads and metrics.

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "core/tracer.h"
#include "sim/network.h"
#include "sim/params.h"
#include "sim/runtime.h"
#include "sim/topology.h"
#include "svc/client.h"
#include "svc/daemon.h"
#include "svc/job.h"
#include "svc/job_runner.h"
#include "trace.h"
#include "util/rng.h"

namespace frbench {
namespace {

namespace fr = flashroute;

// ---------------------------------------------------------------------------
// Small helpers.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// num / den, or 0 when den is 0 (a count the workload never reached).
double ratio(auto num, auto den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

double seconds_between(std::int64_t start, std::int64_t end) {
  return static_cast<double>(end - start) / 1e9;
}

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (word >> (8 * i)) & 0xFF;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

double file_bytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size)
                                        : 0.0;
}

/// What one workload run measured and checked.
struct Report {
  std::map<std::string, double> values;  ///< metric name → value (README.md)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::vector<std::string> problems;  ///< the first few failure reasons

  void fail(const std::string& why) {
    ++failed;
    if (problems.size() < 8) problems.push_back(why);
  }
};

void write_spans(const std::string& path, const std::string& workload,
                 const SpanRecorder& spans) {
  if (path.empty()) return;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out, "{\"workload\": \"%s\", \"boundaries\": {",
               workload.c_str());
  bool first = true;
  for (int b = 0; b < kBoundaryCount; ++b) {
    const Aggregate& a = spans[b];
    if (a.count == 0) continue;
    std::fprintf(out,
                 "%s\n  \"%s\": {\"count\": %llu, \"units\": %llu, "
                 "\"total_ns\": %lld, \"log2_ns\": [",
                 first ? "" : ",", boundary_name(b),
                 static_cast<unsigned long long>(a.count),
                 static_cast<unsigned long long>(a.units),
                 static_cast<long long>(a.total_ns));
    first = false;
    for (std::size_t i = 0; i < a.log2_ns.size(); ++i) {
      std::fprintf(out, "%s%llu", i == 0 ? "" : ", ",
                   static_cast<unsigned long long>(a.log2_ns[i]));
    }
    std::fprintf(out, "]}");
  }
  std::fprintf(out, "},\n\"samples\": [");
  first = true;
  for (const SpanSample& s : spans.samples()) {
    std::fprintf(out,
                 "%s\n  {\"name\": \"%s\", \"parent\": \"%s\", "
                 "\"start_ns\": %lld, \"duration_ns\": %lld, \"units\": %llu}",
                 first ? "" : ",", boundary_name(s.boundary),
                 boundary_name(s.parent), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.duration_ns),
                 static_cast<unsigned long long>(s.units));
    first = false;
  }
  std::fprintf(out, "\n]}\n");
  std::fclose(out);
}

// ---------------------------------------------------------------------------
// Host speed (README.md, "Host speed").

/// The random-read time, in ns, of the host that reported times are scaled
/// to: about what the sampler below reads on a quiet host.
constexpr double kReferenceReadNs = 8.0;

/// Times this host's memory system while a workload runs.  A background
/// thread reads its own 64 MiB buffer at random in bursts of 20 000
/// independent reads, one burst every 10 ms (about 2% of one CPU).  Other
/// tenants' load on the shared caches and memory slows these reads and the
/// workload alike, by up to a third from minute to minute on the host the
/// benchmark was tuned on, while the sampler's reads never touch program
/// code.  Times measured over an interval are scaled by
/// kReferenceReadNs / (median burst read time over the same interval).
class HostSampler {
 public:
  static constexpr std::size_t kWords = std::size_t{1} << 24;
  static constexpr double kBufferMib = kWords * 4.0 / (1 << 20);

  HostSampler() : buffer_(kWords) {
    for (std::size_t i = 0; i < kWords; ++i) {
      buffer_[i] = static_cast<std::uint32_t>(i);
    }
    thread_ = std::thread([this] { sample(); });
  }
  ~HostSampler() {
    stop_.store(true);
    thread_.join();
  }
  HostSampler(const HostSampler&) = delete;
  HostSampler& operator=(const HostSampler&) = delete;

  /// Starts a new interval.
  void restart() {
    const std::lock_guard<std::mutex> lock(mutex_);
    samples_.clear();
  }

  /// Median read time, in ns, since restart().
  double read_ns() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return samples_.empty() ? kReferenceReadNs : median(samples_);
  }

  /// Factor that scales a time measured since restart() to the reference
  /// host (a rate is divided by it).
  double scale() const { return kReferenceReadNs / read_ns(); }

 private:
  void sample() {
    constexpr int kBurst = 20'000;
    std::uint64_t x = 1;
    std::uint64_t sum = 0;
    while (!stop_.load()) {
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < kBurst; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        sum += buffer_[(x >> 30) & (kWords - 1)];
      }
      const double ns = static_cast<double>(now_ns() - t0) / kBurst;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        samples_.push_back(ns);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    sink_ = sum;
  }

  std::vector<std::uint32_t> buffer_;
  std::atomic<bool> stop_{false};
  mutable std::mutex mutex_;
  std::vector<double> samples_;  // guarded by mutex_
  std::uint64_t sink_ = 0;       // keeps the reads
  std::thread thread_;
};

/// Reports a time measured over an interval the host ran at `scale`
/// (HostSampler::scale; pass 1 / scale for a rate), scaled to the reference
/// host; the measured value stays in the run record as "raw.<name>".
void report_scaled(Report& report, const std::string& name, double measured,
                   double scale) {
  report.values["raw." + name] = measured;
  report.values[name] = measured * scale;
}

// ---------------------------------------------------------------------------
// Scan workloads: scan_full and scan_lossy.

struct ScanPlan {
  fr::sim::SimParams params;
  fr::core::TracerConfig config;
};

/// The simulated world is fixed, like a dataset: topology seeds move the
/// deterministic outputs (probes, interfaces) by 10-45% between worlds,
/// which would drown the effect of any optimization.  The workload seed
/// picks what a run varies: the scan order, the probed address in every
/// /24, the fault schedule and the daemon's job mix.
constexpr std::uint64_t kWorldSeed = 1;

ScanPlan scan_plan(const std::string& workload, std::uint64_t seed) {
  const bool lossy = workload == "scan_lossy";
  ScanPlan plan;
  fr::sim::SimParams& p = plan.params;
  p.seed = kWorldSeed;
  p.topology_mode = fr::sim::TopologyMode::kSuccinct;
  p.prefix_bits = lossy ? 20 : 22;
  p.first_prefix = std::min(
      p.first_prefix, static_cast<std::uint32_t>((std::uint64_t{1} << 24) -
                                                 p.num_prefixes()));
  if (lossy) {
    p.faults.probe_loss = 0.10;
    p.faults.response_loss = 0.10;
    p.faults.fault_seed = seed ^ 0xFA17;
  }

  // The paper's default configuration: hitlist preprobing, split TTL 16,
  // gap limit 5, no route collection, 100 Kpps scaled to the universe.
  fr::core::TracerConfig& c = plan.config;
  c.first_prefix = p.first_prefix;
  c.prefix_bits = p.prefix_bits;
  c.vantage = fr::net::Ipv4Address(p.vantage_address);
  c.probes_per_second = fr::sim::scaled_probe_rate(100'000.0, p.prefix_bits);
  c.preprobe = fr::core::PreprobeMode::kHitlist;
  c.split_ttl = 16;
  c.gap_limit = 5;
  c.collect_routes = false;
  c.seed = seed;
  c.target_seed = seed + 42;
  if (lossy) {
    // Retransmission keeps the main phase on the scalar send loop.
    c.max_retransmits = 2;
    c.adaptive_backoff = true;
  }
  return plan;
}

std::uint64_t result_digest(const fr::core::ScanResult& r) {
  std::vector<std::uint32_t> interfaces(r.interfaces.begin(),
                                        r.interfaces.end());
  std::sort(interfaces.begin(), interfaces.end());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint32_t ip : interfaces) h = fnv1a(h, ip);
  for (const std::uint64_t word :
       {r.probes_sent, r.preprobe_probes, r.responses, r.mismatches,
        r.destinations_reached, r.distances_measured, r.convergence_stops,
        r.send_failures, r.retransmits, r.probe_timeouts, r.rate_backoffs,
        static_cast<std::uint64_t>(r.scan_time)}) {
    h = fnv1a(h, word);
  }
  return h;
}

constexpr int kSetupReps = 5;

void run_scan(const Options& opt, HostSampler& host, Report& report) {
  ScanPlan plan = scan_plan(opt.workload, opt.seed);

  // Set-up: topology and hitlist, built kSetupReps times; the median is the
  // reported set-up time and the last build is scanned.
  host.restart();
  std::vector<double> setup_s;
  std::vector<double> topology_s;
  std::unique_ptr<fr::sim::Topology> topology;
  std::vector<std::uint32_t> hitlist;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    topology.reset();
    hitlist = {};
    const std::int64_t t0 = now_ns();
    topology = std::make_unique<fr::sim::Topology>(plan.params);
    const std::int64_t t1 = now_ns();
    hitlist = topology->generate_hitlist();
    const std::int64_t t2 = now_ns();
    topology_s.push_back(seconds_between(t0, t1));
    setup_s.push_back(seconds_between(t0, t2));
  }
  plan.config.hitlist = &hitlist;
  const double setup_scale = host.scale();

  // Measure: one whole scan.  --seconds does not apply: a scan_full scan
  // takes longer than any window the benchmark uses, and scan_lossy is kept
  // to one scan like it.
  SpanRecorder spans;
  fr::sim::SimNetwork network(*topology);
  fr::sim::SimScanRuntime sim_runtime(network, plan.config.probes_per_second);
  std::optional<TimedRuntime> timed_runtime;
  if (opt.trace) timed_runtime.emplace(sim_runtime, spans);
  fr::core::ScanRuntime& runtime =
      opt.trace ? static_cast<fr::core::ScanRuntime&>(*timed_runtime)
                : sim_runtime;
  fr::core::Tracer tracer(plan.config, runtime);

  host.restart();
  const std::int64_t t0 = now_ns();
  const fr::core::ScanResult result = tracer.run();
  const std::int64_t t1 = now_ns();
  const double scale = host.scale();
  if (opt.trace) {
    spans.record(kTracerRun, kNone, t0, t1 - t0, result.probes_sent);
  }

  report.attempted = 1;
  report.digest = result_digest(result);
  if (result.interfaces.empty() || result.probes_sent == 0) {
    report.fail("scan found no interfaces");
  }
  const fr::sim::NetworkStats stats = network.stats();
  const fr::sim::FaultPlane* faults = network.fault_plane();
  const double wall = seconds_between(t0, t1);
  const double probes = static_cast<double>(result.probes_sent);
  const double interfaces = static_cast<double>(result.interfaces.size());
  report_scaled(report, "setup_s", median(setup_s), setup_scale);
  report_scaled(report, "scan_wall_s", wall, scale);
  report_scaled(report, "scan_mpps", probes / wall / 1e6, 1.0 / scale);
  report.values["probes_sent"] = probes;
  report.values["interfaces_found"] = interfaces;
  report.values["virtual_scan_s"] = ratio(result.scan_time, 1e9);
  // On a scan workload the job is the whole scan: these restate
  // scan_wall_s (README.md).
  report_scaled(report, "job_latency_p50_ms", 1e3 * wall, scale);
  report_scaled(report, "job_latency_p95_ms", 1e3 * wall, scale);
  report_scaled(report, "jobs_per_s", 1.0 / wall, 1.0 / scale);
  report.values["host.read_ns"] = host.read_ns();

  auto& v = report.values;
  v["core.interfaces_per_kprobe"] = 1e3 * interfaces / probes;
  v["core.preprobe_share"] = ratio(result.preprobe_probes, result.probes_sent);
  v["core.retransmits"] = static_cast<double>(result.retransmits);
  v["core.rate_backoffs"] = static_cast<double>(result.rate_backoffs);
  v["core.send_failures"] = static_cast<double>(result.send_failures);
  v["sim.topology_build_s"] = median(topology_s);
  v["sim.responses_per_probe"] = ratio(stats.responses(), stats.probes);
  v["sim.rate_limited"] = static_cast<double>(stats.rate_limited);
  v["sim.faults_injected"] =
      faults == nullptr ? 0.0 : static_cast<double>(faults->stats().total());
  if (opt.trace) {
    const Aggregate& run = spans[kTracerRun];
    const Aggregate& sink = spans[kSink];
    const Aggregate& scalar = spans[kTrySend];
    const Aggregate& batch = spans[kTrySendBatch];
    std::int64_t runtime_ns = 0;
    for (const int b : {kTrySend, kTrySendBatch, kDrainBatch, kBatchBudget,
                        kSetRate, kDrain, kIdleUntil}) {
      runtime_ns += spans[b].total_ns;
    }
    const std::int64_t deliver_ns = spans[kDrain].total_ns +
                                    spans[kDrainBatch].total_ns +
                                    spans[kIdleUntil].total_ns -
                                    sink.total_ns;
    const double submitted = static_cast<double>(scalar.count + batch.units);
    v["core.self_ns_per_probe"] =
        ratio(run.total_ns - runtime_ns, result.probes_sent);
    v["core.response_ns"] = ratio(sink.total_ns, sink.count);
    v["core.probes_per_submit"] = ratio(batch.units, batch.count);
    v["core.scalar_send_share"] = ratio(scalar.count, submitted);
    v["sim.submit_ns_per_probe"] =
        ratio(scalar.total_ns + batch.total_ns, submitted);
    v["sim.deliver_ns_per_response"] = ratio(deliver_ns, sink.count);
    write_spans(opt.spans_path, opt.workload, spans);
  }
}

// ---------------------------------------------------------------------------
// Daemon workload: daemon_jobs.

constexpr int kSpecs = 4;
constexpr int kDaemonBoots = 41;
constexpr int kConcurrency = 4;
constexpr int kWorkers = 2;
constexpr int kDiffEvery = 8;

std::vector<fr::svc::JobSpec> daemon_specs(std::uint64_t seed) {
  std::vector<fr::svc::JobSpec> specs;
  for (int i = 0; i < kSpecs; ++i) {
    fr::svc::JobSpec spec;
    spec.name = "bench" + std::to_string(i);
    spec.prefix_bits = 12;
    spec.topology_seed = kWorldSeed;
    spec.scan_seed = seed * kSpecs + static_cast<std::uint64_t>(i) + 1;
    spec.target_seed = seed + 42;
    spec.collect_routes = true;
    specs.push_back(spec);
  }
  return specs;
}

/// One in-process frd with the journal on, plus the stream its events go
/// to.  Paths are relative to the working directory run.py chose.
struct BootedDaemon {
  std::ostringstream events;  // outlives the daemon that writes it
  std::string prefix = "frd";
  std::unique_ptr<fr::svc::Daemon> daemon;
  std::optional<fr::svc::Client> client;

  std::string archive() const { return prefix + ".archive"; }
  std::string journal() const { return prefix + ".journal"; }

  void stop() {
    if (daemon) {
      daemon->request_shutdown();
      daemon->wait();
    }
  }
};

std::unique_ptr<BootedDaemon> boot_daemon() {
  auto d = std::make_unique<BootedDaemon>();
  fr::svc::DaemonOptions options;
  options.socket_path = d->prefix + ".sock";
  options.archive_path = d->archive();
  options.journal_path = d->journal();
  options.state_dir = d->prefix + ".state";
  options.durability = fr::svc::Durability::kFlush;
  options.events = &d->events;
  options.scheduler.num_workers = kWorkers;
  d->daemon = std::make_unique<fr::svc::Daemon>(options);
  if (!d->daemon->start()) return nullptr;
  d->client = fr::svc::Client::connect(options.socket_path);
  if (!d->client) return nullptr;
  return d;
}

/// Per-job timings read back from the daemon's JSONL event stream (t_ns).
struct JobTimes {
  std::int64_t admitted = -1;
  std::int64_t first_running = -1;
  std::int64_t slice_start = -1;
  std::int64_t completed = -1;
  std::int64_t executing = 0;  ///< summed slice time
};

std::int64_t field_int(const std::string& line, const char* key) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return -1;
  return std::strtoll(line.c_str() + at + std::strlen(key), nullptr, 10);
}

std::map<std::int64_t, JobTimes> parse_events(const std::string& stream) {
  std::map<std::int64_t, JobTimes> jobs;
  std::istringstream in(stream);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"job_event\"") == std::string::npos) continue;
    const std::int64_t t = field_int(line, "\"t_ns\":");
    JobTimes& job = jobs[field_int(line, "\"job\":")];
    const auto is = [&](const char* event) {
      return line.find(std::string("\"event\":\"") + event + "\"") !=
             std::string::npos;
    };
    if (is("admitted")) {
      job.admitted = t;
    } else if (is("running") || is("resumed")) {
      if (job.first_running < 0) job.first_running = t;
      job.slice_start = t;
    } else if (is("preempted") || is("completed") || is("failed") ||
               is("cancelled")) {
      if (job.slice_start >= 0) job.executing += t - job.slice_start;
      job.slice_start = -1;
      if (is("completed")) job.completed = t;
    }
  }
  return jobs;
}

struct SpecReference {
  std::uint64_t probes = 0;
  std::uint64_t interfaces = 0;
  double virtual_scan_s = 0.0;
};

/// Each spec run once in-process through the same svc::JobRunner the
/// daemon's workers use (it builds the job's topology, then scans).  Daemon
/// jobs must match these results.
std::vector<SpecReference> reference_results(
    const std::vector<fr::svc::JobSpec>& specs) {
  std::vector<SpecReference> reference;
  for (const fr::svc::JobSpec& spec : specs) {
    fr::svc::JobRunner runner(spec);
    const fr::svc::SliceResult slice = runner.run_slice(
        std::nullopt, [](const fr::io::ScanCheckpoint&) {
          return fr::svc::BarrierDecision::kContinue;
        });
    reference.push_back(
        {slice.probes_total, slice.result.interfaces.size(),
         static_cast<double>(slice.result.scan_time) / 1e9});
  }
  return reference;
}

void run_daemon(const Options& opt, HostSampler& host, Report& report) {
  const std::vector<fr::svc::JobSpec> specs = daemon_specs(opt.seed);
  const std::vector<SpecReference> reference = reference_results(specs);

  // Set-up: daemon start plus client connect, kDaemonBoots times over the
  // same files (the first start creates them, the others restart on them);
  // the median is reported and the last daemon serves the workload.
  std::vector<double> setup_s;
  std::unique_ptr<BootedDaemon> d;
  for (int rep = 0; rep < kDaemonBoots; ++rep) {
    if (d) {
      d->stop();
      d.reset();  // its socket is unlinked before the next start binds
    }
    const std::int64_t t0 = now_ns();
    d = boot_daemon();
    setup_s.push_back(seconds_between(t0, now_ns()));
    if (!d) {
      report.fail("daemon failed to start");
      return;
    }
  }
  std::vector<std::optional<fr::svc::VerifyReply>> first_payload(kSpecs);
  fr::svc::Client& client = *d->client;

  SpanRecorder spans;
  std::vector<double> submit_us;
  std::vector<double> poll_us;
  std::vector<double> diff_ms;
  // Client RPCs are timed only in the traced run.
  const auto rpc = [&](int boundary, std::vector<double>* samples,
                       double scale, auto&& call) {
    if (!opt.trace) return call();
    const std::int64_t t0 = now_ns();
    auto reply = call();
    const std::int64_t dt = now_ns() - t0;
    spans.record(boundary, kNone, t0, dt, 1);
    if (samples != nullptr) samples->push_back(static_cast<double>(dt) * scale);
    return reply;
  };

  struct Pending {
    std::uint64_t id;
    int spec;
    std::int64_t submitted;
  };
  std::vector<Pending> pending;
  std::vector<double> latency_ms;
  std::vector<double> slices;
  std::uint64_t completed_probes = 0;
  std::uint64_t admitted = 0;
  std::uint64_t last_completed_id = 0;
  int last_completed_spec = -1;
  fr::util::Xoshiro256 rng(opt.seed);
  bool transport_ok = true;

  // Closed loop: one client keeps kConcurrency jobs outstanding, polling
  // their status, until --seconds have passed; then it drains.
  host.restart();
  const std::int64_t begin = now_ns();
  const auto end = begin + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::int64_t last_done = begin;
  while (transport_ok) {
    while (now_ns() < end && pending.size() < kConcurrency) {
      const int s = static_cast<int>(rng() % kSpecs);
      const std::int64_t t0 = now_ns();
      const auto sub = rpc(kSubmit, &submit_us, 1e-3, [&] {
        return client.submit(specs[static_cast<std::size_t>(s)]);
      });
      ++report.attempted;
      if (!sub) {
        transport_ok = false;
        report.fail("submit: daemon unreachable");
        break;
      }
      if (!sub->admitted) {
        report.fail("submit rejected: " + sub->reason);
        continue;
      }
      ++admitted;
      pending.push_back({sub->job_id, s, t0});
    }
    if (pending.empty()) break;

    bool progressed = false;
    for (auto it = pending.begin(); transport_ok && it != pending.end();) {
      const auto view =
          rpc(kStatus, &poll_us, 1e-3, [&] { return client.status(it->id); });
      if (!view) {
        transport_ok = false;
        report.fail("status: daemon unreachable");
        break;
      }
      if (!fr::svc::job_state_terminal(view->state)) {
        ++it;
        continue;
      }
      const std::int64_t done = now_ns();
      last_done = done;
      progressed = true;
      const Pending job = *it;
      it = pending.erase(it);
      if (view->state != fr::svc::JobState::kCompleted) {
        report.fail(std::string("job ") + fr::svc::job_state_name(view->state));
        continue;
      }
      latency_ms.push_back(static_cast<double>(done - job.submitted) / 1e6);
      slices.push_back(static_cast<double>(view->slices));
      completed_probes += view->probes;
      const SpecReference& ref =
          reference[static_cast<std::size_t>(job.spec)];
      auto& first = first_payload[static_cast<std::size_t>(job.spec)];
      const auto payload =
          rpc(kVerify, nullptr, 0.0, [&] { return client.verify(job.id); });
      if (!payload || !payload->found) {
        report.fail("verify: archived payload missing");
      } else if (first && (payload->payload_size != first->payload_size ||
                           payload->payload_fnv1a != first->payload_fnv1a)) {
        report.fail("payload differs from the first job of its spec");
      } else if (view->probes != ref.probes) {
        report.fail("job probes differ from the in-process reference");
      } else if (!first) {
        first = payload;
      }
      // Every kDiffEvery-th completion diffs it against the previous
      // completed job of another spec: archive reads beside the writes.
      if (latency_ms.size() % kDiffEvery == 0 && last_completed_spec >= 0 &&
          last_completed_spec != job.spec) {
        ++report.attempted;
        const auto diff = rpc(kDiff, &diff_ms, 1e-6, [&] {
          return client.diff(last_completed_id, job.id);
        });
        const auto& before =
            reference[static_cast<std::size_t>(last_completed_spec)];
        if (!diff || !diff->ok) {
          report.fail("diff failed");
        } else if (diff->interfaces_before != before.interfaces ||
                   diff->interfaces_after != ref.interfaces) {
          report.fail("diff interface counts differ from the reference");
        }
      }
      last_completed_id = job.id;
      last_completed_spec = job.spec;
    }
    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  const double wall = seconds_between(begin, last_done);
  const double scale = host.scale();
  d->stop();

  const std::map<std::int64_t, JobTimes> times = parse_events(d->events.str());
  std::vector<double> executing_s;
  std::vector<double> queue_wait_ms;
  std::vector<double> run_ms;
  for (const auto& [id, job] : times) {
    if (job.completed < 0 || job.first_running < 0) continue;
    executing_s.push_back(static_cast<double>(job.executing) / 1e9);
    run_ms.push_back(static_cast<double>(job.completed - job.first_running) /
                     1e6);
    if (job.admitted >= 0) {
      queue_wait_ms.push_back(
          static_cast<double>(job.first_running - job.admitted) / 1e6);
    }
  }
  if (latency_ms.empty()) {
    report.fail("no job completed");
    return;
  }

  std::vector<double> probes;
  std::vector<double> interfaces;
  std::vector<double> virtual_s;
  for (const SpecReference& ref : reference) {
    probes.push_back(static_cast<double>(ref.probes));
    interfaces.push_back(static_cast<double>(ref.interfaces));
    virtual_s.push_back(ref.virtual_scan_s);
  }
  for (const auto& payload : first_payload) {
    if (payload) report.digest = fnv1a(report.digest, payload->payload_fnv1a);
  }
  const double jobs = static_cast<double>(latency_ms.size());
  // Start plus connect waits on thread wake-ups and file creation, not on
  // the memory system, so setup_s is not scaled here.
  report.values["setup_s"] = median(setup_s);
  report_scaled(report, "scan_wall_s", median(executing_s), scale);
  report_scaled(report, "scan_mpps", ratio(completed_probes, wall) / 1e6,
                1.0 / scale);
  report.values["probes_sent"] = mean(probes);
  report.values["interfaces_found"] = mean(interfaces);
  report.values["virtual_scan_s"] = mean(virtual_s);
  report_scaled(report, "job_latency_p50_ms", median(latency_ms), scale);
  report_scaled(report, "job_latency_p95_ms", percentile(latency_ms, 0.95),
                scale);
  report_scaled(report, "jobs_per_s", jobs / wall, 1.0 / scale);
  report.values["host.read_ns"] = host.read_ns();

  report.values["svc.queue_wait_p50_ms"] = median(queue_wait_ms);
  report.values["svc.run_p50_ms"] = median(run_ms);
  report.values["svc.slices_per_job"] = mean(slices);
  report.values["io.journal_bytes_per_job"] =
      ratio(file_bytes(d->journal()), admitted);
  report.values["io.archive_bytes_per_job"] = file_bytes(d->archive()) / jobs;
  if (opt.trace) {
    report.values["svc.submit_rtt_p50_us"] = median(submit_us);
    report.values["svc.submit_rtt_p95_us"] = percentile(submit_us, 0.95);
    report.values["svc.poll_rtt_p50_us"] = median(poll_us);
    report.values["svc.diff_rtt_p50_ms"] = median(diff_ms);
    write_spans(opt.spans_path, opt.workload, spans);
  }
}

// ---------------------------------------------------------------------------

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      opt.trace = value == "1";
    } else if (key == "--spans") {
      opt.spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 &&
         (opt.workload == "scan_full" || opt.workload == "scan_lossy" ||
          opt.workload == "daemon_jobs");
}

}  // namespace
}  // namespace frbench

int main(int argc, char** argv) {
  using namespace frbench;
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: frbench --workload scan_full|scan_lossy|daemon_jobs "
                 "--seed N --seconds S --trace 0|1 [--spans FILE]\n");
    return 2;
  }

  Report report;
  {
    HostSampler host;
    if (opt.workload == "daemon_jobs") {
      run_daemon(opt, host, report);
    } else {
      run_scan(opt, host, report);
    }
  }
  // The sampler's buffer is resident from start to end; it is not the
  // program's.
  report.values["peak_rss_mib"] =
      ratio(flashroute::bench::peak_rss_kb(), 1024.0) - HostSampler::kBufferMib;

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"attempted\": %llu, \"failed\": %llu, "
              "\"digest\": \"%016llx\", \"build_type\": \"%s\", "
              "\"cxx_flags\": \"%s\", \"compiler\": \"%s\", \"problems\": [",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0,
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.digest),
              FRBENCH_BUILD_TYPE, FRBENCH_CXX_FLAGS, __VERSION__);
  for (std::size_t i = 0; i < report.problems.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", report.problems[i].c_str());
  }
  std::printf("], \"values\": {");
  bool first = true;
  for (const auto& [name, value] : report.values) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(),
                std::isfinite(value) ? value : 0.0);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
