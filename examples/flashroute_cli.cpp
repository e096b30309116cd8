// flashroute_cli — a command-line front end mirroring the real tool.
//
// Drives the FlashRoute engine with the paper's knobs exposed as flags and
// writes discovered routes to stdout (or a file).  Two backends:
//
//   --backend=sim   (default) scan a deterministic simulated Internet in
//                   virtual time — reproducible, runs anywhere;
//   --backend=raw   scan the real network through raw sockets (Linux,
//                   requires CAP_NET_RAW; real time).  Use responsibly and
//                   with permission from your network operators — see the
//                   paper's ethics appendix.
//
// Examples:
//   flashroute_cli --prefix-bits=12 --split-ttl=16 --gap-limit=5
//   flashroute_cli --preprobe=hitlist --extra-scans=3 --routes=routes.txt
//   sudo flashroute_cli --backend=raw --pps=1000 --prefix-bits=4
//        --first-prefix=198.18.0.0   (continuation of the line above)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "core/exclusion.h"
#include "core/sharded_tracer.h"
#include "core/threaded_runtime.h"
#include "core/tracer.h"
#include "io/checkpoint.h"
#include "io/pcap.h"
#include "io/scan_archive.h"
#include "net/raw/raw_socket_wire.h"
#include "obs/metrics.h"
#include "obs/scan_metrics.h"
#include "obs/scan_tracer.h"
#include "obs/snapshot_exporter.h"
#include "sim/network.h"
#include "sim/runtime.h"
#include "sim/topology.h"
#include "util/logging.h"
#include "util/stats.h"

using namespace flashroute;

namespace {

struct CliOptions {
  std::string backend = "sim";
  int prefix_bits = 12;
  std::string first_prefix = "1.0.0.0";
  double pps = 0;  // 0 = auto (100 Kpps scaled for sim, 1 Kpps raw)
  int shards = 0;  // 0 = classic single-engine scan; N>=1 = sharded engine
  int split_ttl = 16;
  int gap_limit = 5;
  int max_ttl = 32;
  std::string preprobe = "random";  // none | random | hitlist
  int proximity_span = 5;
  int extra_scans = 0;
  bool redundancy = true;
  bool forward = true;
  std::uint64_t seed = 1;
  std::string routes_file;
  std::string routes_format = "text";  // text | csv
  std::string archive_file;            // binary scan archive output
  std::string inspect_file;            // read an archive instead of scanning
  std::string exclusion_file;
  std::string targets_file;
  std::string pcap_file;  // capture all probes and responses
  std::string metrics_file;         // JSONL telemetry stream (DESIGN.md §7)
  double metrics_interval_ms = 1000;  // snapshot cadence, virtual ms

  // Fault injection (sim backend only; DESIGN.md §9).
  double fault_probe_loss = 0;
  double fault_response_loss = 0;
  double fault_duplicate = 0;
  double fault_reorder = 0;
  double fault_corrupt = 0;
  double fault_blackhole = 0;
  double fault_flap = 0;
  double fault_send_fail = 0;

  // Resilience layer (DESIGN.md §9).
  int retransmit = 0;
  double retransmit_timeout_ms = 500;
  bool backoff = false;
  std::string checkpoint_file;         // write checkpoints here
  double checkpoint_interval_ms = 1000;
  std::string resume_file;             // resume a checkpointed scan
  bool help = false;

  bool any_fault() const {
    return fault_probe_loss > 0 || fault_response_loss > 0 ||
           fault_duplicate > 0 || fault_reorder > 0 || fault_corrupt > 0 ||
           fault_blackhole > 0 || fault_flap > 0 || fault_send_fail > 0;
  }
  bool resilience() const {
    return retransmit > 0 || backoff || !checkpoint_file.empty() ||
           !resume_file.empty();
  }
};

void print_usage() {
  std::puts(
      "flashroute_cli — massive-scale traceroute (FlashRoute reproduction)\n"
      "\n"
      "  --backend=sim|raw        simulated Internet (default) or raw sockets\n"
      "  --prefix-bits=N          scan 2^N /24 blocks (default 12)\n"
      "  --first-prefix=A.B.C.0   first /24 of the range (default 1.0.0.0)\n"
      "  --pps=R                  probing rate (default: auto)\n"
      "  --shards=N               run the sharded engine with N workers over\n"
      "                           a fixed 8-shard decomposition (sim backend\n"
      "                           only; results are identical for any N\n"
      "                           given the same seed; N is capped at 8)\n"
      "  --split-ttl=N            default split point (default 16)\n"
      "  --gap-limit=N            forward-probing gap limit (default 5)\n"
      "  --max-ttl=N              maximum explored TTL (default 32)\n"
      "  --preprobe=MODE          none | random | hitlist (default random)\n"
      "  --proximity-span=N       distance-prediction span (default 5)\n"
      "  --extra-scans=N          discovery-optimized extra scans (default 0)\n"
      "  --no-redundancy-removal  probe backward exhaustively\n"
      "  --no-forward             disable forward probing\n"
      "  --seed=N                 topology/permutation seed (default 1)\n"
      "  --routes=FILE            write discovered routes to FILE\n"
      "  --routes-format=F        text (default) or csv\n"
      "  --archive=FILE           write a binary scan archive to FILE\n"
      "  --inspect=FILE           summarize a previously saved archive\n"
      "  --exclude=FILE           CIDR opt-out list (one entry per line)\n"
      "  --targets=FILE           target list, one address per /24 (Sec 3.4)\n"
      "  --pcap=FILE              capture all probes/responses (pcap, raw IP)\n"
      "  --metrics-out=FILE       stream scan telemetry to FILE as JSONL:\n"
      "                           per-interval counter deltas and gauges,\n"
      "                           then one summary record (see DESIGN.md §7;\n"
      "                           deterministic for sim scans)\n"
      "  --metrics-interval=MS    telemetry snapshot cadence in (virtual)\n"
      "                           milliseconds (default 1000)\n"
      "\n"
      "fault injection (sim backend; deterministic per seed):\n"
      "  --fault-probe-loss=P     probability a probe vanishes en route\n"
      "  --fault-response-loss=P  probability a response vanishes\n"
      "  --fault-duplicate=P      probability a response is duplicated\n"
      "  --fault-reorder=P        probability a response is delayed/reordered\n"
      "  --fault-corrupt=P        probability a response is corrupted\n"
      "  --fault-blackhole=F      fraction of /24s persistently blackholed\n"
      "  --fault-flap=F           fraction of /24s behind a flapping link\n"
      "  --fault-send-fail=P      probability a local send fails (EAGAIN)\n"
      "\n"
      "resilience:\n"
      "  --retransmit=N           per-/24 retransmission budget (default 0)\n"
      "  --retransmit-timeout=MS  response deadline before re-sending\n"
      "                           (default 500)\n"
      "  --backoff                adaptive rate backoff on round loss\n"
      "  --checkpoint-out=FILE    checkpoint the scan to FILE at each\n"
      "                           interval (sim backend, unsharded)\n"
      "  --checkpoint-interval=MS checkpoint cadence in virtual ms\n"
      "                           (default 1000)\n"
      "  --resume-from=FILE       resume a scan from a checkpoint written\n"
      "                           by --checkpoint-out (same flags required,\n"
      "                           or exit 2 without scanning)\n"
      "  --help                   this text");
}

std::optional<CliOptions> parse_args(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::optional<std::string> v;
    const auto value_of = [&](const char* name) -> std::optional<std::string> {
      const std::string prefix = std::string(name) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if ((v = value_of("--backend"))) {
      options.backend = *v;
    } else if ((v = value_of("--prefix-bits"))) {
      options.prefix_bits = std::stoi(*v);
    } else if ((v = value_of("--first-prefix"))) {
      options.first_prefix = *v;
    } else if ((v = value_of("--pps"))) {
      options.pps = std::stod(*v);
    } else if ((v = value_of("--shards"))) {
      options.shards = std::stoi(*v);
    } else if ((v = value_of("--split-ttl"))) {
      options.split_ttl = std::stoi(*v);
    } else if ((v = value_of("--gap-limit"))) {
      options.gap_limit = std::stoi(*v);
    } else if ((v = value_of("--max-ttl"))) {
      options.max_ttl = std::stoi(*v);
    } else if ((v = value_of("--preprobe"))) {
      options.preprobe = *v;
    } else if ((v = value_of("--proximity-span"))) {
      options.proximity_span = std::stoi(*v);
    } else if ((v = value_of("--extra-scans"))) {
      options.extra_scans = std::stoi(*v);
    } else if (arg == "--no-redundancy-removal") {
      options.redundancy = false;
    } else if (arg == "--no-forward") {
      options.forward = false;
    } else if ((v = value_of("--seed"))) {
      options.seed = std::stoull(*v);
    } else if ((v = value_of("--routes"))) {
      options.routes_file = *v;
    } else if ((v = value_of("--routes-format"))) {
      options.routes_format = *v;
    } else if ((v = value_of("--archive"))) {
      options.archive_file = *v;
    } else if ((v = value_of("--inspect"))) {
      options.inspect_file = *v;
    } else if ((v = value_of("--exclude"))) {
      options.exclusion_file = *v;
    } else if ((v = value_of("--targets"))) {
      options.targets_file = *v;
    } else if ((v = value_of("--pcap"))) {
      options.pcap_file = *v;
    } else if ((v = value_of("--metrics-out"))) {
      options.metrics_file = *v;
    } else if ((v = value_of("--metrics-interval"))) {
      options.metrics_interval_ms = std::stod(*v);
    } else if ((v = value_of("--fault-probe-loss"))) {
      options.fault_probe_loss = std::stod(*v);
    } else if ((v = value_of("--fault-response-loss"))) {
      options.fault_response_loss = std::stod(*v);
    } else if ((v = value_of("--fault-duplicate"))) {
      options.fault_duplicate = std::stod(*v);
    } else if ((v = value_of("--fault-reorder"))) {
      options.fault_reorder = std::stod(*v);
    } else if ((v = value_of("--fault-corrupt"))) {
      options.fault_corrupt = std::stod(*v);
    } else if ((v = value_of("--fault-blackhole"))) {
      options.fault_blackhole = std::stod(*v);
    } else if ((v = value_of("--fault-flap"))) {
      options.fault_flap = std::stod(*v);
    } else if ((v = value_of("--fault-send-fail"))) {
      options.fault_send_fail = std::stod(*v);
    } else if ((v = value_of("--retransmit"))) {
      options.retransmit = std::stoi(*v);
    } else if ((v = value_of("--retransmit-timeout"))) {
      options.retransmit_timeout_ms = std::stod(*v);
    } else if (arg == "--backoff") {
      options.backoff = true;
    } else if ((v = value_of("--checkpoint-out"))) {
      options.checkpoint_file = *v;
    } else if ((v = value_of("--checkpoint-interval"))) {
      options.checkpoint_interval_ms = std::stod(*v);
    } else if ((v = value_of("--resume-from"))) {
      options.resume_file = *v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return std::nullopt;
    }
  }
  return options;
}

/// Closes a finished output file; false, after printing "cannot write
/// FILE", when any byte failed to reach it.  A full disk shows up only
/// here, when the buffered tail is flushed.
bool written(std::ofstream& out, const std::string& path) {
  out.close();
  if (out) return true;
  std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse_args(argc, argv);
  if (!options) {
    print_usage();
    return 2;
  }
  if (options->help) {
    print_usage();
    return 0;
  }

  if (!options->inspect_file.empty()) {
    const auto loaded = io::load_archive_file(options->inspect_file);
    if (!loaded) {
      std::fprintf(stderr,
                   "%s: not a readable FlashRoute scan archive (missing, "
                   "damaged, or written before archives carried a CRC)\n",
                   options->inspect_file.c_str());
      return 1;
    }
    const auto& r = loaded->result;
    std::printf("archive %s: universe 2^%d /24s from %s, seed %llu\n",
                options->inspect_file.c_str(), loaded->header.prefix_bits,
                net::Ipv4Address(loaded->header.first_prefix << 8)
                    .to_string()
                    .c_str(),
                static_cast<unsigned long long>(loaded->header.seed));
    std::printf("  interfaces %zu, probes %s, scan time %s, reached %s, "
                "mismatches %s\n",
                r.interfaces.size(),
                util::format_count(r.probes_sent).c_str(),
                util::format_duration(r.scan_time).c_str(),
                util::format_count(r.destinations_reached).c_str(),
                util::format_count(r.mismatches).c_str());
    std::size_t hops = 0;
    for (const auto& route : r.routes) hops += route.size();
    std::printf("  recorded hops %s across %zu prefixes\n",
                util::format_count(static_cast<std::uint64_t>(hops)).c_str(),
                r.routes.size());
    return 0;
  }

  const auto first = net::Ipv4Address::parse(options->first_prefix);
  if (!first) {
    std::fprintf(stderr, "bad --first-prefix: %s\n",
                 options->first_prefix.c_str());
    return 2;
  }

  core::TracerConfig config;
  config.first_prefix = net::prefix24_index(*first);
  config.prefix_bits = options->prefix_bits;
  config.split_ttl = static_cast<std::uint8_t>(options->split_ttl);
  config.gap_limit = static_cast<std::uint8_t>(options->gap_limit);
  config.max_ttl = static_cast<std::uint8_t>(options->max_ttl);
  config.proximity_span = static_cast<std::uint8_t>(options->proximity_span);
  config.extra_scans = options->extra_scans;
  config.redundancy_removal = options->redundancy;
  config.forward_probing = options->forward;
  config.seed = options->seed;
  if (options->preprobe == "none") {
    config.preprobe = core::PreprobeMode::kNone;
  } else if (options->preprobe == "random") {
    config.preprobe = core::PreprobeMode::kRandom;
  } else if (options->preprobe == "hitlist") {
    config.preprobe = core::PreprobeMode::kHitlist;
  } else {
    std::fprintf(stderr, "bad --preprobe: %s\n", options->preprobe.c_str());
    return 2;
  }

  // Resilience knobs (DESIGN.md §9).
  config.max_retransmits = static_cast<std::uint8_t>(
      std::clamp(options->retransmit, 0, 255));
  config.retransmit_timeout = static_cast<util::Nanos>(
      options->retransmit_timeout_ms * static_cast<double>(
                                           util::kMillisecond));
  config.adaptive_backoff = options->backoff;

  // Checkpoint/resume needs the single-engine virtual-time scan: the raw
  // backend cannot replay a timeline, and a sharded scan does not
  // checkpoint at all (DESIGN.md §9).
  if ((!options->checkpoint_file.empty() || !options->resume_file.empty()) &&
      (options->backend != "sim" || options->shards > 0)) {
    std::fprintf(stderr,
                 "--checkpoint-out/--resume-from require the unsharded sim "
                 "backend\n");
    return 2;
  }
  if (options->any_fault() && options->backend != "sim") {
    std::fprintf(stderr, "--fault-* flags require the sim backend\n");
    return 2;
  }

  std::uint64_t checkpoints_written = 0;
  if (!options->checkpoint_file.empty()) {
    config.checkpoint_interval = static_cast<util::Nanos>(
        options->checkpoint_interval_ms *
        static_cast<double>(util::kMillisecond));
    config.checkpoint_sink =
        [&options, &checkpoints_written](const io::ScanCheckpoint& cp) {
          // Atomic publish (DESIGN.md §14): a crash mid-write must never
          // leave a torn file where --resume-from expects a checkpoint.
          if (!io::save_checkpoint_atomic(options->checkpoint_file, cp)) {
            std::fprintf(stderr, "cannot write %s; aborting scan\n",
                         options->checkpoint_file.c_str());
            return false;
          }
          ++checkpoints_written;
          return true;
        };
  }

  std::optional<io::ScanCheckpoint> resume_checkpoint;
  if (!options->resume_file.empty()) {
    auto loaded = io::load_checkpoint_file(options->resume_file);
    if (!loaded) {
      std::fprintf(stderr, "%s: not a FlashRoute scan checkpoint\n",
                   options->resume_file.c_str());
      return 1;
    }
    // Every config field a checkpoint depends on is set by now.  A scan
    // that cannot resume the file is refused here: the engine would
    // otherwise rescan from scratch on the checkpoint's clock.
    if (loaded->config_digest != core::checkpoint_digest(config)) {
      std::fprintf(stderr,
                   "%s: checkpoint of a scan with other settings; not "
                   "resuming\n"
                   "  resume with the flags that wrote it: --checkpoint-out "
                   "and --checkpoint-interval, --retransmit,\n"
                   "  --retransmit-timeout and --backoff enter its config "
                   "digest, as do the scan flags\n",
                   options->resume_file.c_str());
      return 2;
    }
    resume_checkpoint = std::move(*loaded);
    std::printf("resuming from %s: %s elapsed, %llu rounds done\n",
                options->resume_file.c_str(),
                util::format_duration(resume_checkpoint->scan_elapsed).c_str(),
                static_cast<unsigned long long>(
                    resume_checkpoint->rounds_completed));
  }

  // Declared before the runtime so the runtime's receiver thread is joined
  // before the wire closes its sockets.
  std::unique_ptr<net::RawSocketWire> raw_wire;
  std::unique_ptr<core::ScanRuntime> runtime;
  std::unique_ptr<sim::Topology> topology;
  std::unique_ptr<sim::SimNetwork> network;
  sim::SimScanRuntime* sim_runtime = nullptr;  // for gauge registration
  std::vector<std::uint32_t> hitlist;

  if (options->backend == "sim") {
    sim::SimParams params;
    params.prefix_bits = options->prefix_bits;
    params.first_prefix = config.first_prefix;
    params.seed = options->seed;
    params.faults.probe_loss = options->fault_probe_loss;
    params.faults.response_loss = options->fault_response_loss;
    params.faults.duplicate_prob = options->fault_duplicate;
    params.faults.reorder_prob = options->fault_reorder;
    params.faults.corrupt_prob = options->fault_corrupt;
    params.faults.blackhole_fraction = options->fault_blackhole;
    params.faults.flap_fraction = options->fault_flap;
    params.faults.send_fail_prob = options->fault_send_fail;
    topology = std::make_unique<sim::Topology>(params);
    network = std::make_unique<sim::SimNetwork>(*topology);
    const double pps =
        options->pps > 0
            ? options->pps
            : sim::scaled_probe_rate(100'000.0, options->prefix_bits);
    config.probes_per_second = pps;
    config.vantage = net::Ipv4Address(params.vantage_address);
    // A resumed scan restarts the virtual clock at the checkpoint's cursor
    // so rate pacing and the fault schedule continue the same timeline.
    auto sim_rt = std::make_unique<sim::SimScanRuntime>(
        *network, pps,
        resume_checkpoint ? resume_checkpoint->virtual_now : 0);
    sim_runtime = sim_rt.get();
    runtime = std::move(sim_rt);
    if (config.preprobe == core::PreprobeMode::kHitlist) {
      hitlist = topology->generate_hitlist();
      config.hitlist = &hitlist;
    }
  } else if (options->backend == "raw") {
    if (options->shards > 0) {
      std::fprintf(stderr,
                   "--shards requires the sim backend (live scans run the "
                   "single-engine tracer)\n");
      return 2;
    }
    if (options->first_prefix == "1.0.0.0") {
      // Good-citizenship default: the user did not pick a range, so target
      // the RFC 2544 benchmarking block instead of allocated address space.
      std::fprintf(stderr,
                   "raw backend: no --first-prefix given; defaulting to the "
                   "benchmarking range 198.18.0.0\n");
      config.first_prefix = net::prefix24_index(
          net::Ipv4Address::from_octets(198, 18, 0, 0));
    }
    const double pps = options->pps > 0 ? options->pps : 1'000.0;
    config.probes_per_second = pps;
    if (config.preprobe == core::PreprobeMode::kHitlist) {
      std::fprintf(stderr,
                   "raw backend has no hitlist source; use --preprobe=random\n");
      return 2;
    }
    try {
      raw_wire = std::make_unique<net::RawSocketWire>();
      runtime = std::make_unique<core::ThreadedRuntime>(*raw_wire, pps);
    } catch (const net::TransportError& error) {
      std::fprintf(stderr, "raw backend unavailable: %s\n", error.what());
      return 1;
    }
  } else {
    std::fprintf(stderr, "bad --backend: %s\n", options->backend.c_str());
    return 2;
  }

  core::ExclusionList exclusions;
  if (!options->exclusion_file.empty()) {
    std::ifstream in(options->exclusion_file);
    const std::optional<std::size_t> entries =
        in ? exclusions.load(in) : std::nullopt;
    if (!entries.has_value()) {
      std::fprintf(stderr, "bad exclusion list: %s\n",
                   options->exclusion_file.c_str());
      return 2;
    }
    config.exclusions = &exclusions;
    std::printf("loaded %zu exclusion ranges\n", *entries);
  }

  std::vector<std::uint32_t> file_targets;
  if (!options->targets_file.empty()) {
    std::ifstream in(options->targets_file);
    std::size_t skipped = 0;
    auto loaded = in ? core::load_target_list(in, config.first_prefix,
                                              config.num_prefixes(), &skipped)
                     : std::nullopt;
    if (!loaded) {
      std::fprintf(stderr, "bad target list: %s\n",
                   options->targets_file.c_str());
      return 2;
    }
    file_targets = std::move(*loaded);
    config.target_override = &file_targets;
    if (skipped > 0) {
      std::fprintf(stderr, "warning: %zu targets outside the scanned range\n",
                   skipped);
    }
  }

  std::ofstream pcap_out;
  std::unique_ptr<io::CapturingRuntime> capturing;
  core::ScanRuntime* active_runtime = runtime.get();
  if (!options->pcap_file.empty()) {
    if (options->shards > 0) {
      std::fprintf(stderr, "--pcap cannot capture a sharded scan\n");
      return 2;
    }
    pcap_out.open(options->pcap_file, std::ios::binary);
    if (!pcap_out) {
      std::fprintf(stderr, "cannot write %s\n", options->pcap_file.c_str());
      return 1;
    }
    capturing = std::make_unique<io::CapturingRuntime>(*runtime, pcap_out);
    active_runtime = capturing.get();
  }

  // Telemetry (DESIGN.md §7): counters/histograms register before freeze;
  // the lane count is 1 for a classic scan and the logical shard count for
  // a sharded one, fixed below once the decomposition is known.
  obs::MetricsRegistry metrics_registry;
  std::unique_ptr<obs::ScanTracer> scan_tracer;
  const bool metrics_on = !options->metrics_file.empty();
  const auto metrics_interval = static_cast<util::Nanos>(
      options->metrics_interval_ms * static_cast<double>(util::kMillisecond));
  if (metrics_on) {
    config.telemetry.registry = &metrics_registry;
    config.telemetry.ids =
        obs::register_scan_metrics(metrics_registry, options->resilience());
  }

  std::unique_ptr<core::Tracer> tracer;
  std::unique_ptr<core::ShardedTracer> sharded_tracer;
  std::unique_ptr<sim::SimShardRuntimeProvider> shard_provider;
  core::ScanResult result;
  if (options->shards > 0) {
    core::ShardedTracerConfig sharded_config;
    sharded_config.base = config;
    sharded_config.num_workers = options->shards;
    // A fixed decomposition of 8 logical shards (fewer only when the scan
    // has fewer than 8 /24s).  Deliberately NOT derived from the worker
    // count — that is what makes the results identical for any --shards=N.
    sharded_config.shard_prefix_bits = std::max(config.prefix_bits - 3, 0);
    shard_provider = std::make_unique<sim::SimShardRuntimeProvider>(
        *topology, sharded_config);
    if (metrics_on) {
      metrics_registry.freeze(sharded_config.num_shards());
      scan_tracer = std::make_unique<obs::ScanTracer>(metrics_registry,
                                                      metrics_interval);
      sharded_config.base.telemetry.tracer = scan_tracer.get();
      // Shard i's counters and gauges both land on lane i (the per-shard
      // lane itself is assigned inside ShardedTracer::shard_config).
      shard_provider->register_gauges(metrics_registry);
    }
    sharded_tracer = std::make_unique<core::ShardedTracer>(sharded_config,
                                                           *shard_provider);
    std::printf("sharded scan: %d logical shards on %d workers\n",
                sharded_config.num_shards(),
                std::min(options->shards, sharded_config.num_shards()));
    result = sharded_tracer->run();
  } else {
    if (metrics_on) {
      metrics_registry.freeze(1);
      scan_tracer = std::make_unique<obs::ScanTracer>(metrics_registry,
                                                      metrics_interval);
      config.telemetry.tracer = scan_tracer.get();
      config.telemetry.lane = metrics_registry.lane(0);
      config.telemetry.lane_id = 0;
      if (sim_runtime != nullptr) {
        sim_runtime->register_gauges(metrics_registry, 0);
      }
    }
    tracer = std::make_unique<core::Tracer>(config, *active_runtime);
    result = tracer->run(std::move(resume_checkpoint));
  }
  if (capturing) {
    if (!written(pcap_out, options->pcap_file)) return 1;
    std::printf("capture written to %s\n", options->pcap_file.c_str());
  }

  if (metrics_on) {
    std::ofstream mout(options->metrics_file);
    if (!mout) {
      std::fprintf(stderr, "cannot write %s\n", options->metrics_file.c_str());
      return 1;
    }
    obs::SnapshotExporter exporter(mout);
    exporter.write_intervals(*scan_tracer, metrics_registry);
    exporter.write_summary(*scan_tracer, metrics_registry, result.scan_time);
    if (!written(mout, options->metrics_file)) return 1;
    std::printf("metrics written to %s\n", options->metrics_file.c_str());
  }

  std::printf("scan complete: %zu interfaces, %s probes, %s%s\n",
              result.interfaces.size(),
              util::format_count(result.probes_sent).c_str(),
              util::format_duration(result.scan_time).c_str(),
              options->backend == "sim" ? " (virtual time)" : "");
  std::printf("targets reached: %s; mismatched (rewritten) responses: %s\n",
              util::format_count(result.destinations_reached).c_str(),
              util::format_count(result.mismatches).c_str());
  if (options->resilience()) {
    std::printf("resilience: %s send failures, %s retransmits, "
                "%s timeouts, %s rate backoffs\n",
                util::format_count(result.send_failures).c_str(),
                util::format_count(result.retransmits).c_str(),
                util::format_count(result.probe_timeouts).c_str(),
                util::format_count(result.rate_backoffs).c_str());
  }
  if (!options->checkpoint_file.empty()) {
    std::printf("%llu checkpoint(s) written to %s\n",
                static_cast<unsigned long long>(checkpoints_written),
                options->checkpoint_file.c_str());
  }

  const io::TargetResolver resolver = [&](std::uint32_t offset) {
    return tracer ? tracer->target_of(offset)
                  : sharded_tracer->target_of(offset);
  };
  if (!options->routes_file.empty()) {
    std::ofstream out(options->routes_file);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", options->routes_file.c_str());
      return 1;
    }
    if (options->routes_format == "csv") {
      io::write_routes_csv(result, resolver, config.first_prefix, out);
    } else if (options->routes_format == "text") {
      io::write_routes_text(result, resolver, config.first_prefix, out);
    } else {
      std::fprintf(stderr, "bad --routes-format: %s\n",
                   options->routes_format.c_str());
      return 2;
    }
    if (!written(out, options->routes_file)) return 1;
    std::printf("routes written to %s (%s)\n", options->routes_file.c_str(),
                options->routes_format.c_str());
  }
  if (!options->archive_file.empty()) {
    if (!io::save_archive_file(
            options->archive_file, result,
            {config.first_prefix, config.prefix_bits, options->seed})) {
      std::fprintf(stderr, "cannot write %s\n",
                   options->archive_file.c_str());
      return 1;
    }
    std::printf("archive written to %s\n", options->archive_file.c_str());
  }
  return 0;
}
