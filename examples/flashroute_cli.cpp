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
// The scan itself is an svc::ScanSpec, read from the flags `frctl submit`
// takes too (svc/scan_spec.h): the same flags run the same scan here and
// as an frd job, byte for byte.  A malformed or refused spec prints why
// and the usage, and exits 2.
//
// Examples:
//   flashroute_cli --prefix-bits=12 --split-ttl=16 --gap-limit=5
//   flashroute_cli --preprobe=hitlist --extra-scans=3 --routes=routes.txt
//   sudo flashroute_cli --backend=raw --pps=1000 --prefix-bits=4
//        --first-prefix=198.18.0.0   (continuation of the line above)

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

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
#include "svc/scan_spec.h"
#include "util/flags.h"
#include "util/stats.h"

using namespace flashroute;

namespace {

struct CliOptions {
  std::string backend = "sim";
  int shards = 0;  // 0 = classic single-engine scan; N>=1 = sharded engine
  svc::ScanSpec spec;
  std::string routes_file;
  std::string routes_format = "text";  // text | csv
  std::string archive_file;            // binary scan archive output
  std::string inspect_file;            // read an archive instead of scanning
  std::string exclusion_file;
  std::string targets_file;
  std::string pcap_file;  // capture all probes and responses
  std::string metrics_file;         // JSONL telemetry stream (DESIGN.md §7)
  double metrics_interval_ms = 1000;  // snapshot cadence, virtual ms
  std::string checkpoint_file;        // write checkpoints here
  std::string resume_file;            // resume a checkpointed scan
  bool help = false;

  bool resilience() const {
    return spec.max_retransmits > 0 || spec.adaptive_backoff ||
           !checkpoint_file.empty() || !resume_file.empty();
  }
};

void print_usage(std::FILE* out) {
  std::fputs(
      "usage: flashroute_cli [FLAG=VALUE ...]\n"
      "massive-scale traceroute (FlashRoute reproduction)\n"
      "\n"
      "  --backend=sim|raw        simulated Internet (default) or raw sockets;\n"
      "                           raw scans from 198.18.0.0 at 1000 pps\n"
      "                           unless --first-prefix or --pps is given\n"
      "  --shards=N               run the sharded engine with N workers over\n"
      "                           a fixed 8-shard decomposition (sim backend\n"
      "                           only; results are identical for any N\n"
      "                           given the same seed; N is capped at 8)\n"
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
      "  --checkpoint-out=FILE    save a checkpoint to FILE at each barrier\n"
      "                           (sim backend, unsharded)\n"
      "  --resume-from=FILE       resume a scan from a checkpoint written\n"
      "                           by --checkpoint-out (same scan flags\n"
      "                           required, or exit 2 without scanning)\n"
      "  --help                   this text\n"
      "\n",
      out);
  std::fputs(svc::scan_flags_usage().c_str(), out);
}

/// The options, or nullopt after printing why they are not.
std::optional<CliOptions> parse_args(int argc, char** argv) {
  const auto refuse = [](const char* why, std::string_view arg) {
    std::fprintf(stderr, "flashroute_cli: %s: %.*s\n", why,
                 static_cast<int>(arg.size()), arg.data());
    return std::nullopt;
  };
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    if (const auto v = util::flag_value(argv[i], "--backend")) {
      options.backend = *v;
    }
  }
  if (options.backend == "raw") {
    // Good-citizenship defaults: unless the user picks a range and a rate,
    // a live scan probes the RFC 2544 benchmarking block at 1 Kpps.
    options.spec.first_prefix = net::prefix24_index(
        net::Ipv4Address::from_octets(198, 18, 0, 0));
    options.spec.probes_per_second = 1'000.0;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string error;
    switch (svc::parse_scan_flag(arg, options.spec, error)) {
      case svc::FlagParse::kApplied:
        continue;
      case svc::FlagParse::kBad:
        std::fprintf(stderr, "flashroute_cli: %s\n", error.c_str());
        return std::nullopt;
      case svc::FlagParse::kNotScanFlag:
        break;
    }
    std::optional<std::string_view> v;
    const auto value_of = [&](const char* name) {
      return (v = util::flag_value(arg, name)).has_value();
    };
    if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (value_of("--backend")) {
      // read above, before the scan flags it sets defaults for
    } else if (value_of("--shards")) {
      if (!util::read_number(*v, options.shards)) {
        return refuse("bad value", arg);
      }
    } else if (value_of("--routes")) {
      options.routes_file = *v;
    } else if (value_of("--routes-format")) {
      options.routes_format = *v;
    } else if (value_of("--archive")) {
      options.archive_file = *v;
    } else if (value_of("--inspect")) {
      options.inspect_file = *v;
    } else if (value_of("--exclude")) {
      options.exclusion_file = *v;
    } else if (value_of("--targets")) {
      options.targets_file = *v;
    } else if (value_of("--pcap")) {
      options.pcap_file = *v;
    } else if (value_of("--metrics-out")) {
      options.metrics_file = *v;
    } else if (value_of("--metrics-interval")) {
      if (!util::read_number(*v, options.metrics_interval_ms)) {
        return refuse("bad value", arg);
      }
    } else if (value_of("--checkpoint-out")) {
      options.checkpoint_file = *v;
    } else if (value_of("--resume-from")) {
      options.resume_file = *v;
    } else {
      return refuse("unknown argument", arg);
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
    print_usage(stderr);
    return 2;
  }
  if (options->help) {
    print_usage(stdout);
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

  if (const char* invalid = svc::validate_scan(options->spec)) {
    std::fprintf(stderr, "flashroute_cli: %s\n", invalid);
    print_usage(stderr);
    return 2;
  }
  svc::ScanSetup setup(options->spec);
  core::TracerConfig& config = setup.engine;

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
  if (setup.world.faults.any() && options->backend != "sim") {
    std::fprintf(stderr, "--fault-* flags require the sim backend\n");
    return 2;
  }

  std::uint64_t checkpoints_written = 0;
  if (!options->checkpoint_file.empty()) {
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
                   "  resume with the scan flags that wrote it: all of them "
                   "enter its config digest\n",
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
  std::unique_ptr<sim::SimNetwork> network;
  sim::SimScanRuntime* sim_runtime = nullptr;  // for gauge registration

  if (options->backend == "sim") {
    network = std::make_unique<sim::SimNetwork>(setup.build_world());
    // A resumed scan restarts the virtual clock at the checkpoint's cursor
    // so rate pacing and the fault schedule continue the same timeline.
    auto sim_rt = std::make_unique<sim::SimScanRuntime>(
        *network, config.probes_per_second,
        resume_checkpoint ? resume_checkpoint->virtual_now : 0);
    sim_runtime = sim_rt.get();
    runtime = std::move(sim_rt);
  } else if (options->backend == "raw") {
    if (options->shards > 0) {
      std::fprintf(stderr,
                   "--shards requires the sim backend (live scans run the "
                   "single-engine tracer)\n");
      return 2;
    }
    if (config.preprobe == core::PreprobeMode::kHitlist) {
      std::fprintf(stderr,
                   "raw backend has no hitlist source; use --preprobe=random\n");
      return 2;
    }
    std::fprintf(stderr, "raw backend: 2^%d /24s from %s at %.0f pps\n",
                 config.prefix_bits,
                 net::Ipv4Address(config.first_prefix << 8).to_string().c_str(),
                 config.probes_per_second);
    try {
      raw_wire = std::make_unique<net::RawSocketWire>();
      runtime = std::make_unique<core::ThreadedRuntime>(
          *raw_wire, config.probes_per_second);
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
        *setup.topology, sharded_config);
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
    if (!io::save_archive_file(options->archive_file, result,
                               svc::archive_header(options->spec))) {
      std::fprintf(stderr, "cannot write %s\n",
                   options->archive_file.c_str());
      return 1;
    }
    std::printf("archive written to %s\n", options->archive_file.c_str());
  }
  return 0;
}
