#include "svc/scan_spec.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "net/ipv4.h"
#include "util/flags.h"

namespace flashroute::svc {

namespace {

bool is_fraction(double value) { return value >= 0.0 && value <= 1.0; }

template <auto Field>
bool number(std::string_view value, ScanSpec& spec) {
  return util::read_number(value, spec.*Field);
}

/// `value` in milliseconds, as the flags spell a duration, stored in ns.
template <auto Field>
bool millis(std::string_view value, ScanSpec& spec) {
  const std::optional<double> ms = util::parse_number<double>(value);
  if (!ms.has_value() || std::abs(*ms) > 9e12) return false;  // Nanos range
  spec.*Field =
      static_cast<util::Nanos>(*ms * static_cast<double>(util::kMillisecond));
  return true;
}

/// A switch: the bare flag sets its field to `kOn`.
template <auto Field, bool kOn>
bool toggle(std::string_view /*value*/, ScanSpec& spec) {
  spec.*Field = kOn;
  return true;
}

bool first_prefix(std::string_view value, ScanSpec& spec) {
  const std::optional<net::Ipv4Address> address =
      net::Ipv4Address::parse(value);
  if (address.has_value()) spec.first_prefix = net::prefix24_index(*address);
  return address.has_value();
}

bool preprobe(std::string_view value, ScanSpec& spec) {
  if (value == "none") {
    spec.preprobe = core::PreprobeMode::kNone;
  } else if (value == "random") {
    spec.preprobe = core::PreprobeMode::kRandom;
  } else if (value == "hitlist") {
    spec.preprobe = core::PreprobeMode::kHitlist;
  } else {
    return false;
  }
  return true;
}

/// One scan flag, declared once: its spelling, its usage line, and how it
/// sets the spec.  A flag with a `value` placeholder is `name=value`; one
/// without is a switch, the bare name.  `apply` leaves the spec as it was
/// when the value is bad.
struct ScanFlag {
  std::string_view name;
  std::string_view value;
  std::string_view help;  ///< a line break continues under the help column
  bool (*apply)(std::string_view value, ScanSpec& spec);
  std::string_view heading = {};  ///< printed above this flag's usage line
};

constexpr ScanFlag kScanFlags[] = {
    {"--prefix-bits", "N", "scan 2^N /24 blocks (default 8)",
     number<&ScanSpec::prefix_bits>,
     "scan flags (flashroute_cli and frctl submit):"},
    {"--first-prefix", "A.B.C.0", "first /24 of the range (default 1.0.0.0)",
     first_prefix},
    {"--topology-seed", "N", "seed of the simulated Internet (default 1)",
     number<&ScanSpec::topology_seed>},
    {"--scan-seed", "N", "seed of the probing order (default 7)",
     number<&ScanSpec::scan_seed>},
    {"--target-seed", "N", "seed of each /24's probed address (default 42)",
     number<&ScanSpec::target_seed>},
    {"--pps", "R", "probing rate, virtual for the sim (default 20000)",
     number<&ScanSpec::probes_per_second>},
    {"--split-ttl", "N", "default split point (default 16)",
     number<&ScanSpec::split_ttl>},
    {"--gap-limit", "N", "forward-probing gap limit (default 5)",
     number<&ScanSpec::gap_limit>},
    {"--max-ttl", "N", "maximum explored TTL, at most 32 (default 32)",
     number<&ScanSpec::max_ttl>},
    {"--preprobe", "MODE", "none | random | hitlist (default none)", preprobe},
    {"--proximity-span", "N", "distance-prediction span (default 5)",
     number<&ScanSpec::proximity_span>},
    {"--extra-scans", "N", "discovery-optimized extra scans (default 0)",
     number<&ScanSpec::extra_scans>},
    {"--no-redundancy-removal", "", "probe backward exhaustively",
     toggle<&ScanSpec::redundancy_removal, false>},
    {"--no-forward", "", "disable forward probing",
     toggle<&ScanSpec::forward_probing, false>},
    {"--no-routes", "", "record interfaces only, no routes",
     toggle<&ScanSpec::collect_routes, false>},
    {"--min-round", "MS", "minimum round duration (default 50)",
     millis<&ScanSpec::min_round_duration>},
    {"--retransmit", "N", "per-/24 retransmission budget (default 0)",
     number<&ScanSpec::max_retransmits>},
    {"--retransmit-timeout", "MS",
     "response deadline before re-sending\n(default 500)",
     millis<&ScanSpec::retransmit_timeout>},
    {"--backoff", "", "adaptive rate backoff on round loss",
     toggle<&ScanSpec::adaptive_backoff, true>},
    {"--checkpoint-interval", "MS",
     "virtual time between checkpoint barriers;\n"
     "0 = none, which frd refuses (default 100)",
     millis<&ScanSpec::checkpoint_interval>},
    {"--fault-probe-loss", "P", "probability a probe vanishes en route",
     number<&ScanSpec::fault_probe_loss>,
     "fault injection (simulated Internet; deterministic per seed):"},
    {"--fault-response-loss", "P", "probability a response vanishes",
     number<&ScanSpec::fault_response_loss>},
    {"--fault-duplicate", "P", "probability a response is duplicated",
     number<&ScanSpec::fault_duplicate>},
    {"--fault-reorder", "P", "probability a response is delayed/reordered",
     number<&ScanSpec::fault_reorder>},
    {"--fault-corrupt", "P", "probability a response is corrupted",
     number<&ScanSpec::fault_corrupt>},
    {"--fault-blackhole", "F", "fraction of /24s persistently blackholed",
     number<&ScanSpec::fault_blackhole>},
    {"--fault-flap", "F", "fraction of /24s behind a flapping link",
     number<&ScanSpec::fault_flap>},
    {"--fault-send-fail", "P", "probability a local send fails (EAGAIN)",
     number<&ScanSpec::fault_send_fail>},
};

}  // namespace

std::string scan_flags_usage() {
  constexpr std::size_t kHelpColumn = 27;
  std::string usage;
  for (const ScanFlag& flag : kScanFlags) {
    if (!flag.heading.empty()) usage.append(flag.heading).append("\n");
    std::string line = "  ";
    line.append(flag.name);
    if (!flag.value.empty()) line.append("=").append(flag.value);
    line.resize(std::max(line.size() + 1, kHelpColumn), ' ');
    for (const char c : flag.help) {
      line += c;
      if (c == '\n') line.append(kHelpColumn, ' ');
    }
    usage.append(line).append("\n");
  }
  return usage;
}

const char* validate_scan(const ScanSpec& spec) {
  if (const char* error = universe_error(ScanSetup(spec).world)) return error;
  if (spec.max_ttl > 32) {
    return "max_ttl above 32 (a probe encodes TTL-1 in 5 bits)";
  }
  if (spec.split_ttl < 1 || spec.split_ttl > spec.max_ttl) {
    return "split_ttl out of [1, max_ttl]";
  }
  if (spec.gap_limit < 1) return "gap_limit must be >= 1";
  if (spec.min_round_duration <= 0) {
    return "min_round_duration must be positive";
  }
  if (spec.retransmit_timeout <= 0) {
    return "retransmit_timeout must be positive";
  }
  if (spec.checkpoint_interval < 0) {
    return "checkpoint_interval must not be negative";
  }
  if (!(spec.probes_per_second > 0.0) ||
      spec.probes_per_second > 1'000'000'000.0) {
    return "probes_per_second out of (0, 1e9]";
  }
  for (const double fault :
       {spec.fault_probe_loss, spec.fault_response_loss, spec.fault_duplicate,
        spec.fault_reorder, spec.fault_corrupt, spec.fault_blackhole,
        spec.fault_flap, spec.fault_send_fail}) {
    if (!is_fraction(fault)) return "fault probability out of [0, 1]";
  }
  return nullptr;
}

FlagParse parse_scan_flag(std::string_view arg, ScanSpec& spec,
                          std::string& error) {
  const std::size_t equals = arg.find('=');
  const bool has_value = equals != std::string_view::npos;
  for (const ScanFlag& flag : kScanFlags) {
    if (flag.name != arg.substr(0, equals) ||
        flag.value.empty() == has_value) {
      continue;
    }
    if (flag.apply(has_value ? arg.substr(equals + 1) : "", spec)) {
      return FlagParse::kApplied;
    }
    error = "bad value: " + std::string(arg);
    return FlagParse::kBad;
  }
  return FlagParse::kNotScanFlag;
}

ScanSetup::ScanSetup(const ScanSpec& spec) {
  world.seed = spec.topology_seed;
  world.prefix_bits = spec.prefix_bits;
  world.first_prefix = spec.first_prefix;
  world.faults.probe_loss = spec.fault_probe_loss;
  world.faults.response_loss = spec.fault_response_loss;
  world.faults.duplicate_prob = spec.fault_duplicate;
  world.faults.reorder_prob = spec.fault_reorder;
  world.faults.corrupt_prob = spec.fault_corrupt;
  world.faults.blackhole_fraction = spec.fault_blackhole;
  world.faults.flap_fraction = spec.fault_flap;
  world.faults.send_fail_prob = spec.fault_send_fail;

  engine.first_prefix = spec.first_prefix;
  engine.prefix_bits = spec.prefix_bits;
  engine.vantage = net::Ipv4Address(world.vantage_address);
  engine.probes_per_second = spec.probes_per_second;
  engine.split_ttl = spec.split_ttl;
  engine.max_ttl = spec.max_ttl;
  engine.gap_limit = spec.gap_limit;
  engine.min_round_duration = spec.min_round_duration;
  engine.forward_probing = spec.forward_probing;
  engine.redundancy_removal = spec.redundancy_removal;
  engine.preprobe = spec.preprobe;
  engine.proximity_span = spec.proximity_span;
  engine.extra_scans = spec.extra_scans;
  engine.seed = spec.scan_seed;
  engine.target_seed = spec.target_seed;
  engine.collect_routes = spec.collect_routes;
  engine.max_retransmits = spec.max_retransmits;
  engine.retransmit_timeout = spec.retransmit_timeout;
  engine.adaptive_backoff = spec.adaptive_backoff;
  engine.checkpoint_interval = spec.checkpoint_interval;
}

const sim::Topology& ScanSetup::build_world() {
  topology = std::make_unique<sim::Topology>(world);
  if (engine.preprobe == core::PreprobeMode::kHitlist) {
    hitlist = topology->generate_hitlist();
    engine.hitlist = &hitlist;
  }
  return *topology;
}

io::ArchiveHeader archive_header(const ScanSpec& spec) {
  return {spec.first_prefix, spec.prefix_bits, spec.scan_seed};
}

}  // namespace flashroute::svc
