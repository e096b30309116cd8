// One scan, described once (DESIGN.md §12): the simulated world it runs
// in, the engine's settings, and the faults the simulator injects.
//
// flashroute_cli and `frctl submit` read a ScanSpec from the same flags
// (parse_scan_flag), flashroute_cli, frd's admission and frd's boot
// recovery refuse the same specs (validate_scan), and every program runs a
// spec through one builder (ScanSetup).  So the same flags run the same
// scan in either program: an frd job's archived payload is byte for byte
// the payload of flashroute_cli's --archive.  frd's JobSpec (svc/job.h) is
// a ScanSpec plus scheduling fields, and svc/wire.h's encode_spec is the
// one byte codec of both, on the wire and in the journal.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/tracer.h"
#include "io/scan_archive.h"
#include "sim/params.h"
#include "sim/topology.h"
#include "util/clock.h"

namespace flashroute::svc {

struct ScanSpec {
  // World: 2^prefix_bits /24 blocks from first_prefix (a /24 index), in a
  // simulated Internet drawn from topology_seed.
  int prefix_bits = 8;
  std::uint32_t first_prefix = 0x010000;  ///< 1.0.0.0
  std::uint64_t topology_seed = 1;

  // Engine (core::TracerConfig).
  std::uint64_t scan_seed = 7;
  std::uint64_t target_seed = 42;
  double probes_per_second = 20'000.0;  ///< virtual rate; admission input
  std::uint8_t split_ttl = 16;
  std::uint8_t gap_limit = 5;
  std::uint8_t max_ttl = 32;
  core::PreprobeMode preprobe = core::PreprobeMode::kNone;
  std::uint8_t proximity_span = 5;
  std::uint8_t extra_scans = 0;
  bool redundancy_removal = true;
  bool forward_probing = true;
  bool collect_routes = true;
  util::Nanos min_round_duration = 50 * util::kMillisecond;
  std::uint8_t max_retransmits = 0;
  util::Nanos retransmit_timeout = 500 * util::kMillisecond;
  bool adaptive_backoff = false;
  /// Virtual time between checkpoint barriers, where the engine quiesces
  /// whether or not anything is saved there.  frd preempts a job only at
  /// its barriers, so it refuses 0 (no barriers).
  util::Nanos checkpoint_interval = 100 * util::kMillisecond;

  // Faults (sim::FaultParams): each a probability, or a fraction of /24s
  // for blackhole and flap.
  double fault_probe_loss = 0.0;
  double fault_response_loss = 0.0;
  double fault_duplicate = 0.0;
  double fault_reorder = 0.0;
  double fault_corrupt = 0.0;
  double fault_blackhole = 0.0;
  double fault_flap = 0.0;
  double fault_send_fail = 0.0;
};

/// Why `spec` cannot run, or nullptr when it can.  Refuses everything the
/// engine and the simulator assume away: a universe sim::Topology cannot
/// build (universe_error), anything but 1 <= split_ttl <= max_ttl <= 32
/// (a probe carries TTL-1 in 5 bits), a gap limit of 0, a round or
/// timeout that is not positive, a negative checkpoint interval, a rate
/// outside (0, 1e9], and a fault outside [0, 1].
const char* validate_scan(const ScanSpec& spec);

enum class FlagParse : std::uint8_t {
  kNotScanFlag,  ///< not a scan flag: the caller's, or unknown
  kApplied,
  kBad,  ///< a scan flag with a bad value; the error names the flag
};

/// Applies one command-line argument to `spec` when it is a scan flag.
/// A number must be the whole value and fit its field: nothing wraps.
/// Ranges the engine needs are validate_scan's to check.
FlagParse parse_scan_flag(std::string_view arg, ScanSpec& spec,
                          std::string& error);

/// The scan flags and their defaults, for a program's usage text.
std::string scan_flags_usage();

/// A spec, built: the simulator's world and the engine's config, and the
/// world itself once build_world() runs.  The one mapping from a ScanSpec
/// to sim::SimParams and core::TracerConfig.  Not copyable: engine.hitlist
/// points into it.
struct ScanSetup {
  explicit ScanSetup(const ScanSpec& spec);
  ScanSetup(const ScanSetup&) = delete;
  ScanSetup& operator=(const ScanSetup&) = delete;

  /// Builds `topology` from `world`, and hands the engine the topology's
  /// hitlist when it preprobes one.  The spec must pass validate_scan.
  const sim::Topology& build_world();

  sim::SimParams world;
  core::TracerConfig engine;
  std::unique_ptr<sim::Topology> topology;  ///< null until build_world()
  std::vector<std::uint32_t> hitlist;       ///< kHitlist preprobing only
};

/// The archive header of `spec`'s results.
io::ArchiveHeader archive_header(const ScanSpec& spec);

}  // namespace flashroute::svc
