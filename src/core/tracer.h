// The FlashRoute probing engine (§3).
//
// A scan proceeds in three optional phases:
//
//  1. *Preprobing* (§3.3): one TTL-32 probe per /24 measures the hop
//     distance of responsive targets from the residual TTL quoted in their
//     port-unreachable replies; proximity-span prediction extends coverage
//     to neighbouring blocks.  When the main split TTL is 32 and preprobing
//     targets the same addresses as the main scan, the preprobe doubles as
//     the first probing round (§3.3.5) and costs no extra probes.
//
//  2. *Main probing* (§3.2): rounds over the DCB ring, each issuing up to
//     two probes per destination — one backward (towards the vantage, ending
//     at TTL 1 or at a previously discovered interface: Doubletree-style
//     redundancy elimination) and one forward (towards the target, ending at
//     the target or after GapLimit consecutive silent hops).  Rounds last at
//     least one second so responses can steer the next round.
//
//  3. *Discovery-optimized extra scans* (§5.2): backward-only passes from
//     random split TTLs with shifted source ports, steering per-flow load
//     balancers onto alternative branches while the shared stop set keeps
//     re-exploration cheap.
//
// The engine is transport-agnostic: pass a sim::SimScanRuntime for
// deterministic virtual-time scans or a real-time runtime for live probing.
// Every phase sends through one core::ProbeSender, which gathers the probes
// of consecutive destinations (and retransmissions) into batches; the loop
// below keeps the scalar shape — decide, stage, mark the drain point — and
// the sender proves each skipped drain empty (DESIGN.md §11).  Every reply
// is matched and recorded through one core::ResponseRecorder.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/dcb_array.h"
#include "core/exclusion.h"
#include "core/probe_codec.h"
#include "core/probe_sender.h"
#include "core/response_recorder.h"
#include "core/result.h"
#include "core/runtime.h"
#include "io/checkpoint.h"
#include "net/ipv4.h"
#include "obs/scan_metrics.h"
#include "util/annotations.h"
#include "util/deadline_queue.h"

namespace flashroute::core {

enum class PreprobeMode {
  kNone,     ///< use the configured split TTL for every destination
  kRandom,   ///< preprobe the same (random) targets the main scan uses
  kHitlist,  ///< preprobe hitlist addresses, scan random targets (§4.1.3)
};

struct TracerConfig {
  // Scanned universe: 2^prefix_bits /24 blocks starting at first_prefix.
  std::uint32_t first_prefix = 0x010000;
  int prefix_bits = 16;

  net::Ipv4Address vantage{0xCB00710A};  // 203.0.113.10
  double probes_per_second = 100'000.0;

  std::uint8_t split_ttl = 16;
  std::uint8_t max_ttl = 32;
  std::uint8_t gap_limit = 5;

  /// Minimum duration of one probing round (§3.2: "each round lasts at
  /// least one second", so responses can steer the next round).  Tests and
  /// real-time demos may shorten it.
  util::Nanos min_round_duration = util::kSecond;

  bool forward_probing = true;
  /// Stop backward probing at previously discovered interfaces (§3.2).
  /// Off (together with forward_probing=false, split_ttl=32,
  /// preprobe=kNone) turns the engine into the paper's Yarrp-32-UDP
  /// simulation: one probe to every hop 1..32 for every destination.
  bool redundancy_removal = true;

  PreprobeMode preprobe = PreprobeMode::kHitlist;
  std::uint8_t proximity_span = 5;
  /// §3.3.5: fold the preprobe into round one when split_ttl == 32 and the
  /// preprobe targets coincide with the main targets (kRandom mode only).
  bool fold_preprobe = true;

  /// Discovery-optimized mode (§5.2): number of backward-only extra scans
  /// with shifted source ports after the main scan.  Each extra scan draws
  /// its random starting TTL from [1, measured route length + 5] instead
  /// of [1, 32] (§5.4's proposed refinement), so the walks land on the
  /// route, where the load-balanced sections are, instead of in the silent
  /// tail.
  int extra_scans = 0;

  /// §5.4's other open question: have the extra scans vary the *destination
  /// address* within each /24 (instead of, or in addition to, the source
  /// port), hunting for per-address internal paths rather than per-flow
  /// load-balanced branches.  bench/sec54_future_work compares the options.
  bool extra_scan_vary_targets = false;

  /// Stop after the preprobing phase (and prediction); used by the distance-
  /// accuracy experiments of §3.3, which evaluate preprobing in isolation.
  bool preprobe_only = false;

  std::uint64_t seed = 7;
  /// Seed of the per-/24 random representative; shared across tools so
  /// comparisons probe identical targets.
  std::uint64_t target_seed = 42;

  bool collect_routes = true;
  bool collect_probe_log = false;

  /// Hitlist addresses per prefix offset (0 = no entry); required when
  /// preprobe == kHitlist.  Prefixes without entries fall back to the main
  /// target for preprobing.
  const std::vector<std::uint32_t>* hitlist = nullptr;

  /// Overrides the per-prefix probing target (0 entries fall back to the
  /// random target); used by the §5.1 hitlist-bias experiments.
  const std::vector<std::uint32_t>* target_override = nullptr;

  /// Operator-maintained opt-out list (ethics appendix): any /24 touching
  /// an excluded range is removed from the scan alongside the built-in
  /// private/multicast/reserved exclusions.
  const ExclusionList* exclusions = nullptr;

  // --- Resilience (DESIGN.md §9) -----------------------------------------
  // All off by default: a default-configured scan performs no retransmission
  // tracking, no rate adaptation, and no checkpointing, and its outputs are
  // byte-identical to builds that predate this layer.

  /// Retransmission budget per destination: a main-phase probe whose
  /// response has not arrived within `retransmit_timeout` is re-sent, at
  /// most this many times per /24 across the whole scan.  0 = the paper's
  /// one-probe-per-hop policy (no retransmission).
  std::uint8_t max_retransmits = 0;
  util::Nanos retransmit_timeout = 500 * util::kMillisecond;

  /// Adaptive rate backoff: when more than 30% of the main-phase probes
  /// attempted in a round time out, the probing rate is halved (down to
  /// probes_per_second / 16); it doubles back one step per round once the
  /// loss ratio falls below 15%.
  bool adaptive_backoff = false;

  /// Checkpointing: at the first main-phase round barrier past each
  /// interval the engine quiesces (drains the retransmission queue and
  /// in-flight responses) and hands a checkpoint to `checkpoint_sink`.
  /// The sink returning false stops the scan at that barrier — the hook
  /// tests use to kill a scan mid-sweep, and frd's preemption.  0 = no
  /// checkpointing.
  ///
  /// The checkpoint's result is the scan's own, lent for the call and taken
  /// back when the sink returns, so a barrier copies no routes or
  /// interfaces.  A sink that returns false and leaves the checkpoint
  /// intact pauses the scan: run() returns the result so far, and
  /// Tracer::continue_run() carries on from the barrier.  A sink that
  /// returns false may instead keep the checkpoint by moving from it; the
  /// result leaves with it, run() then returns only the scalar counters,
  /// and there is nothing left to continue.  A sink that returns true must
  /// leave the checkpoint intact.
  util::Nanos checkpoint_interval = 0;
  std::function<bool(io::ScanCheckpoint&)> checkpoint_sink;

  /// Cooperative cancellation (job-granular pause/stop for the svc layer):
  /// when set and the pointee becomes true, the scan stops at the next
  /// main-phase round barrier *without* checkpointing; run() returns the
  /// partial result and aborted() reports true.  Not part of
  /// checkpoint_digest(): cancellation is a control-plane input, not scan
  /// state.  Null = never cancelled.
  // fr-atomic: cancel flag — written by a controlling thread, polled
  // (relaxed) by the scan thread once per round at the barrier.
  const std::atomic<bool>* cancel = nullptr;

  /// Scan telemetry (DESIGN.md §7).  Default-disabled: every hook in the
  /// hot path is then a single branch, no atomics.  The registry, tracer
  /// and lane referenced here must outlive the scan.
  obs::ScanTelemetry telemetry;

  std::uint32_t num_prefixes() const noexcept {
    return std::uint32_t{1} << prefix_bits;
  }
};

/// Digest of the resume-relevant config fields; a checkpoint resumes only
/// into a tracer whose config digests to its config_digest.
std::uint64_t checkpoint_digest(const TracerConfig& config) noexcept;

class Tracer {
 public:
  Tracer(const TracerConfig& config, ScanRuntime& runtime);

  /// Runs the configured scan to completion and returns the results.
  ///
  /// With `resume_from`, continues the checkpointed scan instead, and
  /// consumes the checkpoint: its result becomes the scan's.  The config
  /// must match the checkpointed scan's (core::checkpoint_digest; a
  /// mismatch starts fresh), and the runtime's clock must start at the
  /// checkpoint's virtual_now.  Preprobing is skipped — the checkpoint
  /// captured post-initialization state.
  [[nodiscard]] ScanResult run(
      std::optional<io::ScanCheckpoint> resume_from = std::nullopt);

  /// Continues a scan that its checkpoint sink paused (see
  /// TracerConfig::checkpoint_sink), as if it had never stopped: the rest
  /// of the main rounds, then the extra scans and the finish that run()
  /// runs.  `paused` is the result the pausing call returned; it moves back
  /// into the engine.  The runtime must be the one the scan ran on, idle
  /// since the pause.  Nothing is rebuilt or restored, so the continued
  /// scan produces the uninterrupted scan's results exactly.  A scan the
  /// cancel flag stopped, or whose sink kept the checkpoint, cannot be
  /// continued.
  [[nodiscard]] ScanResult continue_run(ScanResult paused);

  /// The target address the engine probes for a /24 (random host octet
  /// unless overridden) — exposed for analyses that need it.
  std::uint32_t target_of(std::uint32_t prefix_offset) const noexcept;

  /// True when the last run() or continue_run() stopped early — the
  /// checkpoint sink returned false (preemption) or the cancel flag fired.
  /// A completed scan (even a resumed one) reports false.
  bool aborted() const noexcept { return aborted_; }

 private:
  /// A main-phase probe awaiting its response on the retransmission queue.
  struct Outstanding {
    std::uint32_t index;
    std::uint8_t ttl;
  };

  /// What run() and continue_run() share after the main rounds: the extra
  /// scans, the final submit and the scan time; returns the result.
  ScanResult finish_run();
  void preprobe_phase();
  void predict_distances();
  void apply_fold_predictions();
  void initialize_dcbs();
  FR_HOT void main_rounds(const ProbeCodec& codec, bool flag_first_round,
                          std::uint8_t hop_flags);
  void run_extra_scans();
  /// Stages one probe; `flags` are ProbeSender's per-probe bookkeeping.
  /// Main-phase probes go on the retransmission queue when it is active.
  FR_HOT void send_probe(const ProbeCodec& codec, std::uint32_t index,
                         std::uint32_t destination, std::uint8_t ttl,
                         bool preprobe_flag, std::uint8_t flags = 0);
  FR_HOT void process_retransmits();
  FR_HOT void drain_outstanding();
  FR_HOT bool resilience_enabled() const noexcept {
    return config_.max_retransmits > 0 || config_.adaptive_backoff;
  }
  void update_backoff();
  void maybe_checkpoint();
  void quiesce();
  /// Builds the barrier's checkpoint; result_ moves into it.
  io::ScanCheckpoint capture_checkpoint();
  /// Restores engine state; the checkpoint's result moves into result_.
  void restore_checkpoint(io::ScanCheckpoint& checkpoint);
  FR_HOT void on_packet(std::span<const std::byte> packet,
                        util::Nanos arrival);
  FR_HOT void handle_preprobe_response(std::uint32_t index,
                                       const net::ParsedResponse& parsed,
                                       const DecodedProbe& probe);
  FR_HOT void handle_main_response(std::uint32_t index,
                                   const net::ParsedResponse& parsed,
                                   const DecodedProbe& probe);
  FR_HOT bool fold_mode() const noexcept;
  bool include_in_scan(std::uint32_t index) const;
  /// The full 32-bit address currently probed for a prefix offset: the /24
  /// prefix is the DCB array index, the packed DCB stores only the host
  /// octet (§3.4 at full scale).
  FR_HOT std::uint32_t destination_of(std::uint32_t index) const noexcept {
    return ((config_.first_prefix + index) << 8) |
           dcbs_[index].dest_octet();
  }

  TracerConfig config_;
  ProbeCodec codec_;
  const ProbeCodec* active_codec_;
  DcbArray dcbs_;
  ScanResult result_;
  ProbeSender sender_;
  ResponseRecorder recorder_;
  std::uint8_t current_hop_flags_ = 0;

  /// Bit per prefix offset: set = the operator exclusion list covers part of
  /// this /24.  Filled once per scan by mark_excluded_prefix24's one pass
  /// over the list's sorted ranges, so ring construction pays O(1) per
  /// prefix instead of a range query each.
  std::vector<std::uint64_t> excluded_bitmap_;

  // --- Resilience state (DESIGN.md §9) ------------------------------------
  /// Deadlines of outstanding main-phase probes, in send order.
  util::DeadlineQueue<Outstanding> outstanding_;
  /// Bit (ttl - 1) set = the probe at that TTL was answered; checked on
  /// expiry, cleared on each (re)send.  Empty when resilience is off.
  std::vector<std::uint64_t> answered_mask_;
  /// Remaining retransmission budget per destination.
  std::vector<std::uint8_t> retransmit_left_;
  /// True while main_rounds runs the main phase with resilience on — the
  /// single branch the disabled hot path pays.
  bool retransmit_active_ = false;
  std::uint32_t backoff_level_ = 0;
  std::uint64_t round_probes_ = 0;
  std::uint64_t round_loss_events_ = 0;
  std::uint64_t rounds_completed_ = 0;
  util::Nanos scan_start_ = 0;
  /// Scan time accumulated by the run(s) before a resume.
  util::Nanos resume_elapsed_base_ = 0;
  util::Nanos next_checkpoint_ = 0;
  /// Set when checkpoint_sink returns false: the scan stops at the barrier.
  bool aborted_ = false;
};

}  // namespace flashroute::core
