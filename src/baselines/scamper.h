// Scamper-like baseline (Luckie, IMC'10) — the long-running CAIDA prober the
// paper compares against in §4.2.
//
// Unlike Yarrp/FlashRoute, Scamper traces each destination with a classic
// sequential state machine (one outstanding probe per destination, matched
// to its response or timed out), holding a window of destinations in flight
// and pacing the aggregate probe rate — capped at 10 Kpps, its maximum
// (§4.2.1).  Configured as the paper does: Paris-UDP, first-TTL 16, max TTL
// 32, gap limit 5, retries restricted to one probe per hop.
//
// Backward probing uses Doubletree's stop set, but reproducing Fig 7
// faithfully requires Scamper's *actual* (not nominal) behaviour, which the
// paper reverse-engineered: redundancy elimination kicks in one hop later
// than FlashRoute's (we require two consecutive already-known hops above
// `redundancy_pause_high`), is suspended between `redundancy_pause_high`
// and `redundancy_pause_low` (the flat 14..6 region of the blue curve), and
// resumes in full below `redundancy_pause_low` (the plunge at 6).
//
// Probes go out through a core::ProbeSender.  Scamper does batch: admission
// readies a whole window of destinations at once, and the loop sends every
// ready destination's probe before its next drain, so the sender gathers
// them into full batches (DESIGN.md §11).  Replies are matched and recorded
// through a core::ResponseRecorder.

#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "core/probe_codec.h"
#include "core/probe_sender.h"
#include "core/response_recorder.h"
#include "core/result.h"
#include "core/runtime.h"
#include "net/ipv4.h"
#include "obs/scan_metrics.h"
#include "util/deadline_queue.h"
#include "util/permutation.h"

namespace flashroute::baselines {

struct ScamperConfig {
  std::uint32_t first_prefix = 0x010000;
  int prefix_bits = 16;
  net::Ipv4Address vantage{0xCB00710A};
  double probes_per_second = 10'000.0;  // Scamper's ceiling (§4.2.1)

  std::uint8_t first_ttl = 16;  // the split TTL, Scamper's "first-TTL"
  std::uint8_t max_ttl = 32;
  std::uint8_t gap_limit = 5;

  /// Destinations traced concurrently.
  std::uint32_t window = 4096;
  util::Nanos probe_timeout = 2 * util::kSecond;

  /// Probes re-sent at the same TTL after a timeout before giving up on the
  /// hop — Scamper's classic accuracy-for-probes trade (its `-q` attempts
  /// knob).  0 reproduces the paper's configuration (one probe per hop).
  std::uint8_t max_retries = 0;

  // Empirical Fig-7 redundancy model (see header comment).
  std::uint8_t redundancy_pause_high = 14;
  std::uint8_t redundancy_pause_low = 6;

  std::uint64_t seed = 13;
  std::uint64_t target_seed = 42;
  bool collect_routes = true;
  bool collect_probe_log = false;

  std::uint32_t num_prefixes() const noexcept {
    return std::uint32_t{1} << prefix_bits;
  }
};

class Scamper {
 public:
  Scamper(const ScamperConfig& config, core::ScanRuntime& runtime);

  [[nodiscard]] core::ScanResult run();

 private:
  enum class Phase : std::uint8_t { kForward, kBackward, kDone };

  struct TraceState {
    std::uint32_t destination = 0;
    Phase phase = Phase::kForward;
    std::uint8_t ttl = 0;            ///< TTL of the outstanding/next probe
    std::uint8_t forward_horizon = 0;
    std::uint8_t known_streak = 0;   ///< consecutive known backward hops
    std::uint8_t attempts = 0;       ///< probes sent for the current TTL
    bool awaiting = false;
    std::uint32_t probe_token = 0;   ///< invalidates stale timeouts
  };

  /// Deadline-queue payload; the deadline lives in the queue itself.  Probe
  /// timeouts are pushed in non-decreasing virtual-time order (send instant
  /// plus one constant timeout), so the queue's front-first expiry keeps
  /// the (deadline, insertion) order of the former priority queue exactly —
  /// the Fig-7 regression depends on it.
  struct Timeout {
    std::uint32_t index;
    std::uint32_t token;
  };

  void admit_next();
  void step(std::uint32_t index);       ///< send the next probe or finish
  void advance_forward(TraceState& state, bool responded, bool reached);
  void advance_backward(TraceState& state, bool responded, bool known);
  /// `flags` are ProbeSender's per-probe bookkeeping.
  void send_probe(std::uint32_t index, TraceState& state,
                  std::uint8_t flags = 0);
  void on_packet(std::span<const std::byte> packet, util::Nanos arrival);
  void finish(std::uint32_t index);

  ScamperConfig config_;
  core::ProbeCodec codec_;
  core::ScanResult result_;
  /// Baselines report no telemetry: a disabled handle.
  const obs::ScanTelemetry telemetry_{};
  core::ProbeSender sender_;
  core::ResponseRecorder recorder_;

  std::unordered_map<std::uint32_t, TraceState> active_;  // by prefix offset
  std::deque<std::uint32_t> ready_;
  util::DeadlineQueue<Timeout> timeouts_;
  std::uint64_t admit_cursor_ = 0;
  const util::RandomPermutation* permutation_ = nullptr;
};

}  // namespace flashroute::baselines
