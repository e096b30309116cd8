#include "core/tracer.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "core/targets.h"
#include "net/icmp.h"
#include "util/logging.h"
#include "util/prefetch.h"

namespace flashroute::core {

namespace {

/// Adaptive backoff halves the rate at most this many times (to 1/16).
constexpr std::uint32_t kMaxBackoffLevel = 4;
/// A round losing more than this share of its probes backs the rate off;
/// one losing under half of it steps the rate back up.
constexpr double kBackoffLossThreshold = 0.3;

}  // namespace

Tracer::Tracer(const TracerConfig& config, ScanRuntime& runtime)
    : config_(config),
      codec_(config.vantage),
      active_codec_(&codec_),
      dcbs_(config.num_prefixes()),
      sender_(
          runtime,
          [this](std::span<const std::byte> packet, util::Nanos arrival) {
            on_packet(packet, arrival);
          },
          result_, config_.telemetry, config_.collect_probe_log),
      recorder_(result_, config_.telemetry, config.first_prefix,
                config.num_prefixes(), config.collect_routes) {}

std::uint64_t checkpoint_digest(const TracerConfig& config) noexcept {
  using util::hash_combine;
  std::uint64_t digest =
      hash_combine(config.first_prefix,
                   static_cast<std::uint64_t>(config.prefix_bits),
                   config.seed, config.target_seed);
  digest = hash_combine(digest, config.split_ttl, config.max_ttl,
                        config.gap_limit);
  digest = hash_combine(
      digest, static_cast<std::uint64_t>(config.preprobe),
      config.proximity_span,
      (std::uint64_t{config.forward_probing} << 2) |
          (std::uint64_t{config.redundancy_removal} << 1) |
          std::uint64_t{config.fold_preprobe});
  digest = hash_combine(digest, config.max_retransmits,
                        static_cast<std::uint64_t>(config.retransmit_timeout),
                        std::uint64_t{config.adaptive_backoff});
  digest = hash_combine(
      digest, static_cast<std::uint64_t>(config.checkpoint_interval),
      static_cast<std::uint64_t>(config.min_round_duration),
      std::uint64_t{config.collect_routes} << 1 |
          std::uint64_t{config.collect_probe_log});
  return digest;
}

FR_HOT bool Tracer::fold_mode() const noexcept {
  return config_.preprobe == PreprobeMode::kRandom &&
         config_.split_ttl == 32 && config_.fold_preprobe;
}

bool Tracer::include_in_scan(std::uint32_t index) const {
  const net::Ipv4Address target(destination_of(index));
  if (net::is_probe_excluded(target)) return false;
  if (!excluded_bitmap_.empty() &&
      ((excluded_bitmap_[index >> 6] >> (index & 63)) & 1) != 0) {
    return false;  // operator opt-out: skip the whole /24
  }
  return true;
}

std::uint32_t Tracer::target_of(std::uint32_t prefix_offset) const noexcept {
  return core::target_of(config_.target_override, config_.target_seed,
                         config_.first_prefix, prefix_offset);
}

ScanResult Tracer::run(std::optional<io::ScanCheckpoint> resume_from) {
  const std::uint32_t n = config_.num_prefixes();
  recorder_.reset();
  result_.measured_distance.assign(n, 0);
  result_.predicted_distance.assign(n, 0);

  if (resume_from.has_value() &&
      resume_from->config_digest != checkpoint_digest(config_)) {
    FR_LOG_WARN("checkpoint config digest mismatch; starting fresh");
    resume_from.reset();
  }
  const bool resuming = resume_from.has_value();

  // Initialize DCBs and thread the ring in random permutation order;
  // private/multicast/reserved targets keep their slots but stay out (§3.4).
  // A checkpoint with per-DCB state threads the ring over its own
  // survivors instead (restore_checkpoint).
  for (std::uint32_t i = 0; i < n; ++i) {
    dcbs_[i].set_dest_octet(static_cast<std::uint8_t>(target_of(i)));
  }
  excluded_bitmap_.clear();
  if (config_.exclusions != nullptr) {
    excluded_bitmap_.assign((n + 63) / 64, 0);
    config_.exclusions->mark_excluded_prefix24(config_.first_prefix, n,
                                               excluded_bitmap_);
  }
  if (!resuming || resume_from->next_backward.size() != n) {
    dcbs_.build_ring(config_.seed, [this](std::uint32_t index) {
      return include_in_scan(index);
    });
  }

  // Start from a clean resilience state: a cancelled run leaves probes
  // outstanding, and a run that ended backed off left the runtime's rate
  // reduced.
  outstanding_.clear();
  if (resilience_enabled()) {
    answered_mask_.assign(n, 0);
    retransmit_left_.assign(n, config_.max_retransmits);
  }
  if (backoff_level_ > 0) sender_.set_rate(config_.probes_per_second);
  backoff_level_ = 0;
  rounds_completed_ = 0;
  resume_elapsed_base_ = 0;
  aborted_ = false;

  scan_start_ = sender_.now();

  if (resuming) {
    restore_checkpoint(*resume_from);
  } else {
    if (config_.preprobe != PreprobeMode::kNone && !fold_mode()) {
      config_.telemetry.begin_phase(obs::ScanPhase::kPreprobe,
                                    sender_.now());
      preprobe_phase();
      predict_distances();
    }
    if (config_.preprobe_only) {
      result_.scan_time = sender_.now() - scan_start_;
      config_.telemetry.finish(sender_.now());
      return std::move(result_);
    }
    initialize_dcbs();
  }

  // In fold mode the preprobe *is* round one: the first round's TTL-32
  // backward probes carry the preprobe bit, so their responses both build
  // topology and measure distances (§3.3.5).  A resumed scan never re-runs
  // the fold round: the earliest checkpoint barrier sits after it.
  config_.telemetry.begin_phase(obs::ScanPhase::kMain, sender_.now());
  next_checkpoint_ = sender_.now() + config_.checkpoint_interval;
  main_rounds(codec_, !resuming && fold_mode(), 0);
  return finish_run();
}

ScanResult Tracer::continue_run(ScanResult paused) {
  result_ = std::move(paused);
  aborted_ = false;
  // The pause fell at a main-phase barrier after the quiesce, with nothing
  // in flight and nothing staged: re-entering the rounds there is what the
  // uninterrupted scan does next.  The fold round lies before every barrier.
  config_.telemetry.begin_phase(obs::ScanPhase::kMain, sender_.now());
  main_rounds(codec_, false, 0);
  return finish_run();
}

ScanResult Tracer::finish_run() {
  if (config_.extra_scans > 0 && !aborted_) {
    config_.telemetry.begin_phase(obs::ScanPhase::kExtra, sender_.now());
    run_extra_scans();
  }

  sender_.submit();  // a cancelled round may end with staged retransmits
  result_.scan_time = resume_elapsed_base_ + (sender_.now() - scan_start_);
  config_.telemetry.finish(sender_.now());
  return std::move(result_);
}

FR_HOT void Tracer::send_probe(const ProbeCodec& codec, std::uint32_t index,
                               std::uint32_t destination, std::uint8_t ttl,
                               bool preprobe_flag, std::uint8_t flags) {
  const bool staged = sender_.stage(
      destination, ttl, flags,
      [&](util::Nanos send_time, std::span<std::byte> slot) {
        return codec.encode_udp(net::Ipv4Address(destination), ttl,
                                preprobe_flag, send_time, slot);
      });
  if (!staged || !retransmit_active_ || ttl < 1 || ttl > 64) return;
  // Track the probe on the retransmission queue — failed sends too: the
  // timeout/retransmit path is exactly how a swallowed probe recovers.  No
  // response is delivered before the staged probe is submitted, so this
  // bookkeeping may run at staging time, with the post-send deadline.
  answered_mask_[index] &= ~(std::uint64_t{1} << (ttl - 1));
  outstanding_.push(sender_.now() + config_.retransmit_timeout, {index, ttl});
  ++round_probes_;
}

FR_HOT void Tracer::process_retransmits() {
  if (!retransmit_active_ || outstanding_.empty()) return;
  outstanding_.expire_due(
      sender_.now(),
      [this](const Outstanding& probe) {
        if ((answered_mask_[probe.index] &
             (std::uint64_t{1} << (probe.ttl - 1))) != 0) {
          return;  // answered within the timeout
        }
        ++round_loss_events_;
        if (config_.max_retransmits > 0 &&
            retransmit_left_[probe.index] > 0) {
          --retransmit_left_[probe.index];
          // The re-sent probe carries a fresh send time, so the fault plane
          // draws an independent loss decision for it.
          send_probe(*active_codec_, probe.index, destination_of(probe.index),
                     probe.ttl, false, ProbeSender::kRetransmit);
        } else {
          ++result_.probe_timeouts;
          const obs::ScanTelemetry& tel = config_.telemetry;
          if (tel.ids.resilience) sender_.count(tel.ids.probe_timeouts);
        }
      },
      [this](const Outstanding& ahead) {
        // Expiry reads both per-/24 words at random: fetch them early.
        util::prefetch(&answered_mask_[ahead.index]);
        util::prefetch(&retransmit_left_[ahead.index]);
      });
}

FR_HOT void Tracer::drain_outstanding() {
  // Walk the queue on its natural deadlines: idle to each next deadline so
  // a late response still wins the race against its retransmission, and
  // keep going until retransmissions stop pushing new entries.
  while (retransmit_active_ && !outstanding_.empty()) {
    if (const auto deadline = outstanding_.next_deadline()) {
      sender_.idle_until(std::max(*deadline, sender_.now()));
    }
    process_retransmits();
    sender_.drain_point();
  }
}

void Tracer::preprobe_phase() {
  const util::Nanos phase_start = sender_.now();
  const std::vector<std::uint32_t>* hitlist =
      config_.preprobe == PreprobeMode::kHitlist ? config_.hitlist : nullptr;
  dcbs_.walk_ring(
      [&](std::uint32_t index) {
        std::uint32_t target = destination_of(index);
        if (hitlist != nullptr && index < hitlist->size() &&
            (*hitlist)[index] != 0) {
          target = (*hitlist)[index];
        }
        send_probe(codec_, index, target, config_.max_ttl,
                   /*preprobe_flag=*/true, ProbeSender::kPreprobe);
        sender_.drain_point();
      },
      [&](std::uint32_t successor) {
        if (hitlist != nullptr && successor < hitlist->size()) {
          util::prefetch(hitlist->data() + successor);
        }
      });
  // Allow in-flight preprobe responses to land before splitting routes.
  sender_.idle_until(sender_.now() + config_.min_round_duration);
  result_.preprobe_time = sender_.now() - phase_start;
}

void Tracer::predict_distances() {
  const std::uint32_t n = config_.num_prefixes();
  const int span = config_.proximity_span;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (result_.measured_distance[i] != 0) continue;
    // Nearest measured block within the proximity span predicts this one
    // (§3.3.3); ties prefer the preceding block.
    for (int delta = 1; delta <= span; ++delta) {
      const std::int64_t left = static_cast<std::int64_t>(i) - delta;
      if (left >= 0 && result_.measured_distance[left] != 0) {
        result_.predicted_distance[i] = result_.measured_distance[left];
        break;
      }
      const std::uint64_t right = static_cast<std::uint64_t>(i) + delta;
      if (right < n && result_.measured_distance[right] != 0) {
        result_.predicted_distance[i] = result_.measured_distance[right];
        break;
      }
    }
    if (result_.predicted_distance[i] != 0) ++result_.distances_predicted;
  }
}

void Tracer::initialize_dcbs() {
  dcbs_.walk_ring([this](std::uint32_t index) {
    Dcb& dcb = dcbs_[index];
    int split = config_.split_ttl;
    if (result_.measured_distance[index] != 0) {
      split = result_.measured_distance[index];
    } else if (result_.predicted_distance[index] != 0) {
      split = result_.predicted_distance[index];
    }
    split = std::clamp(split, 1, static_cast<int>(config_.max_ttl));
    dcb.set_next_backward_hop(static_cast<std::uint8_t>(split));
    dcb.set_next_forward_hop(static_cast<std::uint8_t>(
        std::min(split + 1, static_cast<int>(config_.max_ttl) + 1)));
    dcb.set_forward_horizon(static_cast<std::uint8_t>(
        std::min(split + config_.gap_limit, 255)));
    dcb.retain_flags(Dcb::kRemoved);  // clear everything but ring membership
  });
}

FR_HOT void Tracer::main_rounds(const ProbeCodec& codec, bool flag_first_round,
                         std::uint8_t hop_flags) {
  active_codec_ = &codec;
  current_hop_flags_ = hop_flags;
  bool first_round = true;
  // Retransmission tracking covers the main phase only: extra scans are
  // deliberate re-exploration, not per-hop coverage, and preprobes fold
  // their redundancy into prediction.
  retransmit_active_ = hop_flags == 0 && resilience_enabled();
  round_probes_ = 0;
  round_loss_events_ = 0;

  while (dcbs_.ring_size() > 0) {
    const util::Nanos round_start = sender_.now();
    const bool flag_this_round = flag_first_round && first_round;
    const bool tracking = retransmit_active_;
    dcbs_.walk_ring(
        [&](std::uint32_t current) {
          Dcb& dcb = dcbs_[current];

          std::uint8_t backward_ttl = 0;
          std::uint8_t forward_ttl = 0;
          bool done = false;
          bool dest_reached = false;
          std::uint8_t last_forward = 0;
          std::uint8_t horizon = 0;
          {
            const std::lock_guard guard(dcb);
            const bool forward_active =
                config_.forward_probing &&
                (dcb.flags() & Dcb::kDestReached) == 0 &&
                dcb.next_forward_hop() <= dcb.forward_horizon() &&
                dcb.next_forward_hop() <= config_.max_ttl;
            if (dcb.next_backward_hop() == 0 && !forward_active) {
              done = true;
              dest_reached = (dcb.flags() & Dcb::kDestReached) != 0;
              last_forward =
                  dcb.next_forward_hop() > 0
                      ? static_cast<std::uint8_t>(dcb.next_forward_hop() - 1)
                      : std::uint8_t{0};
              horizon = dcb.forward_horizon();
            } else {
              if (dcb.next_backward_hop() > 0) {
                backward_ttl = dcb.next_backward_hop();
                dcb.set_next_backward_hop(
                    static_cast<std::uint8_t>(backward_ttl - 1));
              }
              if (forward_active) {
                forward_ttl = dcb.next_forward_hop();
                dcb.set_next_forward_hop(
                    static_cast<std::uint8_t>(forward_ttl + 1));
              }
            }
          }
          if (done) {
            // Gap-run length (§3.2): how many trailing forward probes went
            // unanswered before the gap limit retired this destination.  Only
            // main-scan DCBs that were forward-probing and never reached the
            // destination have a meaningful run.
            const obs::ScanTelemetry& tel = config_.telemetry;
            if (tel.enabled() && current_hop_flags_ == 0 &&
                config_.forward_probing && !dest_reached && horizon > 0) {
              const int run = static_cast<int>(last_forward) -
                              (static_cast<int>(horizon) - config_.gap_limit);
              if (run > 0) {
                tel.sample(tel.ids.gap_run, static_cast<std::uint64_t>(run));
              }
            }
            dcbs_.remove(current);
            return;
          }
          if (backward_ttl != 0) {
            send_probe(codec, current, destination_of(current), backward_ttl,
                       flag_this_round);
          }
          if (forward_ttl != 0) {
            send_probe(codec, current, destination_of(current), forward_ttl,
                       false);
          }
          // Every response due by now is handled before the next destination's
          // DCB decision — including stragglers addressed to it.
          sender_.drain_point();
          process_retransmits();
        },
        [&](std::uint32_t successor) {
          // send_probe clears the successor's answered bit when it stages.
          if (tracking) util::prefetch(&answered_mask_[successor]);
        });

    const util::Nanos barrier = round_start + config_.min_round_duration;
    if (sender_.now() < barrier) {
      sender_.idle_until(barrier);
    } else {
      sender_.drain_point();
    }
    process_retransmits();
    if (flag_first_round && first_round) {
      // §3.3.5 + §3.3.3: the folded first round measured distances for the
      // responsive targets; predict the neighbours' distances now and jump
      // their backward probing to the predicted split.
      // fr-lint: allow(hot-call): once per scan, at the fold-round barrier
      predict_distances();
      // fr-lint: allow(hot-call): once per scan, at the fold-round barrier
      apply_fold_predictions();
    }
    first_round = false;
    ++rounds_completed_;
    if (retransmit_active_ && config_.adaptive_backoff) {
      // fr-lint: allow(hot-call): once per round, at the barrier
      update_backoff();
    }
    // Cooperative cancellation: checked at the barrier (a probe-free
    // instant) so a cancelled scan never leaves a half-processed batch.
    if (config_.cancel != nullptr &&
        config_.cancel->load(std::memory_order_relaxed)) {
      aborted_ = true;
      retransmit_active_ = false;
      return;
    }
    if (current_hop_flags_ == 0 && config_.checkpoint_interval > 0) {
      // fr-lint: allow(hot-call): once per round, at the barrier
      maybe_checkpoint();
      if (aborted_) {
        retransmit_active_ = false;
        return;
      }
    }
    // Reset after the (possible) checkpoint quiesce, not inside
    // update_backoff: quiesce-era retransmissions would otherwise leak into
    // the next round's loss ratio in the checkpointing run but not in a
    // resumed one, breaking kill/resume equivalence.
    round_probes_ = 0;
    round_loss_events_ = 0;
  }

  // Ring empty: see every still-outstanding probe through its deadline
  // (retiring or retransmitting it), then collect straggler responses.
  drain_outstanding();
  sender_.idle_until(sender_.now() + config_.min_round_duration);
  retransmit_active_ = false;
}

void Tracer::update_backoff() {
  // Round loss ratio over probes *attempted* this round (retransmissions
  // included): the signal the paper's §4.2.2 intrusiveness analysis wants
  // reacted to — responses evaporating under rate limiting or loss.
  const double ratio =
      round_probes_ > 0 ? static_cast<double>(round_loss_events_) /
                              static_cast<double>(round_probes_)
                        : 0.0;
  if (ratio > kBackoffLossThreshold && backoff_level_ < kMaxBackoffLevel) {
    ++backoff_level_;
    sender_.set_rate(config_.probes_per_second /
                     static_cast<double>(std::uint64_t{1} << backoff_level_));
    ++result_.rate_backoffs;
    const obs::ScanTelemetry& tel = config_.telemetry;
    if (tel.ids.resilience) tel.count(tel.ids.rate_backoffs);
  } else if (backoff_level_ > 0 && ratio < kBackoffLossThreshold / 2.0) {
    --backoff_level_;
    sender_.set_rate(config_.probes_per_second /
                     static_cast<double>(std::uint64_t{1} << backoff_level_));
  }
}

void Tracer::quiesce() {
  // Bring the engine to a probe-free instant: every outstanding probe
  // retired on its natural deadline, then a grace idle long enough for any
  // retransmitted probe's response (and the rate limiters' refill) to land.
  drain_outstanding();
  sender_.idle_until(sender_.now() + 2 * util::kSecond);
}

io::ScanCheckpoint Tracer::capture_checkpoint() {
  io::ScanCheckpoint checkpoint;
  checkpoint.header = {config_.first_prefix, config_.prefix_bits,
                       config_.seed};
  checkpoint.config_digest = checkpoint_digest(config_);
  checkpoint.virtual_now = sender_.now();
  checkpoint.scan_elapsed =
      resume_elapsed_base_ + (sender_.now() - scan_start_);
  checkpoint.rounds_completed = rounds_completed_;
  checkpoint.backoff_level = backoff_level_;
  checkpoint.ring_head = dcbs_.head();
  const std::uint32_t n = config_.num_prefixes();
  checkpoint.next_backward.resize(n);
  checkpoint.next_forward.resize(n);
  checkpoint.forward_horizon.resize(n);
  checkpoint.dcb_flags.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Dcb& dcb = dcbs_[i];
    checkpoint.next_backward[i] = dcb.next_backward_hop();
    checkpoint.next_forward[i] = dcb.next_forward_hop();
    checkpoint.forward_horizon[i] = dcb.forward_horizon();
    checkpoint.dcb_flags[i] = dcb.flags();
  }
  checkpoint.retransmit_left = retransmit_left_;
  checkpoint.result = std::move(result_);
  checkpoint.result.scan_time = checkpoint.scan_elapsed;
  return checkpoint;
}

void Tracer::restore_checkpoint(io::ScanCheckpoint& checkpoint) {
  result_ = std::move(checkpoint.result);
  rounds_completed_ = checkpoint.rounds_completed;
  backoff_level_ = checkpoint.backoff_level;
  resume_elapsed_base_ = checkpoint.scan_elapsed;
  const std::uint32_t n = config_.num_prefixes();
  if (checkpoint.next_backward.size() == n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      Dcb& dcb = dcbs_[i];
      dcb.set_next_backward_hop(checkpoint.next_backward[i]);
      dcb.set_next_forward_hop(checkpoint.next_forward[i]);
      dcb.set_forward_horizon(checkpoint.forward_horizon[i]);
      dcb.store_flags(checkpoint.dcb_flags[i]);
    }
    // Rebuild the ring over the surviving membership.  Removing members
    // from the circular list preserves the permutation's relative order,
    // so threading the permutation through the survivors reproduces the
    // uninterrupted run's ring exactly — except the cursor, which drifted
    // with the retirements and is restored explicitly.
    dcbs_.build_ring(config_.seed, [&checkpoint](std::uint32_t index) {
      return (checkpoint.dcb_flags[index] & Dcb::kRemoved) == 0;
    });
    dcbs_.set_head(checkpoint.ring_head);
  }
  if (retransmit_left_.size() == checkpoint.retransmit_left.size()) {
    retransmit_left_ = checkpoint.retransmit_left;
  }
  if (backoff_level_ > 0) {
    sender_.set_rate(config_.probes_per_second /
                     static_cast<double>(std::uint64_t{1} << backoff_level_));
  }
}

void Tracer::maybe_checkpoint() {
  if (sender_.now() < next_checkpoint_) return;
  // The quiesce runs whether or not a sink is installed, so a checkpointing
  // run and its uninterrupted reference share one timeline — the property
  // the kill/resume equivalence tests assert.
  quiesce();
  next_checkpoint_ = sender_.now() + config_.checkpoint_interval;
  if (!config_.checkpoint_sink) return;
  // The checkpoint borrows result_ for the sink's call and gives it back,
  // with the scan time the capture overwrote.  A sink that kept the
  // checkpoint hands back only the scalar counters.
  const util::Nanos scan_time = result_.scan_time;
  io::ScanCheckpoint checkpoint = capture_checkpoint();
  const bool keep_going = config_.checkpoint_sink(checkpoint);
  result_ = std::move(checkpoint.result);
  result_.scan_time = scan_time;
  const obs::ScanTelemetry& tel = config_.telemetry;
  if (keep_going) {
    if (tel.ids.resilience) tel.count(tel.ids.checkpoints_written);
  } else {
    aborted_ = true;  // the sink's way of stopping the scan mid-sweep
  }
}

void Tracer::apply_fold_predictions() {
  dcbs_.walk_ring([this](std::uint32_t index) {
    if (result_.measured_distance[index] != 0) return;
    const std::uint8_t predicted = result_.predicted_distance[index];
    if (predicted == 0) return;
    Dcb& dcb = dcbs_[index];
    const std::lock_guard guard(dcb);
    if (predicted < dcb.next_backward_hop()) {
      dcb.set_next_backward_hop(predicted);
    }
  });
}

void Tracer::run_extra_scans() {
  const util::RandomPermutation permutation(config_.num_prefixes(),
                                            config_.seed);
  for (int pass = 1; pass <= config_.extra_scans; ++pass) {
    // A shifted source port gives every probe of this pass a new flow label,
    // steering per-flow load balancers onto alternative branches (§5.2).
    const ProbeCodec extra_codec(config_.vantage,
                                 static_cast<std::uint16_t>(pass));
    const std::uint64_t pass_seed =
        util::hash_combine(config_.seed, 0x65787472, pass);

    if (config_.extra_scan_vary_targets) {
      // §5.4 option 2: a fresh representative per /24 for this pass.
      const std::uint64_t pass_target_seed =
          util::hash_combine(config_.target_seed, 0x76617279, pass);
      for (std::uint32_t i = 0; i < config_.num_prefixes(); ++i) {
        dcbs_[i].set_dest_octet(static_cast<std::uint8_t>(
            random_target(pass_target_seed, config_.first_prefix + i)));
      }
    }
    dcbs_.build_ring(permutation, [this](std::uint32_t index) {
      return include_in_scan(index);
    });
    dcbs_.walk_ring([&](std::uint32_t index) {
      Dcb& dcb = dcbs_[index];
      // Backward-only from a random split; the shared stop set terminates
      // re-exploration of already-known route sections.  The §5.4
      // heuristic keeps the split within (route length + 5), so the walks
      // stay on the route where the load-balanced sections are.
      int start_range = config_.max_ttl;
      int route_length = result_.destination_distance[index];
      if (route_length == 0 && config_.collect_routes) {
        for (const RouteHop& hop : result_.routes[index]) {
          if ((hop.flags & RouteHop::kFromDestination) == 0) {
            route_length = std::max<int>(route_length, hop.ttl);
          }
        }
      }
      if (route_length != 0) {
        start_range = std::min<int>(config_.max_ttl, route_length + 5);
      }
      dcb.set_next_backward_hop(static_cast<std::uint8_t>(
          1 + util::stable_bounded(pass_seed, destination_of(index),
                                   static_cast<std::uint64_t>(start_range))));
      dcb.set_next_forward_hop(config_.max_ttl + 1);
      dcb.set_forward_horizon(0);
      dcb.retain_flags(Dcb::kRemoved);
    });
    main_rounds(extra_codec, false, RouteHop::kExtraScan);
    if (aborted_) return;  // cancel flag fired during this pass
  }
}

FR_HOT void Tracer::on_packet(std::span<const std::byte> packet,
                       util::Nanos arrival) {
  const auto parsed = net::parse_response(packet);
  if (!parsed) return;
  const auto reply = recorder_.match(*active_codec_, *parsed, arrival);
  if (!reply) return;
  if (reply->probe.preprobe && !fold_mode()) {
    handle_preprobe_response(reply->index, *parsed, reply->probe);
  } else {
    handle_main_response(reply->index, *parsed, reply->probe);
  }
}

FR_HOT void Tracer::handle_preprobe_response(std::uint32_t index,
                                      const net::ParsedResponse& parsed,
                                      const DecodedProbe& probe) {
  if (parsed.is_time_exceeded()) {
    // A route longer than the preprobe TTL: still useful topology.
    recorder_.record_hop(index, parsed.responder.value(), probe.initial_ttl,
                         RouteHop::kPreprobe);
    return;
  }
  if (!ResponseRecorder::is_destination_reply(parsed)) return;
  const std::uint8_t distance = ResponseRecorder::distance(probe);
  recorder_.record_hop(index, parsed.responder.value(), distance,
                       RouteHop::kPreprobe | RouteHop::kFromDestination);
  if (result_.measured_distance[index] == 0) {
    result_.measured_distance[index] = distance;
    ++result_.distances_measured;
  }
}

FR_HOT void Tracer::handle_main_response(std::uint32_t index,
                                  const net::ParsedResponse& parsed,
                                  const DecodedProbe& probe) {
  Dcb& dcb = dcbs_[index];
  if (retransmit_active_ && probe.initial_ttl >= 1 &&
      probe.initial_ttl <= 64) {
    // The queue entry for this (destination, ttl) will find its bit set
    // and retire without retransmitting.
    answered_mask_[index] |= std::uint64_t{1} << (probe.initial_ttl - 1);
  }

  const auto flags = static_cast<std::uint8_t>(
      current_hop_flags_ | (probe.preprobe ? RouteHop::kPreprobe : 0));
  if (parsed.is_time_exceeded()) {
    const std::uint8_t hop_ttl = probe.initial_ttl;
    const bool was_known =
        !recorder_.record_hop(index, parsed.responder.value(), hop_ttl, flags);

    const std::lock_guard guard(dcb);
    // Horizon: farthest responding hop + GapLimit (§3.4).
    const int horizon =
        std::min(static_cast<int>(hop_ttl) + config_.gap_limit, 255);
    if (horizon > dcb.forward_horizon()) {
      dcb.set_forward_horizon(static_cast<std::uint8_t>(horizon));
    }
    // Backward termination: the response came from the backward segment and
    // hit either TTL 1 or a previously discovered hop (§3.2).
    if (dcb.next_backward_hop() > 0 &&
        hop_ttl <= dcb.next_backward_hop() + 1) {
      if (hop_ttl == 1) {
        dcb.set_next_backward_hop(0);
      } else if (config_.redundancy_removal && was_known) {
        dcb.set_next_backward_hop(0);
        ++result_.convergence_stops;
        config_.telemetry.count(config_.telemetry.ids.convergence_stops);
      }
    }
    return;
  }

  if (!ResponseRecorder::is_destination_reply(parsed)) return;
  const std::uint8_t distance = recorder_.record_destination(
      index, parsed.responder.value(), probe, flags);

  const std::lock_guard guard(dcb);
  if ((dcb.flags() & Dcb::kDestReached) == 0) {
    dcb.set_flag(Dcb::kDestReached);  // stops forward probing (§3.2)
  }
  if (probe.preprobe && fold_mode()) {
    // §3.3.5: the folded first round measured the distance — jump backward
    // probing straight below the destination.
    if (result_.measured_distance[index] == 0) {
      result_.measured_distance[index] = distance;
      ++result_.distances_measured;
    }
    const auto below = static_cast<std::uint8_t>(distance - 1);
    if (below < dcb.next_backward_hop()) dcb.set_next_backward_hop(below);
  }
}

}  // namespace flashroute::core
