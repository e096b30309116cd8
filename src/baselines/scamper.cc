#include "baselines/scamper.h"

#include <algorithm>
#include <utility>

#include "core/targets.h"
#include "net/icmp.h"
#include "util/permutation.h"

namespace flashroute::baselines {

namespace {
constexpr util::Nanos kIdleStep = 10 * util::kMillisecond;
}

Scamper::Scamper(const ScamperConfig& config, core::ScanRuntime& runtime)
    : config_(config),
      codec_(config.vantage),
      sender_(
          runtime,
          [this](std::span<const std::byte> packet, util::Nanos arrival) {
            on_packet(packet, arrival);
          },
          result_, telemetry_, config_.collect_probe_log),
      recorder_(result_, telemetry_, config.first_prefix,
                config.num_prefixes(), config.collect_routes) {}

void Scamper::admit_next() {
  const std::uint32_t n = config_.num_prefixes();
  while (active_.size() < config_.window && admit_cursor_ < n) {
    const auto index =
        static_cast<std::uint32_t>((*permutation_)(admit_cursor_++));
    const std::uint32_t destination =
        core::random_target(config_.target_seed, config_.first_prefix + index);
    if (net::is_probe_excluded(net::Ipv4Address(destination))) continue;
    TraceState state;
    state.destination = destination;
    state.phase = Phase::kForward;
    state.ttl = config_.first_ttl;
    state.forward_horizon = static_cast<std::uint8_t>(
        std::min<int>(config_.first_ttl - 1 + config_.gap_limit, 255));
    active_.emplace(index, state);
    ready_.push_back(index);
  }
}

// A probe lost at the sender behaves like one lost in flight: its timeout
// retries it (within budget) or advances past the hop.
void Scamper::send_probe(std::uint32_t index, TraceState& state,
                         std::uint8_t flags) {
  const net::Ipv4Address target(state.destination);
  const std::uint8_t ttl = state.ttl;
  const bool staged = sender_.stage(
      state.destination, ttl, flags,
      [&](util::Nanos send_time, std::span<std::byte> slot) {
        return codec_.encode_udp(target, ttl, /*preprobe=*/false, send_time,
                                 slot);
      });
  if (!staged) return;
  state.awaiting = true;
  ++state.attempts;
  ++state.probe_token;
  timeouts_.push(sender_.now() + config_.probe_timeout,
                 {index, state.probe_token});
}

void Scamper::finish(std::uint32_t index) {
  active_.erase(index);
  admit_next();
}

void Scamper::step(std::uint32_t index) {
  const auto it = active_.find(index);
  if (it == active_.end()) return;
  TraceState& state = it->second;
  if (state.awaiting) return;  // a probe is already outstanding

  if (state.phase == Phase::kForward &&
      (state.ttl > state.forward_horizon || state.ttl > config_.max_ttl)) {
    state.phase = Phase::kBackward;
    state.ttl = static_cast<std::uint8_t>(config_.first_ttl - 1);
    state.known_streak = 0;
  }
  if (state.phase == Phase::kBackward && state.ttl == 0) {
    state.phase = Phase::kDone;
  }
  if (state.phase == Phase::kDone) {
    finish(index);
    return;
  }
  send_probe(index, state);
}

void Scamper::advance_forward(TraceState& state, bool responded,
                              bool reached) {
  if (reached) {
    state.phase = Phase::kBackward;
    state.ttl = static_cast<std::uint8_t>(config_.first_ttl - 1);
    state.known_streak = 0;
    return;
  }
  if (responded) {
    state.forward_horizon = static_cast<std::uint8_t>(std::max<int>(
        state.forward_horizon,
        std::min<int>(state.ttl + config_.gap_limit, 255)));
  }
  ++state.ttl;  // bounds re-checked in step()
}

void Scamper::advance_backward(TraceState& state, bool responded,
                               bool known) {
  if (responded) {
    if (known) {
      ++state.known_streak;
    } else {
      state.known_streak = 0;
    }
    const std::uint8_t t = state.ttl;
    bool stop = false;
    if (t == 1) {
      stop = true;
    } else if (t >= config_.redundancy_pause_high) {
      stop = state.known_streak >= 2;  // one hop later than FlashRoute
    } else if (t <= config_.redundancy_pause_low) {
      stop = known;  // full Doubletree termination resumes (Fig 7 plunge)
    }
    // Between the two thresholds redundancy elimination is suspended —
    // the flat 14..6 section of Fig 7's blue curve.
    if (stop) {
      state.phase = Phase::kDone;
      if (known && t > 1) ++result_.convergence_stops;
      return;
    }
  } else {
    state.known_streak = 0;
  }
  --state.ttl;  // ttl==0 handled in step()
}

core::ScanResult Scamper::run() {
  recorder_.reset();
  const util::RandomPermutation permutation(config_.num_prefixes(),
                                            config_.seed);
  permutation_ = &permutation;
  admit_cursor_ = 0;
  // A finished run leaves the timeouts of answered probes queued.  Their
  // (index, token) pairs would match a new trace's: tokens restart with
  // each TraceState.
  timeouts_.clear();

  const util::Nanos start = sender_.now();
  admit_next();

  while (!active_.empty()) {
    sender_.drain_point();

    // Expire outstanding probes whose response never came.
    timeouts_.expire_due(sender_.now(), [this](const Timeout& timeout) {
      const auto it = active_.find(timeout.index);
      if (it == active_.end() || !it->second.awaiting ||
          it->second.probe_token != timeout.token) {
        return;  // stale: the probe was already answered
      }
      TraceState& state = it->second;
      state.awaiting = false;
      if (state.attempts <= config_.max_retries) {
        // Budget left: re-probe the same hop before moving on.
        send_probe(timeout.index, state, core::ProbeSender::kRetransmit);
        return;
      }
      ++result_.probe_timeouts;
      state.attempts = 0;
      if (state.phase == Phase::kForward) {
        advance_forward(state, /*responded=*/false, /*reached=*/false);
      } else {
        advance_backward(state, /*responded=*/false, /*known=*/false);
      }
      ready_.push_back(timeout.index);
    });

    if (ready_.empty()) {
      // Everything in flight: idle towards the earliest timeout, in small
      // steps so arriving responses resume probing promptly.
      util::Nanos wake = sender_.now() + kIdleStep;
      if (const auto deadline = timeouts_.next_deadline()) {
        wake = std::min(wake, std::max(*deadline, sender_.now()));
      }
      sender_.idle_until(wake);
      continue;
    }

    while (!ready_.empty()) {
      const std::uint32_t index = ready_.front();
      ready_.pop_front();
      step(index);
    }
  }

  sender_.idle_until(sender_.now() + util::kSecond);
  result_.scan_time = sender_.now() - start;
  permutation_ = nullptr;
  return std::move(result_);
}

void Scamper::on_packet(std::span<const std::byte> packet,
                        util::Nanos arrival) {
  const auto parsed = net::parse_response(packet);
  if (!parsed) return;
  const auto reply = recorder_.match(codec_, *parsed, arrival);
  if (!reply) return;
  const std::uint32_t index = reply->index;
  const core::DecodedProbe& probe = reply->probe;
  const std::uint32_t responder = parsed->responder.value();
  const bool reached = core::ResponseRecorder::is_destination_reply(*parsed);
  const bool was_known = result_.interfaces.contains(responder);

  // Record the hop regardless of whether the trace still awaits it.
  if (parsed->is_time_exceeded()) {
    recorder_.record_hop(index, responder, probe.initial_ttl, 0);
  } else if (reached) {
    recorder_.record_destination(index, responder, probe, 0);
  } else {
    return;
  }

  const auto it = active_.find(index);
  if (it == active_.end()) return;
  TraceState& state = it->second;
  if (!state.awaiting || probe.initial_ttl != state.ttl) return;

  state.awaiting = false;
  ++state.probe_token;  // cancels the pending timeout
  state.attempts = 0;
  if (state.phase == Phase::kForward) {
    advance_forward(state, /*responded=*/true, reached);
  } else {
    advance_backward(state, /*responded=*/true, was_known);
  }
  ready_.push_back(index);
}

}  // namespace flashroute::baselines
