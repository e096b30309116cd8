// The one probe path: every engine puts its probes on the wire through a
// ProbeSender (DESIGN.md §11).
//
// FlashRoute's sender (§3.2) is a single loop that paces probes and handles
// whatever responses have already arrived.  Engines keep exactly that shape:
// they stage each probe at now(), mark every point where the loop handles
// arrived responses with drain_point(), and idle through idle_until().  The
// sender gathers the staged probes into one ProbeBatch and submits it in a
// single try_send_batch call.  The result is byte-identical to the scalar
// cadence (one try_send per probe, a drain at every mark) because only
// *delivery* timing is observable:
//
//  * the runtime stamps packet k of a submit with the instant the k-th
//    scalar send would have reached and delivers nothing itself, so a batch
//    may be submitted whenever the buffer fills;
//  * a drain point may be skipped only while fewer probes were staged since
//    the last drain than the runtime's batch_budget() allowed at its start:
//    such a drain is provably empty (no response is due yet);
//  * what a scalar loop did right after each send — the sent/failed
//    tallies, retransmit and preprobe counts, the telemetry tick and the
//    probe-log entry — is replayed per slot, in slot order, at submit, with
//    the post-send instant the scalar loop would have read.  A tick that
//    captures an interval ends the batch, so the runtime gauges it samples
//    have seen exactly the probes a scalar loop had sent.
//
// Engine code that reads the clock between sends must read now(): the
// runtime clock plus one probe slot per probe still in the buffer.

#pragma once

#include <array>
#include <cstdint>
#include <utility>

#include "core/result.h"
#include "core/runtime.h"
#include "obs/scan_metrics.h"
#include "util/annotations.h"
#include "util/clock.h"

namespace flashroute::core {

class ProbeSender {
 public:
  /// Per-probe bookkeeping replayed at submit.
  static constexpr std::uint8_t kPreprobe = 0x01;    ///< preprobing phase
  static constexpr std::uint8_t kRetransmit = 0x02;  ///< re-send after timeout

  /// Sends are tallied into `result` and `telemetry` (and logged in
  /// result.probe_log when `log_probes`); both must outlive the sender.
  /// `sink` receives every delivered response.
  ProbeSender(ScanRuntime& runtime, ScanRuntime::Sink sink,
              ScanResult& result, const obs::ScanTelemetry& telemetry,
              bool log_probes)
      : runtime_(runtime),
        sink_(std::move(sink)),
        result_(result),
        telemetry_(telemetry),
        log_probes_(log_probes) {}

  ProbeSender(const ProbeSender&) = delete;
  ProbeSender& operator=(const ProbeSender&) = delete;

  /// The instant a scalar loop would read here; right after stage(), the
  /// staged probe's post-send instant.
  FR_HOT util::Nanos now() const noexcept {
    return runtime_.send_time_of(batch_.count());
  }

  /// Encodes one probe into the batch with `encode(send_time, slot)`, which
  /// returns the packet size (0 = nothing to send).  Returns whether the
  /// probe was staged.
  template <typename Encode>
  FR_HOT bool stage(std::uint32_t destination, std::uint8_t ttl,
                    std::uint8_t flags, Encode&& encode) {
    if (batch_.full()) submit();
    if (since_drain_ == 0) budget_ = runtime_.batch_budget();
    const std::uint32_t k = batch_.count();
    // fr-lint: allow(hot-call): the caller's encoder, a local lambda around
    // an FR_HOT ProbeCodec call at every call site
    const std::size_t size = encode(runtime_.send_time_of(k), batch_.slot());
    if (size == 0) return false;
    const util::Nanos sent_at = runtime_.send_time_of(k + 1);
    slots_[k] = {sent_at, destination, ttl, flags};
    batch_.commit(size);
    ++since_drain_;
    // This probe's tick captures an interval, which samples the runtime's
    // gauges: submit now, so they see exactly the probes sent so far.
    if (telemetry_.tracer != nullptr &&
        telemetry_.tracer->due(telemetry_.lane_id, sent_at)) {
      submit();
    }
    return true;
  }

  /// A point where the scalar loop drained: unless that drain is provably
  /// empty, submits the staged probes and delivers every response due.
  FR_HOT void drain_point() {
    if (since_drain_ < budget_) return;
    submit();
    runtime_.drain_batch(sink_);
    since_drain_ = 0;
  }

  /// Submits the staged probes, then advances to `t`, delivering responses.
  FR_HOT void idle_until(util::Nanos t) {
    submit();
    runtime_.idle_until(t, sink_);
    since_drain_ = 0;
  }

  /// Changes the pacing rate for every probe staged from here on.
  void set_rate(double probes_per_second) {
    submit();
    runtime_.set_rate(probes_per_second);
    budget_ = 0;  // the open window's bound assumed the old interval
  }

  /// Counts a telemetry event the scalar loop tallied between two sends,
  /// after every send staged before it.
  FR_HOT void count(obs::CounterId id) {
    if (telemetry_.tracer != nullptr) submit();
    telemetry_.count(id);
  }

  /// Puts the staged probes on the wire and replays their bookkeeping;
  /// delivers nothing.
  FR_HOT void submit() {
    const std::uint32_t n = batch_.count();
    if (n == 0) return;
    const std::uint64_t ok = runtime_.try_send_batch(batch_);
    batch_.clear();
    const obs::ScanTelemetry& tel = telemetry_;
    for (std::uint32_t k = 0; k < n; ++k) {
      const Slot& slot = slots_[k];
      if ((slot.flags & kRetransmit) != 0) {
        ++result_.retransmits;
        if (tel.ids.resilience) tel.count(tel.ids.retransmits);
      }
      if (((ok >> k) & 1) != 0) {
        ++result_.probes_sent;
        tel.count(tel.ids.probes_sent);
        if (log_probes_) {
          // fr-lint: allow(hot-banned): optional diagnostic probe log, off by
          // default
          result_.probe_log.push_back({slot.sent_at, slot.destination,
                                       slot.ttl,
                                       (slot.flags & kPreprobe) != 0});
        }
      } else {
        ++result_.send_failures;
        if (tel.ids.resilience) tel.count(tel.ids.send_failures);
      }
      if (tel.tracer != nullptr) tel.tick(slot.sent_at);
      if ((slot.flags & kPreprobe) != 0) {
        ++result_.preprobe_probes;
        tel.count(tel.ids.preprobe_probes);
      }
    }
  }

 private:
  struct Slot {
    util::Nanos sent_at;
    std::uint32_t destination;
    std::uint8_t ttl;
    std::uint8_t flags;
  };

  ScanRuntime& runtime_;
  ScanRuntime::Sink sink_;
  ScanResult& result_;
  const obs::ScanTelemetry& telemetry_;
  bool log_probes_;

  ProbeBatch batch_;
  std::array<Slot, ProbeBatch::kMaxPackets> slots_{};
  /// Probes staged since the last drain, and the batch_budget() read when
  /// the first of them was staged.
  std::uint32_t since_drain_ = 0;
  std::uint32_t budget_ = 0;
};

}  // namespace flashroute::core
