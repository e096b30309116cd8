// The execution environment a probing engine runs against.
//
// The paper's tools interleave two activities: a sending loop that paces
// probes at a configured rate, and a receiving path that processes responses
// as they arrive (decoupled threads in the real tool, §3.2).  `ScanRuntime`
// abstracts both so the same engine code runs
//
//  * deterministically in virtual time against the Internet simulator
//    (sim::SimScanRuntime — each send advances the virtual clock by one
//    probe slot; `drain` delivers the responses that became due), and
//  * in real time with a receiver thread (core::ThreadedRuntime) over a
//    core::Wire, either the simulator's (sim::RealTimeSimWire) or the live
//    network's raw sockets (net::RawSocketWire), or against nothing at all
//    (NullRuntime, used to measure the maximum sustainable probing rate
//    for Table 5).
//
// Engines never block on individual responses: they pour probes through a
// core::ProbeSender (core/probe_sender.h), which gathers them into batches,
// and handle whatever `drain`/`idle_until` delivers — exactly the
// high-parallelism structure of Yarrp and FlashRoute.  Runtimes that only
// implement the per-packet `try_send` join the batch protocol through the
// base-class defaults below.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "util/annotations.h"
#include "util/clock.h"

namespace flashroute::core {

/// A block of encoded probes submitted in one runtime call — the sim-side
/// analogue of a sendmmsg() iovec array.  Packets live in a fixed-stride
/// reusable buffer owned by the batch, so a gather loop can template-encode
/// directly into `slot(i)` without per-probe allocation; `commit(i, size)`
/// records the encoded length and advances `count`.
class ProbeBatch {
 public:
  static constexpr std::uint32_t kMaxPackets = 64;
  static constexpr std::size_t kStride = 96;

  FR_HOT std::uint32_t count() const noexcept { return count_; }
  FR_HOT bool empty() const noexcept { return count_ == 0; }
  FR_HOT bool full() const noexcept { return count_ == kMaxPackets; }
  FR_HOT void clear() noexcept { count_ = 0; }

  /// Writable backing slot for the next packet to encode.  Valid while
  /// count() < kMaxPackets.
  FR_HOT std::span<std::byte, kStride> slot() noexcept {
    return std::span<std::byte, kStride>(bytes_.data() + count_ * kStride,
                                         kStride);
  }

  /// Seals the packet just encoded into slot() at `size` bytes.
  FR_HOT void commit(std::size_t size) noexcept {
    sizes_[count_] = static_cast<std::uint16_t>(size);
    ++count_;
  }

  /// i-th committed packet, as the runtime sees it on submit.
  FR_HOT std::span<const std::byte> packet(std::uint32_t i) const noexcept {
    return {bytes_.data() + i * kStride, sizes_[i]};
  }

 private:
  alignas(64) std::array<std::byte, kMaxPackets * kStride> bytes_;
  std::array<std::uint16_t, kMaxPackets> sizes_{};
  std::uint32_t count_ = 0;
};

class ScanRuntime {
 public:
  /// Called for every received response packet with its arrival time.
  /// The span may point into a preallocated, reused receive slot: it is valid
  /// only for the duration of the call, and a sink that needs the bytes later
  /// must copy them.  This contract is what lets the real-time runtimes keep
  /// the receive hot path free of per-packet allocations.
  using Sink =
      std::function<void(std::span<const std::byte>, util::Nanos arrival)>;

  virtual ~ScanRuntime() = default;

  FR_HOT virtual util::Nanos now() const noexcept = 0;

  /// Paces one probe slot (1/pps) and attempts to put the packet on the
  /// wire.  Returns false when the transmit failed (transient socket error
  /// after bounded retries, injected simulator fault); the pacing slot is
  /// consumed either way.  Callers must handle the failure — the engines
  /// count it and let their retransmission layer recover the probe.
  [[nodiscard]] FR_HOT virtual bool try_send(
      std::span<const std::byte> packet) = 0;

  /// Submits a whole batch of encoded probes, consuming one pacing slot per
  /// packet (the real-world analogue is sendmmsg).  Returns a bitmask with
  /// bit k set when packet k transmitted; callers tally failures from the
  /// mask.  The default is a compat shim that loops try_send, so scalar-only
  /// runtimes participate in the batch protocol unchanged.
  [[nodiscard]] FR_HOT virtual std::uint64_t try_send_batch(
      const ProbeBatch& batch) {
    std::uint64_t ok = 0;
    for (std::uint32_t k = 0; k < batch.count(); ++k) {
      if (try_send(batch.packet(k))) ok |= std::uint64_t{1} << k;
    }
    return ok;
  }

  /// Delivers every response available after a batch submit (recvmmsg
  /// analogue).  Default: plain drain.
  FR_HOT virtual void drain_batch(const Sink& sink) { drain(sink); }

  /// How many probes, counted from this point, the sender may stage while
  /// skipping drain points without changing observable behaviour versus
  /// scalar sends (core/probe_sender.h).  Real-time runtimes return
  /// kMaxPackets; the deterministic sim runtime bounds this by the first
  /// pending response so batched scans stay byte-identical to scalar
  /// same-seed scans.  Default 1: every drain happens, the scalar cadence.
  FR_HOT virtual std::uint32_t batch_budget() const noexcept { return 1; }

  /// The timestamp the k-th packet (0-based) of the *next* batch submit will
  /// carry as its send time — what a scalar loop would have read from now()
  /// when encoding that probe.  Virtual-time runtimes advance the clock one
  /// probe slot per packet, so this is now() + k * interval; real-time
  /// runtimes just return now().
  FR_HOT virtual util::Nanos send_time_of(std::uint32_t /*k*/) const noexcept {
    return now();
  }

  /// Adjusts the pacing rate mid-scan (the Tracer's adaptive backoff).
  /// Default no-op: runtimes without a meaningful throttle (NullRuntime)
  /// and the sharded real-time worker lanes (whose throttle is shared by
  /// several shards) ignore it.
  virtual void set_rate(double /*probes_per_second*/) {}

  /// Delivers all responses available by now() to `sink`.
  FR_HOT virtual void drain(const Sink& sink) = 0;

  /// Advances to time `t` (the paper's >= 1 s round barrier), delivering
  /// responses that arrive in the meantime.  No-op when t <= now().
  FR_HOT virtual void idle_until(util::Nanos t, const Sink& sink) = 0;

  FR_HOT std::uint64_t packets_sent() const noexcept { return packets_sent_; }

  /// Responses dropped before reaching the engine (bounded receive rings
  /// overflowing, unclassifiable packets).  0 for runtimes that never drop.
  virtual std::uint64_t packets_dropped() const noexcept { return 0; }

 protected:
  std::uint64_t packets_sent_ = 0;
};

/// Swallows every probe and never delivers a response.  now() is the real
/// monotonic clock, so a sending loop driven at full speed against this
/// runtime measures the engine's raw packet-generation rate — the quantity
/// Table 5 reports as "non-throttled scan speed".
class NullRuntime final : public ScanRuntime {
 public:
  FR_HOT util::Nanos now() const noexcept override { return clock_.now(); }
  [[nodiscard]] FR_HOT bool try_send(std::span<const std::byte>) override {
    ++packets_sent_;
    return true;
  }
  [[nodiscard]] FR_HOT std::uint64_t try_send_batch(
      const ProbeBatch& batch) override {
    packets_sent_ += batch.count();
    return batch.count() == 64 ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << batch.count()) - 1;
  }
  FR_HOT std::uint32_t batch_budget() const noexcept override {
    return ProbeBatch::kMaxPackets;
  }
  FR_HOT void drain(const Sink&) override {}
  FR_HOT void idle_until(util::Nanos, const Sink&) override {}

 private:
  util::MonotonicClock clock_;
};

}  // namespace flashroute::core
