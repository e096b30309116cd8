// Real-time ScanRuntimes with the paper's decoupled architecture (§3.2):
// "Sending probes and processing responses is decoupled ... and is done
// through separate threads."
//
// The real-time ScanRuntime virtuals are implemented once, in
// `RealTimeLane`: a token-bucket throttle paces probes onto a `Wire`, and
// `drain`/`idle_until` hand the engine's sink a span over each slot of a
// bounded lock-free SPSC ring of preallocated slots that a receiver thread
// fills — the receive hot path performs zero heap allocations per packet
// in steady state.  Two runtimes are built from lanes:
//
//  * ThreadedRuntime — one lane plus a receiver thread that blocks on the
//    wire and publishes every arriving packet.  It runs the same engine
//    over the simulator (sim::RealTimeSimWire) and over the live network
//    (net::RawSocketWire).
//
//  * ShardedThreadedRuntime — the multi-core variant backing ShardedTracer:
//    one lane per worker, each pacing its worker's slice of the global pps
//    budget, while a single receiver thread classifies every arriving
//    packet by the /24 its quoted probe targeted (ProbeCodec::
//    classify_prefix24) and routes it to the owning worker's ring.
//
// Rings are strictly single-producer (the receiver) / single-consumer (the
// engine thread), so the handoff stays lock-free end to end.  The receiver
// thread only copies bytes into the rings (RealTimeLane::publish); every
// sink runs on the engine thread, inside drain and idle_until, so each
// engine's DCBs and results have one writer.  The per-DCB locks are the
// paper's §3.4 design for a receiver that updates DCBs itself; nothing
// contends for them here.  A full ring drops the packet (counted in
// packets_dropped) — the same backpressure a NIC ring imposes.

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/probe_codec.h"
#include "core/runtime.h"
#include "core/sharded_tracer.h"
#include "util/annotations.h"
#include "util/clock.h"
#include "util/spsc_ring.h"
#include "util/token_bucket.h"

namespace flashroute::core {

/// One preallocated receive slot: the packet bytes plus arrival time.
/// 576 bytes is the most an ICMP error may carry (RFC 1812 §4.3.2.3), so a
/// slot holds any reply to any probe, IP options and long quotes included:
/// Linux quotes an offending datagram up to exactly that cap.
struct PacketSlot {
  static constexpr std::size_t kCapacity = 576;

  util::Nanos time = 0;
  std::uint32_t size = 0;
  std::array<std::byte, kCapacity> data;

  FR_HOT std::span<const std::byte> bytes() const noexcept {
    return {data.data(), size};
  }
};

/// The physical layer the real-time runtimes drive.  `transmit` may be
/// called concurrently from multiple sender threads (sharded runtimes);
/// `receive_into` is only ever called from the single receiver thread.
/// Implementations must tolerate that concurrency.
class Wire {
 public:
  virtual ~Wire() = default;

  /// Attempts to put one packet on the wire.  Returns false when the
  /// transmit failed (transient socket error after bounded retries,
  /// injected simulator fault, unroutable packet) — callers must not
  /// silently drop the failure.
  [[nodiscard]] FR_HOT virtual bool try_transmit(
      std::span<const std::byte> packet) = 0;

  /// Blocks up to `timeout` for one packet, copies it into `buffer`, and
  /// returns its size; returns 0 when none arrived.  Packets longer than
  /// `buffer` are dropped, never truncated into a half-parseable prefix,
  /// and the call may then return 0 before `timeout`.
  FR_HOT virtual std::size_t receive_into(std::span<std::byte> buffer,
                                          util::Nanos timeout) = 0;
};

/// Sleep quantum for pacing/idle waits.  Coarse enough to let other threads
/// run (important when workers outnumber cores), fine enough for the
/// millisecond-scale round barriers the engine uses.
inline constexpr auto kRuntimePollInterval = std::chrono::microseconds(100);

/// How long a receiver thread blocks on the wire before it rechecks for a
/// stop request.
inline constexpr util::Nanos kReceiveSlice = util::kMillisecond;

/// One real-time lane: the engine-thread side of a real-time runtime.
/// Sends pace through the lane's token bucket, one token per packet (a
/// batch goes through the base-class try_send loop, so it respects the same
/// budget), and a receiver thread feeds the lane's ring through publish().
/// set_rate stays the base-class no-op: a sharded worker's lane paces the
/// sum of several shards' budgets, so one shard backing off must not slow
/// its siblings.  ThreadedRuntime, whose one lane is the whole scan,
/// re-rates it.
class RealTimeLane : public ScanRuntime {
 public:
  RealTimeLane(Wire& wire, double probes_per_second,
               std::size_t ring_capacity)
      : throttle_(probes_per_second, probes_per_second / 100.0 + 1.0,
                  clock_.now()),
        wire_(wire),
        ring_(ring_capacity) {}

  RealTimeLane(const RealTimeLane&) = delete;
  RealTimeLane& operator=(const RealTimeLane&) = delete;

  FR_HOT util::Nanos now() const noexcept final { return clock_.now(); }

  [[nodiscard]] FR_HOT bool try_send(std::span<const std::byte> packet) final {
    while (!throttle_.try_consume(clock_.now())) {
      std::this_thread::yield();
    }
    if (!wire_.try_transmit(packet)) return false;
    ++packets_sent_;
    return true;
  }

  /// Real-time responses park in the receive ring until the engine drains
  /// them, whatever the batch size — a full batch only coarsens the drain
  /// cadence, which the ring's depth absorbs.
  FR_HOT std::uint32_t batch_budget() const noexcept final {
    return ProbeBatch::kMaxPackets;
  }

  FR_HOT void drain(const Sink& sink) final {
    // Zero-allocation hot path: the sink sees a span into the preallocated
    // slot, which is recycled by pop() after the call returns.
    while (PacketSlot* slot = ring_.front()) {
      sink(slot->bytes(), slot->time);
      ring_.pop();
    }
  }

  FR_HOT void idle_until(util::Nanos t, const Sink& sink) final {
    while (clock_.now() < t) {
      drain(sink);
      std::this_thread::sleep_for(kRuntimePollInterval);
    }
    drain(sink);
  }

  FR_HOT std::uint64_t packets_dropped() const noexcept final {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Receiver thread only: stamps `packet` with its arrival time and copies
  /// it into the next ring slot, or counts it dropped when the ring is full.
  FR_HOT void publish(std::span<const std::byte> packet) noexcept {
    PacketSlot* slot = ring_.try_claim();
    if (slot == nullptr) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    slot->time = clock_.now();
    slot->size = static_cast<std::uint32_t>(packet.size());
    std::memcpy(slot->data.data(), packet.data(), packet.size());
    ring_.publish();
  }

 protected:
  util::MonotonicClock clock_;
  util::TokenBucket throttle_;  // engine thread only
  Wire& wire_;

 private:
  util::SpscRing<PacketSlot> ring_;
  // fr-atomic: receiver-thread ring-overflow counter, relaxed
  std::atomic<std::uint64_t> dropped_{0};
};

class ThreadedRuntime final : public RealTimeLane {
 public:
  explicit ThreadedRuntime(Wire& wire, double probes_per_second,
                           std::size_t ring_capacity = 4096)
      : RealTimeLane(wire, probes_per_second, ring_capacity),
        receiver_([this] { receive_loop(); }) {}

  ~ThreadedRuntime() override {
    stopping_.store(true, std::memory_order_relaxed);
    receiver_.join();
  }

  /// Adaptive-backoff hook: called from the engine thread (the only thread
  /// touching the throttle), settles accrued tokens before switching.
  void set_rate(double probes_per_second) override {
    throttle_.set_rate(probes_per_second, clock_.now());
  }

 private:
  /// Publishes every packet unclassified: classify_prefix24 reads only ICMP
  /// quotes, and a TCP-ACK probe's destination answers with a bare RST.
  FR_HOT void receive_loop() {
    std::array<std::byte, PacketSlot::kCapacity> buffer;
    while (!stopping_.load(std::memory_order_relaxed)) {
      const std::size_t size = wire_.receive_into(buffer, kReceiveSlice);
      if (size > 0) publish({buffer.data(), size});
    }
  }

  // fr-atomic: destructor -> receiver-thread stop request, relaxed
  std::atomic<bool> stopping_{false};
  std::thread receiver_;
};

/// Real-time ShardRuntimeProvider: one lane per worker over one shared
/// Wire, one receiver thread classifying responses to the worker that owns
/// their destination shard.  One lane serves all shards of a worker — they
/// run sequentially on the worker's thread.
class ShardedThreadedRuntime final : public ShardRuntimeProvider {
 public:
  ShardedThreadedRuntime(Wire& wire, const ShardedTracerConfig& config,
                         std::size_t ring_capacity = 4096)
      : wire_(wire),
        first_prefix_(config.base.first_prefix),
        num_prefixes_(config.base.num_prefixes()) {
    const std::vector<ShardInfo> shards = ShardedTracer::plan(config);
    const int workers = shards.back().worker + 1;
    while ((std::uint32_t{1} << shard_shift_) < shards.front().num_prefixes) {
      ++shard_shift_;
    }
    worker_of_shard_.reserve(shards.size());
    std::vector<double> worker_pps(static_cast<std::size_t>(workers), 0.0);
    for (const ShardInfo& shard : shards) {
      worker_of_shard_.push_back(shard.worker);
      // The worker paces at the sum of its shards' slices; only one of its
      // shards probes at a time, so the global budget is respected.
      worker_pps[static_cast<std::size_t>(shard.worker)] +=
          shard.probes_per_second;
    }
    lanes_.reserve(worker_pps.size());
    for (const double pps : worker_pps) {
      lanes_.push_back(
          std::make_unique<RealTimeLane>(wire, pps, ring_capacity));
    }
    receiver_ = std::thread([this] { receive_loop(); });
  }

  ~ShardedThreadedRuntime() {
    stopping_.store(true, std::memory_order_relaxed);
    receiver_.join();
  }

  ShardedThreadedRuntime(const ShardedThreadedRuntime&) = delete;
  ShardedThreadedRuntime& operator=(const ShardedThreadedRuntime&) = delete;

  ScanRuntime& runtime_for(const ShardInfo& shard) override {
    return *lanes_[static_cast<std::size_t>(shard.worker)];
  }

  /// Packets lost before reaching any engine: unclassifiable bytes plus
  /// per-worker ring overflows.
  std::uint64_t packets_dropped() const noexcept {
    std::uint64_t total = unclassified_.load(std::memory_order_relaxed);
    for (const auto& lane : lanes_) total += lane->packets_dropped();
    return total;
  }

  std::uint64_t packets_sent() const noexcept {
    std::uint64_t total = 0;
    for (const auto& lane : lanes_) total += lane->packets_sent();
    return total;
  }

 private:
  FR_HOT void receive_loop() {
    std::array<std::byte, PacketSlot::kCapacity> buffer;
    while (!stopping_.load(std::memory_order_relaxed)) {
      const std::size_t size = wire_.receive_into(buffer, kReceiveSlice);
      if (size == 0) continue;
      const std::span<const std::byte> packet(buffer.data(), size);
      // O(1) classification (§3.4's flat-array discipline, applied to shard
      // routing): quoted destination /24 -> shard -> owning worker's ring.
      const auto prefix = ProbeCodec::classify_prefix24(packet);
      if (!prefix || *prefix < first_prefix_ ||
          *prefix - first_prefix_ >= num_prefixes_) {
        unclassified_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const std::uint32_t shard = (*prefix - first_prefix_) >> shard_shift_;
      lanes_[static_cast<std::size_t>(worker_of_shard_[shard])]->publish(
          packet);
    }
  }

  Wire& wire_;
  std::uint32_t first_prefix_;
  std::uint32_t num_prefixes_;
  int shard_shift_ = 0;
  std::vector<int> worker_of_shard_;
  std::vector<std::unique_ptr<RealTimeLane>> lanes_;
  // fr-atomic: receiver-thread unclassifiable-packet counter, relaxed
  std::atomic<std::uint64_t> unclassified_{0};
  // fr-atomic: destructor -> receiver-thread stop request, relaxed
  std::atomic<bool> stopping_{false};
  std::thread receiver_;
};

}  // namespace flashroute::core
