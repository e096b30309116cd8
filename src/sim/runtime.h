// Virtual-time ScanRuntime over the Internet simulator.
//
// `try_send` advances the virtual clock by one probe slot (1/pps — 10 µs at
// the paper's 100 Kpps), hands the packet to SimNetwork::transmit, and queues
// the response (if any) for delivery at its simulated arrival time.  `drain`
// delivers the responses due by the current virtual instant, deterministically
// emulating the paper's decoupled sender/receiver threads: a response is
// visible to the engine exactly as soon as its RTT has elapsed, never earlier.

#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "core/runtime.h"
#include "core/sharded_tracer.h"
#include "obs/metrics.h"
#include "sim/network.h"
#include "sim/response_pool.h"
#include "util/annotations.h"
#include "util/clock.h"
#include "util/timing_wheel.h"

namespace flashroute::sim {

class SimScanRuntime final : public core::ScanRuntime {
 public:
  SimScanRuntime(SimNetwork& network, double probes_per_second,
                 util::Nanos start_time = 0)
      : network_(network),
        clock_(start_time),
        probe_interval_(static_cast<util::Nanos>(
            static_cast<double>(util::kSecond) / probes_per_second)),
        min_response_latency_(network.topology().params().rtt_base),
        wheel_(wheel_tick(network, probe_interval_), kWheelSlotBits) {}

  FR_HOT util::Nanos now() const noexcept override { return clock_.now(); }

  [[nodiscard]] FR_HOT bool try_send(
      std::span<const std::byte> packet) override {
    clock_.advance(probe_interval_);
    // The wheel carries only {arrival, slot, size}: payloads stay in pool_,
    // so the steady-state sim path moves no payload bytes and allocates
    // nothing.
    const Transmission tx = network_.transmit(packet, clock_.now(), pool_);
    for (std::uint32_t i = 0; i < tx.count; ++i) {
      wheel_.schedule(tx.responses[i].arrival, tx.responses[i]);
    }
    if (tx.sent) ++packets_sent_;
    return tx.sent;
  }

  /// Batched submit: packet k goes out at now() + (k+1) * interval, the
  /// instant the k-th scalar try_send reaches, through the same try_send, so
  /// a batched scan is byte-identical to the scalar same-seed scan.  The
  /// class is final, so the loop costs no per-probe virtual dispatch.
  [[nodiscard]] FR_HOT std::uint64_t try_send_batch(
      const core::ProbeBatch& batch) override {
    std::uint64_t ok = 0;
    for (std::uint32_t k = 0; k < batch.count(); ++k) {
      if (try_send(batch.packet(k))) ok |= std::uint64_t{1} << k;
    }
    return ok;
  }

  /// How many probes the sender may stage before it must honour a drain
  /// point, without perturbing determinism: bounded by the earliest pending
  /// arrival (no response may come due at a drain point the sender skips)
  /// and by the minimum response latency (no response to a probe of the
  /// window may land inside it).  Probes staged with no drain point between
  /// them may run past the budget — a scalar loop has no drain there
  /// either.
  FR_HOT std::uint32_t batch_budget() const noexcept override {
    // Clamp the interval for the bound arithmetic only: a sub-nanosecond
    // pacing interval (unthrottled tests) truncates to 0, and claiming 1 ns
    // instead only makes both bounds more conservative.
    const util::Nanos interval = std::max<util::Nanos>(probe_interval_, 1);
    std::int64_t budget = core::ProbeBatch::kMaxPackets;
    budget =
        std::min<std::int64_t>(budget, min_response_latency_ / interval + 1);
    if (const auto next = wheel_.next_deadline()) {
      const util::Nanos delta = *next - clock_.now();
      if (delta <= 0) return 1;
      budget =
          std::min<std::int64_t>(budget, (delta + interval - 1) / interval);
    }
    return static_cast<std::uint32_t>(std::max<std::int64_t>(budget, 1));
  }

  /// Virtual-clock instant the k-th packet of the next batch will carry as
  /// its encode timestamp: a scalar loop encodes each probe *before* the
  /// send that advances the clock, so packet k sees k elapsed probe slots.
  FR_HOT util::Nanos send_time_of(std::uint32_t k) const noexcept override {
    return clock_.now() + static_cast<util::Nanos>(k) * probe_interval_;
  }

  /// Adaptive-backoff hook: subsequent sends pace at the new rate.
  void set_rate(double probes_per_second) override {
    probe_interval_ = static_cast<util::Nanos>(
        static_cast<double>(util::kSecond) / probes_per_second);
  }

  FR_HOT void drain(const Sink& sink) override {
    deliver_due(clock_.now(), sink);
  }

  FR_HOT void idle_until(util::Nanos t, const Sink& sink) override {
    deliver_due(t, sink);
    clock_.advance_to(t);
  }

  /// Registers this runtime's observability gauges on `lane` of a metrics
  /// registry (DESIGN.md §7): the sim network's rate-limit drops, plus
  /// response-pool occupancy and responses in flight.  The gauge
  /// callbacks read plain counters owned by this runtime's scan thread;
  /// they are sampled either on that thread (interval ticks) or after the
  /// scan (the summary snapshot), so sim scans stay deterministic.  This —
  /// not bespoke accessors on SimNetwork — is how scan-facing tooling
  /// observes the sim internals.
  void register_gauges(obs::MetricsRegistry& registry, int lane) const {
    const SimNetwork* network = &network_;
    registry.add_gauge("sim.rate_limit_drops", lane, [network] {
      return static_cast<double>(network->stats().rate_limited);
    });
    const ResponsePool* pool = &pool_;
    const util::TimingWheel<InFlight>* wheel = &wheel_;
    registry.add_gauge("sim.response_pool_slots", lane, [pool] {
      return static_cast<double>(pool->capacity());
    });
    registry.add_gauge("sim.responses_in_flight", lane, [wheel] {
      return static_cast<double>(wheel->size());
    });
    // Fault-plane tallies, registered only when the plane is active so
    // zero-fault telemetry streams stay byte-identical to pre-fault builds.
    if (const FaultPlane* plane = network_.fault_plane()) {
      registry.add_gauge("sim.faults_injected", lane, [plane] {
        return static_cast<double>(plane->stats().total());
      });
      registry.add_gauge("sim.fault_probes_dropped", lane, [plane] {
        const FaultPlane::Stats& s = plane->stats();
        return static_cast<double>(s.probes_lost + s.probes_blackholed +
                                   s.probes_flap_dropped);
      });
      registry.add_gauge("sim.fault_responses_dropped", lane, [plane] {
        return static_cast<double>(plane->stats().responses_lost);
      });
      registry.add_gauge("sim.fault_sends_failed", lane, [plane] {
        return static_cast<double>(plane->stats().sends_failed);
      });
    }
  }

 private:
  /// Delivery wheel geometry: enough slots that the common in-flight span
  /// (base RTT + a typical route's per-hop latency + jitter + fault reorder
  /// delay) fits inside one rotation with sparse slots, and a tick coarse
  /// enough that a drain-per-destination cadence advances the cursor only
  /// every few drains.  Entries beyond one rotation stay parked (correct,
  /// just revisited once per rotation), so these are tuning knobs, not
  /// correctness bounds.
  static constexpr int kWheelSlotBits = 11;
  static util::Nanos wheel_tick(const SimNetwork& network,
                                util::Nanos probe_interval) noexcept {
    const SimParams& p = network.topology().params();
    const util::Nanos horizon = p.rtt_base + 16 * p.rtt_per_hop +
                                p.rtt_jitter + p.faults.reorder_max_delay;
    return std::max<util::Nanos>(
        {8 * probe_interval, 2 * horizon >> kWheelSlotBits, 1});
  }

  FR_HOT void deliver_due(util::Nanos deadline, const Sink& sink) {
    // The hashed wheel expires in (deadline, insertion-seq) order — the
    // same total order the former binary heap produced on (arrival, seq),
    // since entries are scheduled in exactly the order the heap pushed
    // them — at O(1) amortized per response instead of O(log n).
    wheel_.expire_due(deadline, [this, &sink](const InFlight& item) {
      clock_.advance_to(item.arrival);
      sink(pool_.buffer(item.slot).first(item.size), item.arrival);
      pool_.release(item.slot);
    });
  }

  SimNetwork& network_;
  util::SimClock clock_;
  util::Nanos probe_interval_;
  /// Cached topology rtt_base: no response arrives sooner than this after
  /// its probe's send (jitter, per-hop latency, and reorder delay are all
  /// non-negative), so it lower-bounds the intra-batch response window.
  util::Nanos min_response_latency_;
  /// In-flight responses keyed by arrival time (calendar-queue delivery).
  util::TimingWheel<InFlight> wheel_;
  /// Fixed-slot storage for in-flight response payloads.
  ResponsePool pool_;
};

/// Virtual-time ShardRuntimeProvider: one (SimNetwork, SimScanRuntime) lane
/// per logical shard, preallocated from ShardedTracer::plan so runtime_for
/// is a lock-free lookup from any worker thread.  Topology is immutable and
/// safely shared; everything mutable (network state, virtual clock, pending
/// responses) is shard-private, so each shard's sub-scan is exactly as
/// deterministic as an unsharded virtual-time scan — which is what makes the
/// merged result invariant under the worker count.
class SimShardRuntimeProvider final : public core::ShardRuntimeProvider {
 public:
  SimShardRuntimeProvider(const Topology& topology,
                          const core::ShardedTracerConfig& config) {
    const auto shards = core::ShardedTracer::plan(config);
    lanes_.reserve(shards.size());
    for (const core::ShardInfo& shard : shards) {
      lanes_.push_back(
          std::make_unique<Lane>(topology, shard.probes_per_second));
    }
  }

  core::ScanRuntime& runtime_for(const core::ShardInfo& shard) override {
    return lanes_[static_cast<std::size_t>(shard.index)]->runtime;
  }

  /// Registers every shard runtime's gauges, shard i on metric lane i —
  /// matching the lane assignment ShardedTracer::shard_config makes for
  /// counters, so one lane holds one shard's whole telemetry.
  void register_gauges(obs::MetricsRegistry& registry) const {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      lanes_[i]->runtime.register_gauges(registry, static_cast<int>(i));
    }
  }

 private:
  struct Lane {
    Lane(const Topology& topology, double pps)
        : network(topology), runtime(network, pps) {}

    SimNetwork network;
    SimScanRuntime runtime;
  };

  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace flashroute::sim
