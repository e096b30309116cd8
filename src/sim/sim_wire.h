// An in-memory `core::Wire` over the Internet simulator, in real time.
//
// Probes go through SimNetwork::transmit, the same transmit step the
// virtual-time runtime takes; the response (if any) becomes receivable once
// its simulated RTT has elapsed on the *real* clock — each lane rebases the
// simulator's virtual timeline onto the monotonic clock at its first
// transmit.  This is what lets the real-time runtimes
// (core/threaded_runtime.h) and their tests/benches run an actual FlashRoute
// scan against the simulator without raw sockets.
//
// Thread safety: `transmit` may be called concurrently from many sender
// threads (the sharded runtime does).  The wire is internally laned by the
// probe's destination /24 so that each lane's SimNetwork only ever sees
// non-decreasing send times: with one lane per shard, a lane is only fed by
// the single worker that owns the shard.  Lanes are independently locked, so
// senders to different lanes never contend.  The per-interface ICMP rate
// limiters consequently live per lane rather than globally — acceptable for
// testing and benchmarking, where shards map to disjoint interface sets.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/threaded_runtime.h"
#include "sim/network.h"
#include "sim/response_pool.h"
#include "sim/topology.h"
#include "util/annotations.h"
#include "util/clock.h"
#include "util/sync.h"

namespace flashroute::sim {

class RealTimeSimWire final : public core::Wire {
 public:
  /// One lane per contiguous run of `num_prefixes / num_lanes` /24s starting
  /// at `first_prefix`.  `num_lanes` must be nonzero and divide
  /// `num_prefixes` (std::invalid_argument otherwise); pass the shard count
  /// when driving a sharded runtime (so each lane has a single sender), or 1
  /// for a single-threaded sender.
  RealTimeSimWire(const Topology& topology, std::uint32_t first_prefix,
                  std::uint32_t num_prefixes, std::uint32_t num_lanes = 1)
      : first_prefix_(first_prefix),
        num_prefixes_(num_prefixes),
        lane_size_(num_prefixes / std::max<std::uint32_t>(num_lanes, 1)) {
    if (num_lanes == 0 || num_prefixes % num_lanes != 0) {
      throw std::invalid_argument(
          "RealTimeSimWire: num_lanes must be nonzero and divide "
          "num_prefixes");
    }
    lanes_.reserve(num_lanes);
    for (std::uint32_t i = 0; i < num_lanes; ++i) {
      lanes_.push_back(std::make_unique<Lane>(topology));
    }
  }

  [[nodiscard]] bool try_transmit(std::span<const std::byte> packet) override {
    // Outer IPv4 destination (bytes 16..19) names the lane.  A short or
    // out-of-range packet never reached the wire — that is a failed send,
    // not a silently swallowed one.
    if (packet.size() < 20) return false;
    const std::uint32_t dst =
        (static_cast<std::uint32_t>(packet[16]) << 24) |
        (static_cast<std::uint32_t>(packet[17]) << 16) |
        (static_cast<std::uint32_t>(packet[18]) << 8) |
        static_cast<std::uint32_t>(packet[19]);
    const std::uint32_t prefix = dst >> 8;
    if (prefix < first_prefix_ || prefix - first_prefix_ >= num_prefixes_) {
      return false;
    }
    Lane& lane = *lanes_[(prefix - first_prefix_) / lane_size_];

    const util::Nanos now = clock_.now();
    const util::MutexLock guard(lane.mutex);
    // Rebase the simulator's virtual timeline onto the real clock.
    if (lane.epoch == 0) lane.epoch = now;
    // The lane's single sender reads the clock before locking, so times are
    // already monotonic; the clamp guards lanes coarser than one sender.
    const util::Nanos send_time =
        std::max(now - lane.epoch, lane.last_send_time);
    lane.last_send_time = send_time;
    // Pending responses keep their arrival on the lane's virtual timeline;
    // receive_into compares it with the real time elapsed since lane.epoch.
    const Transmission tx = lane.network.transmit(packet, send_time, lane.pool);
    lane.pending.insert(lane.pending.end(), tx.responses.begin(),
                        tx.responses.begin() + tx.count);
    return tx.sent;
  }

  std::size_t receive_into(std::span<std::byte> buffer,
                           util::Nanos timeout) override {
    const util::Nanos deadline = clock_.now() + timeout;
    do {
      const util::Nanos now = clock_.now();
      // Round-robin over lanes from a rotating cursor so no lane starves.
      for (std::size_t i = 0; i < lanes_.size(); ++i) {
        Lane& lane = *lanes_[(cursor_ + i) % lanes_.size()];
        const util::MutexLock guard(lane.mutex);
        const util::Nanos elapsed = now - lane.epoch;
        for (auto it = lane.pending.begin(); it != lane.pending.end(); ++it) {
          if (it->arrival > elapsed) continue;
          const std::size_t size = it->size;
          if (size > buffer.size()) {
            // Wire contract: oversize packets are dropped, not truncated.
            lane.pool.release(it->slot);
            lane.pending.erase(it);
            break;
          }
          std::memcpy(buffer.data(), lane.pool.buffer(it->slot).data(), size);
          lane.pool.release(it->slot);
          lane.pending.erase(it);
          cursor_ = (cursor_ + i + 1) % lanes_.size();
          return size;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    } while (clock_.now() < deadline);
    return 0;
  }

 private:
  struct Lane {
    explicit Lane(const Topology& topology) : network(topology) {}

    util::Mutex mutex;
    SimNetwork network FR_GUARDED_BY(mutex);
    std::vector<InFlight> pending FR_GUARDED_BY(mutex);  // bytes in `pool`
    ResponsePool pool FR_GUARDED_BY(mutex);
    util::Nanos epoch FR_GUARDED_BY(mutex) = 0;
    util::Nanos last_send_time FR_GUARDED_BY(mutex) = 0;
  };

  util::MonotonicClock clock_;
  std::uint32_t first_prefix_;
  std::uint32_t num_prefixes_;
  std::uint32_t lane_size_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::size_t cursor_ = 0;  // receiver thread only
};

}  // namespace flashroute::sim
