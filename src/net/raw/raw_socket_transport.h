// Real-network transport: raw IPv4 sockets (Linux).
//
// This is the path an actual deployment of this library uses: probes are
// written through a raw socket with IP_HDRINCL (we craft the full IPv4
// header, exactly the bytes the simulator consumes), and responses are read
// from a raw ICMP socket plus a raw TCP socket for RST replies to
// Paris-TCP-ACK probes.
//
// Requires CAP_NET_RAW (root).  It is compiled everywhere but exercised only
// by the examples/real_scan example; the test-suite and benchmarks run
// against the simulator.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/runtime.h"
#include "util/clock.h"
#include "util/token_bucket.h"

namespace flashroute::net {

/// Thrown when sockets cannot be created (typically: not root).
class TransportError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

class RawSocketRuntime final : public core::ScanRuntime {
 public:
  /// Opens the raw sockets and installs a probing-rate throttle.
  explicit RawSocketRuntime(double probes_per_second);
  ~RawSocketRuntime() override;

  RawSocketRuntime(const RawSocketRuntime&) = delete;
  RawSocketRuntime& operator=(const RawSocketRuntime&) = delete;

  util::Nanos now() const noexcept override;
  /// Paces to the configured rate, then writes the packet through the raw
  /// socket, retrying a transient full send buffer (EAGAIN/ENOBUFS) a small
  /// bounded number of times.  Returns false when the kernel still refused
  /// the packet — the engine's retransmission layer recovers it.
  [[nodiscard]] bool try_send(std::span<const std::byte> packet) override;
  /// Adaptive-backoff hook: re-rates the pacing throttle from now on.
  void set_rate(double probes_per_second) override;
  void drain(const Sink& sink) override;
  void idle_until(util::Nanos t, const Sink& sink) override;

 private:
  std::optional<std::vector<std::byte>> read_one();

  util::MonotonicClock clock_;
  util::TokenBucket throttle_;
  int send_fd_ = -1;
  int icmp_fd_ = -1;
  int tcp_fd_ = -1;
};

}  // namespace flashroute::net
