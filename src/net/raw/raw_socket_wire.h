// The live network as a core::Wire: raw IPv4 sockets (Linux).
//
// Probes are written through a raw socket with IP_HDRINCL (we craft the
// full IPv4 header, exactly the bytes the simulator consumes), and
// responses are read from a raw ICMP socket plus a raw TCP socket for RST
// replies to Paris-TCP-ACK probes.  Pacing, the receiver thread and the
// receive ring are core::ThreadedRuntime's, the same code every sim-wire
// test runs; `flashroute_cli --backend=raw` runs the engine that way.
//
// Requires CAP_NET_RAW (root).  tests/raw_socket_test.cc drives it over
// loopback only, never against a live range; CI runs it under sudo.

#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>

#include "core/threaded_runtime.h"

namespace flashroute::net {

/// Thrown when sockets cannot be created (typically: not root).
class TransportError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

class RawSocketWire final : public core::Wire {
 public:
  /// Opens the send, ICMP and TCP raw sockets; throws TransportError when
  /// any of them cannot be opened, closing those already open.
  RawSocketWire();

  /// Writes the packet through the raw socket, retrying a transient full
  /// send buffer (EAGAIN/ENOBUFS) a small bounded number of times.  Returns
  /// false when the kernel still refused the packet — the engine's
  /// retransmission layer recovers it.
  [[nodiscard]] bool try_transmit(std::span<const std::byte> packet) override;

  /// Waits in poll(2) on the ICMP and TCP sockets and receives one reply
  /// straight into `buffer`.  A reply longer than `buffer` is consumed and
  /// dropped: the call returns 0.
  std::size_t receive_into(std::span<std::byte> buffer,
                           util::Nanos timeout) override;

 private:
  /// One owned socket descriptor, closed on destruction.
  struct Socket {
    explicit Socket(int descriptor) : fd(descriptor) {}
    ~Socket();
    Socket(const Socket&) = delete;
    Socket& operator=(const Socket&) = delete;
    int fd;
  };

  Socket send_;
  Socket icmp_;
  Socket tcp_;
};

}  // namespace flashroute::net
