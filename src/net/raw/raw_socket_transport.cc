#include "net/raw/raw_socket_transport.h"

#ifdef __linux__
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

namespace flashroute::net {

#ifdef __linux__

namespace {
int make_raw_socket(int protocol, bool header_included) {
  const int fd = ::socket(AF_INET, SOCK_RAW | SOCK_NONBLOCK, protocol);
  if (fd < 0) {
    throw TransportError(std::string("raw socket: ") + std::strerror(errno));
  }
  if (header_included) {
    const int one = 1;
    if (::setsockopt(fd, IPPROTO_IP, IP_HDRINCL, &one, sizeof one) != 0) {
      ::close(fd);
      throw TransportError(std::string("IP_HDRINCL: ") +
                           std::strerror(errno));
    }
  }
  return fd;
}
}  // namespace

RawSocketRuntime::RawSocketRuntime(double probes_per_second)
    : throttle_(probes_per_second, probes_per_second / 100.0 + 1.0,
                clock_.now()) {
  send_fd_ = make_raw_socket(IPPROTO_RAW, /*header_included=*/true);
  icmp_fd_ = make_raw_socket(IPPROTO_ICMP, /*header_included=*/false);
  tcp_fd_ = make_raw_socket(IPPROTO_TCP, /*header_included=*/false);
}

RawSocketRuntime::~RawSocketRuntime() {
  for (const int fd : {send_fd_, icmp_fd_, tcp_fd_}) {
    if (fd >= 0) ::close(fd);
  }
}

util::Nanos RawSocketRuntime::now() const noexcept { return clock_.now(); }

bool RawSocketRuntime::try_send(std::span<const std::byte> packet) {
  // Pace to the configured rate (the role virtual-clock advancement plays
  // in simulation).
  while (!throttle_.try_consume(clock_.now())) {
    // Busy-wait: at >= 100 Kpps the wait is microseconds; sleeping would
    // undershoot the rate badly.
  }
  if (packet.size() < 20) return false;
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  std::uint32_t daddr = 0;
  std::memcpy(&daddr, packet.data() + 16, 4);
  dst.sin_addr.s_addr = daddr;  // already network order in the packet
  // A full socket buffer (EAGAIN/ENOBUFS) is transient — the kernel is
  // draining it at line rate — so a couple of immediate retries usually
  // succeed.  Anything else (or exhaustion of the retries) is a failed
  // send: report it rather than silently dropping the probe.
  constexpr int kSendAttempts = 3;
  for (int attempt = 0; attempt < kSendAttempts; ++attempt) {
    const ssize_t wrote =
        ::sendto(send_fd_, packet.data(), packet.size(), 0,
                 reinterpret_cast<const sockaddr*>(&dst), sizeof dst);
    if (wrote >= 0) {
      ++packets_sent_;
      return true;
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != ENOBUFS) break;
  }
  return false;
}

std::optional<std::vector<std::byte>> RawSocketRuntime::read_one() {
  std::vector<std::byte> buffer(2048);
  for (const int fd : {icmp_fd_, tcp_fd_}) {
    const ssize_t got = ::recv(fd, buffer.data(), buffer.size(), 0);
    if (got > 0) {
      buffer.resize(static_cast<std::size_t>(got));
      return buffer;
    }
  }
  return std::nullopt;
}

void RawSocketRuntime::drain(const Sink& sink) {
  while (auto packet = read_one()) {
    sink(*packet, clock_.now());
  }
}

void RawSocketRuntime::idle_until(util::Nanos t, const Sink& sink) {
  while (clock_.now() < t) {
    drain(sink);
  }
}

#else  // !__linux__

RawSocketRuntime::RawSocketRuntime(double probes_per_second)
    : throttle_(probes_per_second, 1.0, 0) {
  throw TransportError("raw sockets are only supported on Linux");
}

RawSocketRuntime::~RawSocketRuntime() = default;
util::Nanos RawSocketRuntime::now() const noexcept { return clock_.now(); }
bool RawSocketRuntime::try_send(std::span<const std::byte>) { return false; }
std::optional<std::vector<std::byte>> RawSocketRuntime::read_one() {
  return std::nullopt;
}
void RawSocketRuntime::drain(const Sink&) {}
void RawSocketRuntime::idle_until(util::Nanos, const Sink&) {}

#endif

void RawSocketRuntime::set_rate(double probes_per_second) {
  throttle_.set_rate(probes_per_second, clock_.now());
}

}  // namespace flashroute::net
