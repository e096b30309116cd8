#include "net/raw/raw_socket_wire.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

namespace flashroute::net {

#ifdef __linux__

namespace {
int open_raw_socket(int protocol, bool header_included) {
  const int fd = ::socket(AF_INET, SOCK_RAW | SOCK_NONBLOCK, protocol);
  if (fd < 0) {
    throw TransportError(std::string("raw socket: ") + std::strerror(errno));
  }
  if (header_included) {
    const int one = 1;
    if (::setsockopt(fd, IPPROTO_IP, IP_HDRINCL, &one, sizeof one) != 0) {
      const int error = errno;
      ::close(fd);
      throw TransportError(std::string("IP_HDRINCL: ") +
                           std::strerror(error));
    }
  }
  return fd;
}
}  // namespace

RawSocketWire::RawSocketWire()
    : send_(open_raw_socket(IPPROTO_RAW, /*header_included=*/true)),
      icmp_(open_raw_socket(IPPROTO_ICMP, /*header_included=*/false)),
      tcp_(open_raw_socket(IPPROTO_TCP, /*header_included=*/false)) {}

#else  // !__linux__

RawSocketWire::RawSocketWire() : send_(-1), icmp_(-1), tcp_(-1) {
  throw TransportError("raw sockets are only supported on Linux");
}

#endif

RawSocketWire::Socket::~Socket() {
  if (fd >= 0) ::close(fd);
}

bool RawSocketWire::try_transmit(std::span<const std::byte> packet) {
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
    if (::sendto(send_.fd, packet.data(), packet.size(), 0,
                 reinterpret_cast<const sockaddr*>(&dst), sizeof dst) >= 0) {
      return true;
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != ENOBUFS) break;
  }
  return false;
}

std::size_t RawSocketWire::receive_into(std::span<std::byte> buffer,
                                        util::Nanos timeout) {
  pollfd sockets[] = {{icmp_.fd, POLLIN, 0}, {tcp_.fd, POLLIN, 0}};
  const auto timeout_ms = static_cast<int>(
      (timeout + util::kMillisecond - 1) / util::kMillisecond);
  if (::poll(sockets, 2, timeout_ms) <= 0) return 0;
  for (const pollfd& socket : sockets) {
    if ((socket.revents & POLLIN) == 0) continue;
    // MSG_TRUNC makes a raw socket report the reply's full length, so an
    // oversize reply is recognised and dropped rather than truncated.
    const ssize_t got =
        ::recv(socket.fd, buffer.data(), buffer.size(), MSG_TRUNC);
    if (got <= 0) continue;
    const auto size = static_cast<std::size_t>(got);
    return size <= buffer.size() ? size : 0;
  }
  return 0;
}

}  // namespace flashroute::net
