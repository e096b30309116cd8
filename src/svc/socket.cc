#include "svc/socket.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "io/codec.h"
#include "svc/wire.h"

namespace flashroute::svc {

namespace {

/// read(2) exactly `n` bytes; false on EOF or hard error.
bool read_full(int fd, char* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, out + got, n - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
    } else if (r == 0) {
      return false;  // orderly EOF mid-frame or between frames
    } else if (errno != EINTR) {
      return false;
    }
  }
  return true;
}

/// send(2) exactly `n` bytes; false when the peer is gone.  MSG_NOSIGNAL:
/// a peer that hung up yields EPIPE here instead of a SIGPIPE that would
/// kill the process.
bool write_full(int fd, const char* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
    } else if (w < 0 && errno != EINTR) {
      return false;
    }
  }
  return true;
}

}  // namespace

Connection::~Connection() { close(); }

Connection::Connection(Connection&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

Connection& Connection::operator=(Connection&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Connection::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Connection::read_frame(std::string& payload) {
  if (fd_ < 0) return false;
  char header[4];
  if (!read_full(fd_, header, sizeof(header))) return false;
  const std::uint32_t length = io::Reader({header, sizeof(header)}).u32();
  if (length > kMaxFrame) return false;  // protocol violation: drop peer
  payload.resize(length);
  return length == 0 || read_full(fd_, payload.data(), length);
}

bool Connection::write_frame(std::string_view payload) {
  if (fd_ < 0 || payload.size() > kMaxFrame) return false;
  io::Writer header;
  header.put_u32(static_cast<std::uint32_t>(payload.size()));
  return write_full(fd_, header.str().data(), header.str().size()) &&
         write_full(fd_, payload.data(), payload.size());
}

ListenSocket::~ListenSocket() {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(path_.c_str());
  }
}

ListenSocket::ListenSocket(ListenSocket&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
  other.path_.clear();
}

ListenSocket& ListenSocket::operator=(ListenSocket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
      ::unlink(path_.c_str());
    }
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
    other.path_.clear();
  }
  return *this;
}

std::optional<ListenSocket> ListenSocket::bind_and_listen(
    const std::string& path) {
  sockaddr_un addr{};
  if (path.size() + 1 > sizeof(addr.sun_path)) return std::nullopt;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // clear a stale socket from a crashed daemon
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  ListenSocket listener;
  listener.fd_ = fd;
  listener.path_ = path;
  return listener;
}

std::optional<Connection> ListenSocket::accept_client() {
  if (fd_ < 0) return std::nullopt;
  while (true) {
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) return Connection(client);
    if (errno != EINTR) return std::nullopt;
  }
}

std::optional<Connection> connect_unix(const std::string& path,
                                       int* errno_out) {
  if (errno_out != nullptr) *errno_out = 0;
  sockaddr_un addr{};
  if (path.size() + 1 > sizeof(addr.sun_path)) {
    if (errno_out != nullptr) *errno_out = ENAMETOOLONG;
    return std::nullopt;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (errno_out != nullptr) *errno_out = errno;
    return std::nullopt;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  while (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) != 0) {
    if (errno != EINTR) {
      if (errno_out != nullptr) *errno_out = errno;
      ::close(fd);
      return std::nullopt;
    }
  }
  return Connection(fd);
}

WakePipe::WakePipe() {
  int fds[2] = {-1, -1};
  if (::pipe(fds) == 0) {
    read_fd_ = fds[0];
    write_fd_ = fds[1];
  }
}

WakePipe::~WakePipe() {
  if (read_fd_ >= 0) ::close(read_fd_);
  if (write_fd_ >= 0) ::close(write_fd_);
}

void WakePipe::wake() {
  if (write_fd_ < 0) return;
  const char byte = 1;
  while (::write(write_fd_, &byte, 1) < 0 && errno == EINTR) {
  }
}

void WakePipe::drain() {
  if (read_fd_ < 0) return;
  char buffer[64];
  while (true) {
    pollfd probe{};
    probe.fd = read_fd_;
    probe.events = POLLIN;
    if (::poll(&probe, 1, 0) <= 0 || (probe.revents & POLLIN) == 0) return;
    if (::read(read_fd_, buffer, sizeof(buffer)) <= 0) return;
  }
}

std::vector<int> wait_readable(const std::vector<int>& fds, int timeout_ms) {
  std::vector<pollfd> polls;
  polls.reserve(fds.size());
  for (const int fd : fds) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    polls.push_back(p);
  }
  std::vector<int> ready;
  const int n = ::poll(polls.data(), polls.size(), timeout_ms);
  if (n <= 0) return ready;  // timeout, or EINTR — caller just re-polls
  for (const pollfd& p : polls) {
    if ((p.revents & (POLLIN | POLLHUP | POLLERR)) != 0) ready.push_back(p.fd);
  }
  return ready;
}

}  // namespace flashroute::svc
