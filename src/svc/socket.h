// frd transport: AF_UNIX stream sockets and frame I/O (DESIGN.md §12).
//
// This file and socket.cc are the service's *only* syscall boundary — every
// socket(2)/bind(2)/accept(2)/connect(2)/poll(2)/read(2)/send(2)/write(2)
// the daemon or client performs lives here, behind RAII wrappers.  The rest of
// src/svc/ is pure logic over byte buffers (wire.h) and therefore
// deterministic and unit-testable; fr-lint enforces the boundary by
// refusing FR_HOT annotations in these two files (hot paths must never sit
// on a syscall).
//
// Framing: each message is [u32 LE payload length][payload], length capped
// at wire.h's kMaxFrame.  All reads and writes loop over partial transfers
// and retry EINTR, so callers see whole frames or a closed connection —
// nothing in between.  Frames go out with send(MSG_NOSIGNAL), so a peer
// that hung up is a failed write, never a SIGPIPE.
//
// Lock discipline (DESIGN.md §13): everything here can block indefinitely
// on a peer, so no caller may hold a capability (any annotated mutex)
// across a call into this boundary — a stalled client must never extend
// into a held daemon or archive lock.  fr-lint's `cap-boundary` rule
// enforces this lexically over every caller; the fd fields below are
// immutable after construction/move and need no guard of their own
// (WakePipe::wake()/drain() are the sanctioned cross-thread entry points,
// both single-syscall and async-signal-safe).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace flashroute::svc {

/// One connected stream socket (daemon side: an accepted client; client
/// side: the connection to the daemon).  Owns the fd.
class Connection {
 public:
  Connection() = default;
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection();
  Connection(Connection&& other) noexcept;
  Connection& operator=(Connection&& other) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }
  void close();

  /// Reads one whole frame.  false on EOF, error, or an oversize length
  /// prefix (protocol violation) — in every case the connection is dead.
  bool read_frame(std::string& payload);

  /// Writes one whole frame; false when the peer is gone.
  bool write_frame(std::string_view payload);

 private:
  int fd_ = -1;
};

/// Listening AF_UNIX socket bound to a filesystem path.  Unlinks any stale
/// socket file first, and unlinks its own on destruction.
class ListenSocket {
 public:
  ListenSocket() = default;
  ~ListenSocket();
  ListenSocket(ListenSocket&& other) noexcept;
  ListenSocket& operator=(ListenSocket&& other) noexcept;
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  /// nullopt on failure (path too long for sockaddr_un, bind error, ...).
  static std::optional<ListenSocket> bind_and_listen(const std::string& path);

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }
  const std::string& path() const noexcept { return path_; }

  /// Accepts one pending client; nullopt on transient failure.
  std::optional<Connection> accept_client();

 private:
  int fd_ = -1;
  std::string path_;
};

/// Connects to a daemon's socket path; nullopt when nobody listens yet.
/// `errno_out` (nullable) receives the failing errno — frctl's retry loop
/// distinguishes transient refusals (daemon restarting: ECONNREFUSED,
/// ECONNRESET, ENOENT) from hard errors.
std::optional<Connection> connect_unix(const std::string& path,
                                       int* errno_out = nullptr);

/// Self-pipe used to wake the daemon's poll loop from other threads
/// (worker completions, shutdown requests).
class WakePipe {
 public:
  WakePipe();
  ~WakePipe();
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  bool valid() const noexcept { return read_fd_ >= 0; }
  int read_fd() const noexcept { return read_fd_; }
  void wake();   ///< async-signal-safe single-byte write
  void drain();  ///< consumes pending wake bytes

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
};

/// Blocks until at least one of `fds` is readable or `timeout_ms` elapses
/// (-1 = forever); returns the readable subset.  EINTR returns empty.
std::vector<int> wait_readable(const std::vector<int>& fds, int timeout_ms);

}  // namespace flashroute::svc
