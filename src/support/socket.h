//===- support/socket.h - RAII TCP sockets for the server --------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thin RAII wrappers over POSIX TCP sockets for the multi-tenant
/// monitoring server (server/server.h) and its clients (the loadgen tool,
/// the in-process tests): a move-only owned fd, a listener that can bind an
/// ephemeral port (port 0) and report the port it got — how the tests and
/// benches avoid fixed-port collisions — and blocking connect/read/write
/// helpers that retry EINTR. No frameworks, no event library: the server's
/// poll(2) loop sits directly on these fds.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_SUPPORT_SOCKET_H
#define AWDIT_SUPPORT_SOCKET_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace awdit {

/// A move-only owned socket fd; closes on destruction.
class Socket {
public:
  Socket() = default;
  explicit Socket(int Fd) : Fd(Fd) {}
  ~Socket() { close(); }

  Socket(const Socket &) = delete;
  Socket &operator=(const Socket &) = delete;
  Socket(Socket &&Other) noexcept : Fd(Other.Fd) { Other.Fd = -1; }
  Socket &operator=(Socket &&Other) noexcept {
    if (this != &Other) {
      close();
      Fd = Other.Fd;
      Other.Fd = -1;
    }
    return *this;
  }

  bool valid() const { return Fd >= 0; }
  int fd() const { return Fd; }

  /// Closes the fd now (idempotent).
  void close();

  /// Releases ownership without closing.
  int release() {
    int F = Fd;
    Fd = -1;
    return F;
  }

  /// Reads up to \p Size bytes (blocking, EINTR-retrying). Returns the
  /// byte count, 0 on orderly peer close, -1 on error.
  long readSome(char *Buf, size_t Size) const;

  /// Writes all of \p Data (blocking, EINTR-retrying, handles short
  /// writes). Returns false on error (e.g. the peer closed).
  bool writeAll(std::string_view Data) const;

  /// One non-blocking send attempt: writes as much of \p Data as the
  /// kernel buffer takes right now. Returns the byte count (possibly
  /// short), 0 when the buffer is full (EAGAIN/EWOULDBLOCK — poll for
  /// POLLOUT and retry), -1 on a hard error. EINTR-retrying; the fd
  /// should be in non-blocking mode (setNonBlocking()).
  long sendSome(std::string_view Data) const;

  /// Switches the fd's O_NONBLOCK flag. Returns false on fcntl failure.
  bool setNonBlocking(bool Enable) const;

  /// Shuts down the write half (signals end-of-stream to the peer while
  /// still reading replies).
  void shutdownWrite() const;

private:
  int Fd = -1;
};

/// A listening TCP socket. Binds with SO_REUSEADDR; port 0 picks an
/// ephemeral port, reported by port().
class TcpListener {
public:
  TcpListener() = default;

  /// Binds \p Host:\p Port and listens. \p Host is a dotted-quad IPv4
  /// address ("127.0.0.1", "0.0.0.0"). Returns false with \p Err set on
  /// failure.
  bool listenOn(const std::string &Host, uint16_t Port, std::string *Err);

  bool valid() const { return Sock.valid(); }
  int fd() const { return Sock.fd(); }

  /// The bound port (the kernel's pick when listenOn() was given port 0).
  uint16_t port() const { return BoundPort; }

  /// Accepts one connection (blocking, EINTR-retrying) with TCP_NODELAY
  /// set, as tcpConnect() sets it. Invalid Socket on error.
  Socket accept() const;

  void close() { Sock.close(); }

private:
  Socket Sock;
  uint16_t BoundPort = 0;
};

/// Connects to \p Host:\p Port (blocking). Invalid Socket with \p Err set
/// on failure.
Socket tcpConnect(const std::string &Host, uint16_t Port, std::string *Err);

} // namespace awdit

#endif // AWDIT_SUPPORT_SOCKET_H
