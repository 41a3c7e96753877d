//===- support/socket.cpp - RAII TCP sockets for the server ----------------===//

#include "support/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace awdit;

namespace {

/// A peer that disappears mid-write must surface as an error return, not a
/// process-killing SIGPIPE. MSG_NOSIGNAL covers send(); this guards the
/// rest (and non-Linux sends) once per process.
void ignoreSigpipeOnce() {
  static const bool Done = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)Done;
}

} // namespace

void Socket::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

long Socket::readSome(char *Buf, size_t Size) const {
  for (;;) {
    ssize_t N = ::recv(Fd, Buf, Size, 0);
    if (N < 0 && errno == EINTR)
      continue;
    return static_cast<long>(N);
  }
}

bool Socket::writeAll(std::string_view Data) const {
  ignoreSigpipeOnce();
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

long Socket::sendSome(std::string_view Data) const {
  ignoreSigpipeOnce();
  for (;;) {
    ssize_t N = ::send(Fd, Data.data(), Data.size(),
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (N >= 0)
      return static_cast<long>(N);
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return 0;
    return -1;
  }
}

bool Socket::setNonBlocking(bool Enable) const {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags < 0)
    return false;
  int Want = Enable ? (Flags | O_NONBLOCK) : (Flags & ~O_NONBLOCK);
  return Want == Flags || ::fcntl(Fd, F_SETFL, Want) == 0;
}

void Socket::shutdownWrite() const { ::shutdown(Fd, SHUT_WR); }

bool TcpListener::listenOn(const std::string &Host, uint16_t Port,
                           std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg + ": " + std::strerror(errno);
    return false;
  };
  ignoreSigpipeOnce();
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return Fail("socket()");
  Sock = Socket(Fd);
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1) {
    if (Err)
      *Err = "invalid listen address '" + Host + "'";
    Sock.close();
    return false;
  }
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    bool R = Fail("bind " + Host + ":" + std::to_string(Port));
    Sock.close();
    return R;
  }
  if (::listen(Fd, 128) != 0) {
    bool R = Fail("listen()");
    Sock.close();
    return R;
  }
  sockaddr_in Bound = {};
  socklen_t Len = sizeof(Bound);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Bound), &Len) != 0) {
    bool R = Fail("getsockname()");
    Sock.close();
    return R;
  }
  BoundPort = ntohs(Bound.sin_port);
  return true;
}

Socket TcpListener::accept() const {
  for (;;) {
    int Fd = ::accept(Sock.fd(), nullptr, nullptr);
    if (Fd < 0 && errno == EINTR)
      continue;
    if (Fd >= 0) {
      // Replies are small lines; without this an ack waits for the peer's
      // delayed ACK (tens of milliseconds) behind the previous one.
      int One = 1;
      ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    }
    return Socket(Fd);
  }
}

Socket awdit::tcpConnect(const std::string &Host, uint16_t Port,
                         std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg + ": " + std::strerror(errno);
    return Socket();
  };
  ignoreSigpipeOnce();
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return Fail("socket()");
  Socket S(Fd);
  sockaddr_in Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1) {
    if (Err)
      *Err = "invalid address '" + Host + "'";
    return Socket();
  }
  for (;;) {
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
        0)
      break;
    if (errno == EINTR)
      continue;
    return Fail("connect " + Host + ":" + std::to_string(Port));
  }
  // The protocol is line-oriented request/reply; don't batch tiny lines.
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return S;
}
