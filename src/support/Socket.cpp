//===- Socket.cpp - Unix-socket line transport ----------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "support/Socket.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace rcc;
using namespace rcc::net;

static bool fillAddr(const std::string &Path, sockaddr_un &Addr,
                     std::string *Err) {
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    if (Err)
      *Err = "socket path too long: " + Path;
    return false;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

int net::listenUnix(const std::string &Path, std::string *Err) {
  sockaddr_un Addr;
  if (!fillAddr(Path, Addr, Err))
    return -1;
  int Fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    if (Err)
      *Err = std::string("socket: ") + strerror(errno);
    return -1;
  }
  ::unlink(Path.c_str()); // stale socket from a crashed server
  if (bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      listen(Fd, 16) < 0) {
    if (Err)
      *Err = "bind " + Path + ": " + strerror(errno);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int net::connectUnix(const std::string &Path, std::string *Err) {
  sockaddr_un Addr;
  if (!fillAddr(Path, Addr, Err))
    return -1;
  int Fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    if (Err)
      *Err = std::string("socket: ") + strerror(errno);
    return -1;
  }
  if (connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    if (Err)
      *Err = "connect " + Path + ": " + strerror(errno);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool net::setNonBlocking(int Fd) {
  int Flags = fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

LineConn::LineConn(int FdIn) : Fd(FdIn) {
  if (Fd >= 0)
    setNonBlocking(Fd);
  else
    Dead = true;
}

LineConn::~LineConn() { close(); }

LineConn::LineConn(LineConn &&O) noexcept
    : Fd(O.Fd), Dead(O.Dead), InBuf(std::move(O.InBuf)),
      OutBuf(std::move(O.OutBuf)), OutOff(O.OutOff) {
  O.Fd = -1;
  O.Dead = true;
}

LineConn &LineConn::operator=(LineConn &&O) noexcept {
  if (this != &O) {
    close();
    Fd = O.Fd;
    Dead = O.Dead;
    InBuf = std::move(O.InBuf);
    OutBuf = std::move(O.OutBuf);
    OutOff = O.OutOff;
    O.Fd = -1;
    O.Dead = true;
  }
  return *this;
}

void LineConn::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  Dead = true;
}

void LineConn::sendLine(const std::string &Line) {
  if (Dead)
    return;
  OutBuf.append(Line);
  OutBuf.push_back('\n');
  flushWrites();
}

void LineConn::flushWrites() {
  if (Dead || Fd < 0)
    return;
  while (OutOff < OutBuf.size()) {
    ssize_t W = send(Fd, OutBuf.data() + OutOff, OutBuf.size() - OutOff,
                     MSG_NOSIGNAL);
    if (W > 0) {
      OutOff += static_cast<size_t>(W);
      continue;
    }
    if (W < 0 && errno == EINTR)
      continue;
    if (W < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // The peer's receive window is full. Keep the tail buffered; a peer
      // further behind than the budget is dead, not a memory leak.
      if (OutBuf.size() - OutOff > kMaxOutBuf)
        Dead = true;
      break;
    }
    // EPIPE / ECONNRESET / anything else: this peer only.
    Dead = true;
    break;
  }
  if (OutOff == OutBuf.size() || Dead) {
    OutBuf.clear();
    OutOff = 0;
  } else if (OutOff > (1u << 16)) {
    // Compact occasionally so a slow drain does not pin the prefix.
    OutBuf.erase(0, OutOff);
    OutOff = 0;
  }
}

bool LineConn::readAvailable() {
  // Deliberately not gated on Dead: a send-side EPIPE means the peer
  // closed, but lines it wrote before closing are still queued in our
  // receive buffer and must remain readable (e.g. the daemon's error reply
  // to a rejected hello, read by a client whose next send already failed).
  if (Fd < 0)
    return false;
  char Chunk[4096];
  for (;;) {
    ssize_t R = read(Fd, Chunk, sizeof(Chunk));
    if (R > 0) {
      InBuf.append(Chunk, static_cast<size_t>(R));
      if (R == static_cast<ssize_t>(sizeof(Chunk)))
        continue; // more may be pending
      return true;
    }
    if (R < 0 && errno == EINTR)
      continue;
    if (R < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return true;
    // EOF or hard error.
    Dead = true;
    return false;
  }
}

bool LineConn::takeLine(std::string &Out) {
  size_t NL = InBuf.find('\n');
  if (NL == std::string::npos)
    return false;
  Out = InBuf.substr(0, NL);
  InBuf.erase(0, NL + 1);
  return true;
}

bool LineConn::readLines(std::vector<std::string> &Out) {
  bool Open = readAvailable();
  std::string Line;
  while (takeLine(Line))
    Out.push_back(std::move(Line));
  return Open;
}

bool LineConn::waitLine(std::string &Out, int TimeoutMs) {
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(TimeoutMs);
  while (!takeLine(Out)) {
    if (Dead) {
      // A send may have hit EPIPE after the peer wrote its last lines and
      // closed; those bytes are still in the receive buffer.
      readAvailable();
      return takeLine(Out);
    }
    int Wait = -1;
    if (TimeoutMs >= 0) {
      auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
          Deadline - std::chrono::steady_clock::now());
      if (Left.count() <= 0)
        return false;
      Wait = static_cast<int>(Left.count());
    }
    struct pollfd P = {Fd, POLLIN, 0};
    if (wantsWrite())
      P.events |= POLLOUT;
    if (poll(&P, 1, Wait) < 0 && errno != EINTR)
      return false;
    if (P.revents & POLLOUT)
      flushWrites();
    if (P.revents & (POLLIN | POLLHUP | POLLERR))
      readAvailable();
  }
  return true;
}
