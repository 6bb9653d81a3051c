//===- Socket.h - Unix-socket line transport -------------------*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The line-oriented Unix-domain-socket transport of protocol v2, shared by
/// the daemon's socket server and its thin client, `verify_tool --connect`
/// (DESIGN.md, "Protocol v2"). One LineConn wraps a connected,
/// non-blocking fd with an inbound line assembler and an outbound byte
/// buffer, with the robustness properties a multi-client server needs:
///
///  - *Partial writes never corrupt a line.* sendLine queues the whole
///    line; flushWrites drains as much as the socket accepts and keeps the
///    rest buffered, so the next flush resumes mid-line instead of
///    re-sending or interleaving.
///  - *A dead peer is an event, not a signal.* Writes use send(2) with
///    MSG_NOSIGNAL, so a disconnected subscriber yields EPIPE on this call
///    instead of SIGPIPE to the process; EPIPE/ECONNRESET mark the
///    connection dead and the owner reaps it. Other peers are unaffected.
///  - *A wedged peer cannot wedge the server.* The fd is non-blocking and
///    the outbound buffer is capped; a subscriber that stops reading while
///    the buffer is over budget is marked dead rather than blocking the
///    broadcast loop or growing without bound.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_SUPPORT_SOCKET_H
#define RCC_SUPPORT_SOCKET_H

#include <cstddef>
#include <string>
#include <vector>

namespace rcc::net {

/// Creates, binds, and listens on a Unix stream socket at \p Path
/// (unlinking any stale socket first). Returns the listening fd, or -1
/// with \p Err set.
int listenUnix(const std::string &Path, std::string *Err);

/// Connects to the Unix stream socket at \p Path. Returns the connected
/// fd, or -1 with \p Err set.
int connectUnix(const std::string &Path, std::string *Err);

/// Sets O_NONBLOCK on \p Fd. Returns false on fcntl failure.
bool setNonBlocking(int Fd);

/// One buffered line connection (see file comment). The owner polls the fd
/// (POLLIN always, POLLOUT while wantsWrite()) and calls readLines /
/// flushWrites from its event loop.
class LineConn {
public:
  /// Takes ownership of \p Fd and makes it non-blocking.
  explicit LineConn(int Fd);
  ~LineConn();
  LineConn(LineConn &&O) noexcept;
  LineConn &operator=(LineConn &&O) noexcept;
  LineConn(const LineConn &) = delete;
  LineConn &operator=(const LineConn &) = delete;

  int fd() const { return Fd; }
  bool dead() const { return Dead; }
  void markDead() { Dead = true; }

  /// Queues \p Line plus a trailing '\n' and flushes opportunistically.
  /// A dead connection drops the line silently (the owner reaps it).
  void sendLine(const std::string &Line);

  /// Drains the outbound buffer as far as the socket accepts right now.
  /// EPIPE/ECONNRESET/EBADF (or an over-cap buffer on a stalled peer)
  /// mark the connection dead.
  void flushWrites();

  /// True while outbound bytes are buffered (poll POLLOUT).
  bool wantsWrite() const { return !OutBuf.empty(); }
  size_t pendingBytes() const { return OutBuf.size(); }

  /// Reads whatever is available, appending every complete line (without
  /// its terminator) to \p Out. Returns false on EOF or a hard error, in
  /// which case the connection is dead (buffered complete lines are still
  /// delivered on this final call). Works even after a send-side failure
  /// marked the connection dead: bytes the peer wrote before closing stay
  /// readable until EOF.
  bool readLines(std::vector<std::string> &Out);

  /// Blocking read for a peer that owns its thread (a thin client, a
  /// test): waits up to \p TimeoutMs (negative: forever, as in
  /// poll(2)) for the next complete line, flushing queued writes while it
  /// waits. False on timeout, or once the connection is dead and no
  /// complete line is left: a dead connection is drained, never waited on.
  bool waitLine(std::string &Out, int TimeoutMs);

  /// Closes the fd now (also done by the destructor).
  void close();

  /// Outbound buffer budget: a peer further behind than this is dead.
  static constexpr size_t kMaxOutBuf = 8u << 20;

private:
  /// The read half of readLines: appends what is available to InBuf.
  bool readAvailable();
  /// Moves the first complete line of InBuf to \p Out.
  bool takeLine(std::string &Out);

  int Fd = -1;
  bool Dead = false;
  std::string InBuf;
  std::string OutBuf;
  size_t OutOff = 0; ///< bytes of OutBuf already written
};

} // namespace rcc::net

#endif // RCC_SUPPORT_SOCKET_H
