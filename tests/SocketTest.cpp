//===- SocketTest.cpp - LineConn transport robustness ---------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The robustness contracts of the buffered line transport (DESIGN.md,
/// "Protocol v2"): partial writes never split a line, a dead peer is an
/// event on that connection only (EPIPE, not SIGPIPE), a stalled peer is
/// bounded by the outbound budget, and bytes a peer wrote before closing
/// stay readable even after our own send failed — the property a thin
/// client depends on to read the daemon's last reply.
///
//===----------------------------------------------------------------------===//

#include "support/Socket.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace rcc::net;

namespace {

/// A connected AF_UNIX stream pair; both ends close on destruction.
struct Pair {
  int A = -1, B = -1;
  Pair() {
    int Fds[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) == 0) {
      A = Fds[0];
      B = Fds[1];
    }
  }
  ~Pair() {
    if (A >= 0)
      ::close(A);
    if (B >= 0)
      ::close(B);
  }
  /// Detaches B (the raw peer end) so a LineConn can own it elsewhere.
  int takeB() {
    int R = B;
    B = -1;
    return R;
  }
};

/// Reads lines from \p Conn until it has \p N of them or ~2s pass.
std::vector<std::string> readN(LineConn &Conn, size_t N) {
  std::vector<std::string> Lines;
  for (int I = 0; I < 200 && Lines.size() < N; ++I) {
    struct pollfd P = {Conn.fd(), POLLIN, 0};
    poll(&P, 1, 10);
    if (!Conn.readLines(Lines))
      break;
  }
  return Lines;
}

TEST(LineConn, LinesCrossChunkBoundaries) {
  Pair SP;
  ASSERT_GE(SP.A, 0);
  LineConn Conn(SP.takeB());

  // One line dribbled in three writes, then two lines in one write.
  ASSERT_EQ(write(SP.A, "hel", 3), 3);
  ASSERT_EQ(write(SP.A, "lo wor", 6), 6);
  ASSERT_EQ(write(SP.A, "ld\n", 3), 3);
  ASSERT_EQ(write(SP.A, "a\nb\n", 4), 4);

  std::vector<std::string> Lines = readN(Conn, 3);
  ASSERT_EQ(Lines.size(), 3u);
  EXPECT_EQ(Lines[0], "hello world");
  EXPECT_EQ(Lines[1], "a");
  EXPECT_EQ(Lines[2], "b");
  EXPECT_FALSE(Conn.dead());
}

TEST(LineConn, PartialWritesResumeWithoutCorruption) {
  Pair SP;
  ASSERT_GE(SP.A, 0);
  // Shrink both buffers so a large line cannot be accepted in one send.
  int Small = 4096;
  setsockopt(SP.B, SOL_SOCKET, SO_SNDBUF, &Small, sizeof(Small));
  setsockopt(SP.A, SOL_SOCKET, SO_RCVBUF, &Small, sizeof(Small));
  LineConn Conn(SP.takeB());

  std::string Big(256 * 1024, 'x');
  Conn.sendLine(Big);
  EXPECT_TRUE(Conn.wantsWrite()); // tail is buffered, not dropped
  EXPECT_FALSE(Conn.dead());      // a slow peer under budget is not dead

  // Drain the reader while re-flushing the writer until the line is whole.
  std::string Got;
  char Buf[65536];
  while (Got.find('\n') == std::string::npos) {
    Conn.flushWrites();
    ssize_t R = read(SP.A, Buf, sizeof(Buf));
    if (R > 0)
      Got.append(Buf, static_cast<size_t>(R));
    ASSERT_FALSE(R == 0) << "peer saw EOF before the full line";
  }
  EXPECT_EQ(Got, Big + "\n");
  EXPECT_FALSE(Conn.wantsWrite());
}

TEST(LineConn, DeadPeerIsEpipeNotSigpipe) {
  Pair SP;
  ASSERT_GE(SP.A, 0);
  LineConn Conn(SP.takeB());
  ::close(SP.A);
  SP.A = -1;

  // If MSG_NOSIGNAL were missing, this would raise SIGPIPE and kill the
  // test binary instead of marking the one connection dead.
  Conn.sendLine("into the void");
  Conn.flushWrites();
  EXPECT_TRUE(Conn.dead());

  // A dead connection swallows writes silently; the owner reaps it.
  Conn.sendLine("still nothing");
  EXPECT_FALSE(Conn.wantsWrite());
}

TEST(LineConn, StalledPeerBoundedByBudget) {
  Pair SP;
  ASSERT_GE(SP.A, 0);
  int Small = 4096;
  setsockopt(SP.B, SOL_SOCKET, SO_SNDBUF, &Small, sizeof(Small));
  LineConn Conn(SP.takeB());

  // The peer never reads. Pending bytes must never exceed the budget (plus
  // one line): past it the connection is declared dead, not grown forever.
  std::string Chunk(1u << 20, 'y');
  for (int I = 0; I < 12 && !Conn.dead(); ++I)
    Conn.sendLine(Chunk);
  EXPECT_TRUE(Conn.dead());
  EXPECT_LE(Conn.pendingBytes(), LineConn::kMaxOutBuf + Chunk.size() + 1);
}

TEST(LineConn, ReadableAfterSendSideFailure) {
  // The peer writes its final message and closes; our next send hits
  // EPIPE and marks the connection dead. The final message must still be
  // deliverable.
  Pair SP;
  ASSERT_GE(SP.A, 0);
  LineConn Conn(SP.takeB());

  ASSERT_EQ(write(SP.A, "parting gift\n", 13), 13);
  ::close(SP.A);
  SP.A = -1;

  Conn.sendLine("who's there?");
  Conn.flushWrites();
  ASSERT_TRUE(Conn.dead());

  std::vector<std::string> Lines;
  Conn.readLines(Lines);
  ASSERT_EQ(Lines.size(), 1u);
  EXPECT_EQ(Lines[0], "parting gift");
}

TEST(LineConn, EofDeliversBufferedLines) {
  Pair SP;
  ASSERT_GE(SP.A, 0);
  LineConn Conn(SP.takeB());

  ASSERT_EQ(write(SP.A, "last\nwords\nincomplete", 21), 21);
  ::close(SP.A);
  SP.A = -1;

  // A short read returns the lines without probing for EOF; the next call
  // observes the EOF. Complete lines always arrive; the unterminated tail
  // is dropped (a line is only a line with its terminator).
  std::vector<std::string> Lines;
  while (Conn.readLines(Lines)) {
  }
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_EQ(Lines[0], "last");
  EXPECT_EQ(Lines[1], "words");
  EXPECT_TRUE(Conn.dead());
}

TEST(LineConn, NegativeFdIsBornDead) {
  LineConn Conn(-1);
  EXPECT_TRUE(Conn.dead());
  std::vector<std::string> Lines;
  EXPECT_FALSE(Conn.readLines(Lines));
  Conn.sendLine("nope"); // must not crash
  EXPECT_FALSE(Conn.wantsWrite());
}

} // namespace
