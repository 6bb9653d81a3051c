//===- DaemonTest.cpp - verifyd daemon and debug-log contracts ------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Contracts of the verification daemon (DESIGN.md, "Verification daemon"):
/// protocol v2 through the shared request handler (handleLine), the stdio
/// transport over a pipe and the socket transport over a real Unix socket,
/// the incremental revision model (editing one function re-verifies
/// exactly that function), L2 warm starts across daemon restarts, GC
/// honoring the cache byte budget — plus the mutex-guarded RCC_TRACE debug
/// log the daemon's parallel revisions depend on.
///
/// NOTE: the first test sets RCC_TRACE before anything queries
/// debugTraceLevel(), which caches the environment once per process; gtest
/// runs tests of one file in declaration order, so keep it first.
///
//===----------------------------------------------------------------------===//

#include "daemon/Daemon.h"
#include "daemon/Protocol.h"
#include "support/Socket.h"
#include "support/Util.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace rcc;
using namespace rcc::daemon;

namespace fs = std::filesystem;

namespace {

/// A self-deleting unique temp directory per test.
struct TempDir {
  fs::path Path;
  TempDir() {
    static int Counter = 0;
    Path = fs::temp_directory_path() /
           ("rcc_daemon_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(Counter++));
    fs::create_directories(Path);
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

/// Two annotated functions; editing kEditedSecond changes only `idB` (same
/// line/column layout, so `idA`'s body and source locations are
/// untouched and its content hash — and L1 entry — stay valid).
const char *kTwoFns = R"([[rc::args("int<i32>")]]
[[rc::returns("int<i32>")]]
int idA(int x) { return x; }
[[rc::args("int<i32>")]]
[[rc::returns("int<i32>")]]
int idB(int x) { return x; }
)";
const char *kEditedSecond = R"([[rc::args("int<i32>")]]
[[rc::returns("int<i32>")]]
int idA(int x) { return x; }
[[rc::args("int<i32>")]]
[[rc::returns("int<i32>")]]
int idB(int x) { int y = x; return y; }
)";

void writeFile(const std::string &Path, const std::string &Content) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Content;
}

/// Collects emitted events, rendered as no request's reply (id 0), and
/// answers simple queries about them.
struct Events {
  std::vector<std::string> Lines;
  StructuredSink sink() {
    return [this](const Event &E) { Lines.push_back(E.toJsonLine(0)); };
  }
  /// The last line containing \p Needle ("" if none).
  std::string last(const std::string &Needle) const {
    for (auto It = Lines.rbegin(); It != Lines.rend(); ++It)
      if (It->find(Needle) != std::string::npos)
        return *It;
    return "";
  }
  size_t count(const std::string &Needle) const {
    size_t N = 0;
    for (const std::string &L : Lines)
      N += L.find(Needle) != std::string::npos;
    return N;
  }
};

/// Extracts the unsigned value of `"key": N` from an event line (or -1).
long long field(const std::string &Line, const std::string &Key) {
  std::string Pat = "\"" + Key + "\": ";
  size_t P = Line.find(Pat);
  if (P == std::string::npos)
    return -1;
  return atoll(Line.c_str() + P + Pat.size());
}

std::string helloLine(unsigned Version = daemon::kProtocolVersion) {
  daemon::Hello H;
  H.Version = Version;
  H.Role = "client";
  H.Name = "test";
  return H.toLine();
}

std::string reqLine(uint64_t Id, const std::string &Method) {
  return daemon::Request{Id, Method}.toLine();
}

/// True when \p Line is a protocol message of kind \p K.
bool isMsg(const std::string &Line, daemon::MsgKind K) {
  daemon::Msg M;
  return daemon::parseMsg(Line, M) && M.Kind == K;
}

} // namespace

//===----------------------------------------------------------------------===//
// RCC_TRACE debug log (keep first: debugTraceLevel caches the env once)
//===----------------------------------------------------------------------===//

TEST(DebugLog, TraceLevelParsingAndConcurrentLines) {
  ::setenv("RCC_TRACE", "1", 1);
  EXPECT_EQ(debugTraceLevel(), 1) << "cached from the env set above";

  // Hammer the log from several threads; the process-wide mutex guarantees
  // whole lines (the raw fprintf it replaced interleaved under --jobs>1).
  // Silence stderr for the duration so test output stays readable.
  fflush(stderr);
  int SavedErr = dup(2);
  ASSERT_GE(SavedErr, 0);
  FILE *Null = fopen("/dev/null", "w");
  ASSERT_TRUE(Null != nullptr);
  dup2(fileno(Null), 2);

  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([T] {
      for (int I = 0; I < 50; ++I)
        debugLog("debuglog-test thread " + std::to_string(T) + " line " +
                 std::to_string(I));
    });
  for (std::thread &T : Threads)
    T.join();

  fflush(stderr);
  dup2(SavedErr, 2);
  close(SavedErr);
  fclose(Null);
}

TEST(DebugLog, EngineRunsUnderTraceEnv) {
  // With RCC_TRACE=1 cached as level 1 above, a parallel daemon revision
  // exercises the engine's debug-log path; it must still verify cleanly.
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  fflush(stderr);
  int SavedErr = dup(2);
  ASSERT_GE(SavedErr, 0);
  FILE *Null = fopen("/dev/null", "w");
  ASSERT_TRUE(Null != nullptr);
  dup2(fileno(Null), 2);

  DaemonOptions O;
  O.Path = Src;
  O.Jobs = 4;
  Daemon D(O);
  Events E;
  EXPECT_TRUE(D.checkOnce(E.sink(), /*Force=*/true));

  fflush(stderr);
  dup2(SavedErr, 2);
  close(SavedErr);
  fclose(Null);

  EXPECT_TRUE(D.lastAllVerified());
}

//===----------------------------------------------------------------------===//
// Revision model: edit -> re-verify exactly the changed function
//===----------------------------------------------------------------------===//

TEST(Daemon, ColdStartVerifiesEverything) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);
  Events E;
  EXPECT_TRUE(D.checkOnce(E.sink(), /*Force=*/true));
  EXPECT_EQ(D.revision(), 1u);
  EXPECT_TRUE(D.lastAllVerified());

  std::string Done = E.last("\"event\": \"revision_done\"");
  ASSERT_FALSE(Done.empty());
  EXPECT_EQ(field(Done, "functions"), 2);
  EXPECT_EQ(field(Done, "reverified"), 2);
  EXPECT_EQ(field(Done, "cached"), 0);
  EXPECT_NE(Done.find("\"all_verified\": true"), std::string::npos);
  EXPECT_EQ(E.count("\"event\": \"diagnostic\""), 2u);
}

TEST(Daemon, EditReverifiesExactlyTheChangedFunction) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);
  Events Cold;
  ASSERT_TRUE(D.checkOnce(Cold.sink(), /*Force=*/true));

  // An unchanged forced check is not a revision but still gets a reply.
  Events Same;
  EXPECT_FALSE(D.checkOnce(Same.sink(), /*Force=*/true));
  EXPECT_EQ(D.revision(), 1u);
  EXPECT_FALSE(Same.last("\"event\": \"unchanged\"").empty());

  // Edit the second function in place: exactly one function re-verifies,
  // the other is a warm L1 hit.
  writeFile(Src, kEditedSecond);
  Events Edit;
  EXPECT_TRUE(D.checkOnce(Edit.sink(), /*Force=*/true));
  EXPECT_EQ(D.revision(), 2u);
  std::string Done = Edit.last("\"event\": \"revision_done\"");
  ASSERT_FALSE(Done.empty());
  EXPECT_EQ(field(Done, "reverified"), 1);
  EXPECT_EQ(field(Done, "cached"), 1);
  EXPECT_EQ(field(Done, "l1_hits"), 1);
  EXPECT_NE(Done.find("\"all_verified\": true"), std::string::npos);

  std::string DiagB = Edit.last("\"fn\": \"idB\"");
  ASSERT_FALSE(DiagB.empty());
  EXPECT_NE(DiagB.find("\"cached\": false"), std::string::npos);
  std::string DiagA = Edit.last("\"fn\": \"idA\"");
  ASSERT_FALSE(DiagA.empty());
  EXPECT_NE(DiagA.find("\"cached\": true"), std::string::npos);
}

TEST(Daemon, TouchWithoutEditIsNotARevision) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);
  Events E;
  ASSERT_TRUE(D.checkOnce(E.sink(), /*Force=*/true));

  // Rewriting identical bytes bumps the mtime; the content hash must stop
  // the watch tick from spending a revision on it.
  writeFile(Src, kTwoFns);
  Events Tick;
  EXPECT_FALSE(D.checkOnce(Tick.sink(), /*Force=*/false));
  EXPECT_EQ(D.revision(), 1u);
  EXPECT_TRUE(Tick.Lines.empty()) << "watch ticks are silent on no change";
}

TEST(Daemon, CompileErrorKeepsServingPreviousRevision) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);
  Events E;
  ASSERT_TRUE(D.checkOnce(E.sink(), /*Force=*/true));

  writeFile(Src, "int broken( { return 0; }\n");
  Events Bad;
  EXPECT_TRUE(D.checkOnce(Bad.sink(), /*Force=*/true));
  EXPECT_FALSE(D.lastAllVerified());
  EXPECT_FALSE(Bad.last("\"event\": \"error\"").empty());

  // Fixing the file verifies again; the pre-error results are still warm.
  writeFile(Src, kTwoFns);
  Events Fixed;
  EXPECT_TRUE(D.checkOnce(Fixed.sink(), /*Force=*/true));
  EXPECT_TRUE(D.lastAllVerified());
  std::string Done = Fixed.last("\"event\": \"revision_done\"");
  EXPECT_EQ(field(Done, "l1_hits"), 2) << "unchanged bodies stay warm "
                                          "across a broken intermediate "
                                          "revision";
}

//===----------------------------------------------------------------------===//
// Restart -> L2 warm start; GC honors the byte budget
//===----------------------------------------------------------------------===//

TEST(Daemon, RestartServesUnchangedFunctionsFromReplayedL2) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  DaemonOptions O;
  O.Path = Src;
  O.CacheDir = Dir.str() + "/cache";
  {
    Daemon D(O);
    Events E;
    ASSERT_TRUE(D.checkOnce(E.sink(), /*Force=*/true));
    ASSERT_TRUE(D.lastAllVerified());
  }

  // A fresh daemon (cold L1) on the same cache dir: everything is an L2
  // hit, replayed through the proof checker before being trusted.
  Daemon D2(O);
  Events E2;
  ASSERT_TRUE(D2.checkOnce(E2.sink(), /*Force=*/true));
  EXPECT_TRUE(D2.lastAllVerified());
  std::string Done = E2.last("\"event\": \"revision_done\"");
  ASSERT_FALSE(Done.empty());
  EXPECT_EQ(field(Done, "reverified"), 0);
  EXPECT_EQ(field(Done, "l2_hits"), 2);
  EXPECT_EQ(field(Done, "replayed"), 2);
}

TEST(Daemon, GcHonorsCacheMaxBytes) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  DaemonOptions O;
  O.Path = Src;
  O.CacheDir = Dir.str() + "/cache";
  O.CacheMaxBytes = 1; // every entry is bigger than this
  Daemon D(O);
  Events E;
  ASSERT_TRUE(D.checkOnce(E.sink(), /*Force=*/true));
  ASSERT_TRUE(D.l2() != nullptr);
  EXPECT_LE(D.l2()->sizeBytes(), O.CacheMaxBytes);
  std::string Gc = E.last("\"event\": \"gc\"");
  ASSERT_FALSE(Gc.empty());
  EXPECT_EQ(field(Gc, "evicted"), 2);
  EXPECT_EQ(field(Gc, "max_bytes"), 1);
}

//===----------------------------------------------------------------------===//
// Protocol: the request handler both transports share
//===----------------------------------------------------------------------===//

TEST(Daemon, RequestProtocol) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);
  Events Cold;
  ASSERT_TRUE(D.checkOnce(Cold.sink(), /*Force=*/true));

  Daemon::Peer P;
  std::vector<std::string> Replies;
  Daemon::LineSink Reply = [&Replies](const std::string &L) {
    Replies.push_back(L);
  };
  Events R;
  StructuredSink Sink = [&](const Event &E) {
    R.Lines.push_back(E.toJsonLine(P.ReqId));
  };

  // A request before the handshake is refused and runs nothing.
  EXPECT_TRUE(D.handleLine(P, reqLine(1, "status"), Reply, Sink));
  EXPECT_TRUE(R.Lines.empty());
  ASSERT_EQ(Replies.size(), 1u);
  EXPECT_TRUE(isMsg(Replies[0], daemon::MsgKind::Error)) << Replies[0];

  EXPECT_TRUE(D.handleLine(P, helloLine(), Reply, Sink));
  ASSERT_EQ(Replies.size(), 2u);
  EXPECT_TRUE(isMsg(Replies[1], daemon::MsgKind::HelloAck)) << Replies[1];

  EXPECT_TRUE(D.handleLine(P, reqLine(1, "status"), Reply, Sink));
  std::string St = R.last("\"event\": \"status\"");
  ASSERT_FALSE(St.empty());
  EXPECT_EQ(field(St, "id"), 1);
  EXPECT_EQ(field(St, "functions"), 2);
  EXPECT_NE(St.find("\"all_verified\": true"), std::string::npos);
  EXPECT_EQ(P.ReqId, 0u) << "the id ends with its request";

  EXPECT_TRUE(D.handleLine(P, reqLine(2, "check"), Reply, Sink));
  EXPECT_EQ(field(R.last("\"event\": \"unchanged\""), "id"), 2);

  // Blank lines are ignored. Bare words (the old command set and its
  // aliases), unknown methods and a second hello each get an error on the
  // reply channel, and run nothing.
  size_t EventsBefore = R.Lines.size(), RepliesBefore = Replies.size();
  EXPECT_TRUE(D.handleLine(P, "", Reply, Sink));
  for (const char *Bare : {"check", "verify", "status", "shutdown", "quit"})
    EXPECT_TRUE(D.handleLine(P, Bare, Reply, Sink)) << Bare;
  EXPECT_TRUE(D.handleLine(P, reqLine(3, "verify"), Reply, Sink));
  EXPECT_TRUE(D.handleLine(P, helloLine(), Reply, Sink));
  EXPECT_EQ(R.Lines.size(), EventsBefore);
  ASSERT_EQ(Replies.size(), RepliesBefore + 7);
  for (size_t I = RepliesBefore; I < Replies.size(); ++I)
    EXPECT_TRUE(isMsg(Replies[I], daemon::MsgKind::Error)) << Replies[I];
  EXPECT_NE(Replies[RepliesBefore + 5].find("unknown method 'verify'"),
            std::string::npos);
  EXPECT_EQ(D.revision(), 1u);

  EXPECT_FALSE(D.handleLine(P, reqLine(4, "shutdown"), Reply, Sink));
  EXPECT_EQ(P.ReqId, 4u) << "kept for the final shutdown event";

  // `bye` closes a peer; so does a hello with another protocol version.
  Daemon::Peer Bye, Old;
  EXPECT_TRUE(D.handleLine(Bye, helloLine(), Reply, Sink));
  EXPECT_TRUE(D.handleLine(Bye, daemon::Bye{}.toLine(), Reply, Sink));
  EXPECT_TRUE(Bye.Closed);
  EXPECT_TRUE(D.handleLine(Old, helloLine(1), Reply, Sink));
  EXPECT_TRUE(Old.Closed);
  EXPECT_FALSE(Old.Greeted);
  EXPECT_NE(Replies.back().find("protocol version 1 not supported"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Stdio transport (fed through a pipe, like production's stdin)
//===----------------------------------------------------------------------===//

/// Runs \p D's stdio transport on \p Input, which is written into a pipe
/// and closed first (it fits the pipe buffer). Returns the exit code; the
/// output lands in \p Out.
int runStdio(Daemon &D, const std::string &Input, std::string &Out) {
  int Fds[2];
  if (pipe(Fds) != 0)
    return -1;
  bool Wrote = write(Fds[1], Input.data(), Input.size()) ==
               static_cast<ssize_t>(Input.size());
  close(Fds[1]);
  std::ostringstream OS;
  int Rc = Wrote ? D.runStdio(Fds[0], OS) : -1;
  close(Fds[0]);
  Out = OS.str();
  return Rc;
}

TEST(Daemon, StdioRoundTrip) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);
  std::string Log;
  EXPECT_EQ(runStdio(D,
                     helloLine() + "\n" + reqLine(1, "status") + "\n" +
                         reqLine(2, "check") + "\n" +
                         reqLine(3, "shutdown") + "\n",
                     Log),
            0);

  EXPECT_NE(Log.find("{\"v\": 2, \"id\": 0, \"event\": \"revision_done\""),
            std::string::npos)
      << "cold start verifies before serving requests";
  EXPECT_NE(Log.find("{\"rcc\": \"hello_ack\""), std::string::npos);
  EXPECT_NE(Log.find("{\"v\": 2, \"id\": 1, \"event\": \"status\""),
            std::string::npos);
  EXPECT_NE(Log.find("{\"v\": 2, \"id\": 2, \"event\": \"unchanged\""),
            std::string::npos);
  EXPECT_NE(Log.find("{\"v\": 2, \"id\": 3, \"event\": \"shutdown\""),
            std::string::npos);
}

TEST(Daemon, StdioExitCodeReflectsVerdict) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  // A function whose spec cannot hold: returns claims x+1 but body returns x.
  writeFile(Src, R"([[rc::parameters("n: nat")]]
[[rc::args("n @ int<u32>")]]
[[rc::returns("{n + 1} @ int<u32>")]]
[[rc::requires("{n <= 100}")]]
unsigned int inc(unsigned int x) { return x; }
)");

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);
  std::string Log;
  EXPECT_EQ(runStdio(D, helloLine() + "\n" + reqLine(1, "shutdown") + "\n",
                     Log),
            1);
  EXPECT_NE(Log.find("\"verified\": false"), std::string::npos);
  EXPECT_NE(Log.find("\"all_verified\": false"), std::string::npos);
}

TEST(Daemon, StdioRejectsBareCommands) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);
  std::string Log;
  EXPECT_EQ(runStdio(D,
                     helloLine() + "\ncheck\nstatus\nshutdown\n" +
                         reqLine(1, "status") + "\n",
                     Log),
            0);
  std::istringstream In(Log);
  std::string Line;
  unsigned Errors = 0, Status = 0, Revisions = 0;
  while (std::getline(In, Line)) {
    Errors += isMsg(Line, daemon::MsgKind::Error);
    Status += Line.find("\"event\": \"status\"") != std::string::npos;
    Revisions += Line.find("\"event\": \"revision\"") != std::string::npos;
  }
  EXPECT_EQ(Errors, 3u) << Log;
  EXPECT_EQ(Revisions, 1u) << "only the cold start verified";
  EXPECT_EQ(Status, 1u) << "the req after the bare words is served";
  EXPECT_NE(Log.find("{\"v\": 2, \"id\": 0, \"event\": \"shutdown\""),
            std::string::npos)
      << "EOF ends the session; no request asked for its shutdown event";
}

TEST(Daemon, StdioServesAnUnterminatedFinalLine) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);
  std::string Log;
  EXPECT_EQ(runStdio(D, helloLine() + "\n" + reqLine(5, "status"), Log), 0);
  EXPECT_NE(Log.find("{\"v\": 2, \"id\": 5, \"event\": \"status\""),
            std::string::npos)
      << Log;
}

TEST(Daemon, StdioRejectedHandshakeEndsSession) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);
  std::string Log;
  EXPECT_EQ(runStdio(D, helloLine(1) + "\n" + reqLine(1, "status") + "\n",
                     Log),
            0);
  EXPECT_NE(Log.find("protocol version 1 not supported"), std::string::npos);
  EXPECT_EQ(Log.find("\"event\": \"status\""), std::string::npos)
      << "nothing after the rejected hello is served";
  EXPECT_NE(Log.find("{\"v\": 2, \"id\": 0, \"event\": \"shutdown\""),
            std::string::npos);
}

TEST(Daemon, StdioHelloWithAVersionOutside32BitsGetsAnError) {
  // 4294967298 is 2^32 + 2: narrowed to unsigned it used to read as 2.
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);
  std::string Log;
  EXPECT_EQ(runStdio(D,
                     "{\"rcc\": \"hello\", \"protocol_version\": "
                     "4294967298, \"role\": \"client\"}\n" +
                         reqLine(1, "status") + "\n",
                     Log),
            0);
  std::istringstream In(Log);
  std::string Line;
  unsigned Errors = 0, Acks = 0;
  while (std::getline(In, Line)) {
    Errors += isMsg(Line, daemon::MsgKind::Error);
    Acks += isMsg(Line, daemon::MsgKind::HelloAck);
  }
  EXPECT_EQ(Acks, 0u) << Log;
  EXPECT_EQ(Errors, 2u) << "the hello and the ungreeted req: " << Log;
  EXPECT_NE(Log.find("protocol_version"), std::string::npos) << Log;
  EXPECT_EQ(Log.find("\"event\": \"status\""), std::string::npos)
      << "nothing is served without a handshake";
}

//===----------------------------------------------------------------------===//
// Socket transport: runSocket on a thread, clients on a real Unix socket
//===----------------------------------------------------------------------===//

/// Connects to \p Path, retrying while the daemon thread is still binding
/// it (-1 after 5 s).
int connectRetry(const std::string &Path) {
  for (int I = 0; I < 500; ++I) {
    int Fd = net::connectUnix(Path, nullptr);
    if (Fd >= 0)
      return Fd;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

/// One protocol client.
struct SockClient {
  net::LineConn Conn;

  explicit SockClient(const std::string &Path) : Conn(connectRetry(Path)) {}
  void send(const std::string &Line) { Conn.sendLine(Line); }
  /// The next line, or "" after 10 s without one (or at EOF).
  std::string next() {
    std::string L;
    return Conn.waitLine(L, 10000) ? L : "";
  }
  /// Skips lines up to the first one containing \p Needle ("" if none).
  std::string nextWith(const std::string &Needle) {
    for (std::string L = next(); !L.empty(); L = next())
      if (L.find(Needle) != std::string::npos)
        return L;
    return "";
  }
};

/// runSocket on a thread over kTwoFns, with a fast watch poll. Unless the
/// test joined it, teardown stops it with a `shutdown` request from a
/// fresh client, so a failed expectation never hangs the suite.
class DaemonSocket : public ::testing::Test {
protected:
  DaemonSocket() {
    writeFile(Src, kTwoFns);
    T = std::thread([this] { Rc = D.runSocket(Sock); });
  }
  ~DaemonSocket() override {
    if (!T.joinable())
      return;
    SockClient C(Sock);
    C.send(helloLine());
    C.send(reqLine(999, "shutdown"));
    while (!C.next().empty())
      ;
    T.join();
  }

  static DaemonOptions options(const std::string &Src) {
    DaemonOptions O;
    O.Path = Src;
    O.PollMs = 20;
    return O;
  }

  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  std::string Sock = Dir.str() + "/d.sock";
  Daemon D{options(Src)};
  int Rc = -1;
  std::thread T; // last: it uses the members above
};

TEST_F(DaemonSocket, HelloGetsHelloAck) {
  SockClient C(Sock);
  C.send(helloLine());
  std::string Ack = C.next();
  daemon::Msg M;
  ASSERT_TRUE(daemon::parseMsg(Ack, M)) << Ack;
  EXPECT_EQ(static_cast<int>(M.Kind),
            static_cast<int>(daemon::MsgKind::HelloAck));
  EXPECT_EQ(M.A.Version, daemon::kProtocolVersion);
  EXPECT_EQ(M.A.File, Src);
}

TEST_F(DaemonSocket, StatusReplyCarriesTheRequestId) {
  SockClient C(Sock);
  C.send(helloLine());
  C.send(reqLine(7, "status"));
  EXPECT_TRUE(isMsg(C.next(), daemon::MsgKind::HelloAck));
  std::string St = C.next();
  EXPECT_EQ(St.rfind("{\"v\": 2, \"id\": 7, \"event\": \"status\"", 0), 0u)
      << St;
  EXPECT_EQ(field(St, "functions"), 2);
}

TEST_F(DaemonSocket, WrongProtocolVersionClosesOnlyThatConnection) {
  SockClient Old(Sock), Cur(Sock);
  Old.send(helloLine(1));
  std::string Err = Old.next();
  EXPECT_TRUE(isMsg(Err, daemon::MsgKind::Error)) << Err;
  EXPECT_NE(Err.find("protocol version 1 not supported"), std::string::npos);
  EXPECT_EQ(Old.next(), "") << "the daemon closed the rejected connection";

  Cur.send(helloLine());
  Cur.send(reqLine(1, "status"));
  EXPECT_TRUE(isMsg(Cur.next(), daemon::MsgKind::HelloAck));
  EXPECT_EQ(field(Cur.next(), "id"), 1) << "the daemon keeps serving others";
}

TEST_F(DaemonSocket, BareCommandGetsErrorAndRunsNothing) {
  SockClient C(Sock);
  C.send("check"); // before the handshake
  EXPECT_TRUE(isMsg(C.next(), daemon::MsgKind::Error));
  C.send(helloLine());
  EXPECT_TRUE(isMsg(C.next(), daemon::MsgKind::HelloAck));
  C.send("check"); // after it
  EXPECT_TRUE(isMsg(C.next(), daemon::MsgKind::Error));
  // Requests are answered in order: had the bare word run a check, its
  // `unchanged` event would come before this status reply.
  C.send(reqLine(2, "status"));
  std::string St = C.next();
  EXPECT_NE(St.find("\"id\": 2, \"event\": \"status\""), std::string::npos)
      << St;
}

TEST_F(DaemonSocket, ShutdownRequestEndsRunSocket) {
  SockClient C(Sock);
  C.send(helloLine());
  C.send(reqLine(3, "shutdown"));
  EXPECT_TRUE(isMsg(C.next(), daemon::MsgKind::HelloAck));
  EXPECT_EQ(C.next(), "{\"v\": 2, \"id\": 3, \"event\": \"shutdown\", "
                      "\"rev\": 1}");
  EXPECT_EQ(C.next(), "") << "the daemon closed the connection";
  T.join(); // runSocket returned on its own
  EXPECT_EQ(Rc, 0);
  EXPECT_FALSE(fs::exists(Sock)) << "the socket file is removed";
}

TEST_F(DaemonSocket, RequestIdsStayWithTheirClient) {
  SockClient A(Sock), B(Sock);
  A.send(helloLine());
  EXPECT_TRUE(isMsg(A.next(), daemon::MsgKind::HelloAck));
  B.send(helloLine());
  EXPECT_TRUE(isMsg(B.next(), daemon::MsgKind::HelloAck));

  // Every subscriber sees every reply, but only the requester's copy
  // carries the request's id.
  B.send(reqLine(3, "status"));
  EXPECT_EQ(field(B.nextWith("\"event\": \"status\""), "id"), 3);
  EXPECT_EQ(field(A.nextWith("\"event\": \"status\""), "id"), 0);
  A.send(reqLine(7, "status"));
  EXPECT_EQ(field(A.nextWith("\"event\": \"status\""), "id"), 7);
  EXPECT_EQ(field(B.nextWith("\"event\": \"status\""), "id"), 0)
      << "B must not see its own earlier id on A's reply";

  // A watch revision answers no request: id 0 for everybody.
  writeFile(Src, kEditedSecond);
  EXPECT_EQ(field(A.nextWith("\"event\": \"revision_done\""), "id"), 0);
  EXPECT_EQ(field(B.nextWith("\"event\": \"revision_done\""), "id"), 0);

  A.send(reqLine(9, "shutdown"));
  EXPECT_EQ(field(A.nextWith("\"event\": \"shutdown\""), "id"), 9);
  EXPECT_EQ(field(B.nextWith("\"event\": \"shutdown\""), "id"), 0);
  T.join();
}

//===----------------------------------------------------------------------===//
// Workspace: several documents over shared tiers, overlays, typed events
//===----------------------------------------------------------------------===//

/// A third function, so the second workspace document has its own keys.
const char *kThirdFn = R"([[rc::args("int<i32>")]]
[[rc::returns("int<i32>")]]
int idC(int x) { return x; }
)";

TEST(Workspace, EditingOneFileReverifiesOnlyThatFilesChangedFunctions) {
  TempDir Dir;
  std::string A = Dir.str() + "/a.c";
  std::string B = Dir.str() + "/b.c";
  writeFile(A, kTwoFns);
  writeFile(B, kThirdFn);

  DaemonOptions O;
  O.Path = A;
  O.Paths.push_back(B);
  Daemon D(O);
  EXPECT_EQ(D.documents().size(), 2u);

  Events Cold;
  ASSERT_TRUE(D.checkOnce(Cold.sink(), /*Force=*/true));
  EXPECT_TRUE(D.lastAllVerified());
  EXPECT_EQ(Cold.count("\"event\": \"revision_done\""), 2u)
      << "one revision per document";

  // Edit only the first document: the second must stay silent on the watch
  // tick, and the first re-verifies exactly its changed function.
  writeFile(A, kEditedSecond);
  Events Tick;
  ASSERT_TRUE(D.checkOnce(Tick.sink(), /*Force=*/false));
  EXPECT_EQ(Tick.count("\"event\": \"revision_done\""), 1u);
  std::string Done = Tick.last("\"event\": \"revision_done\"");
  EXPECT_NE(Done.find("\"file\": \"" + A + "\""), std::string::npos);
  EXPECT_EQ(field(Done, "reverified"), 1);
  EXPECT_EQ(field(Done, "l1_hits"), 1);
  EXPECT_EQ(D.documentRevision(A), 2u);
  EXPECT_EQ(D.documentRevision(B), 1u);
}

TEST(Workspace, PerDocumentResultsAndStatus) {
  TempDir Dir;
  std::string A = Dir.str() + "/a.c";
  std::string B = Dir.str() + "/b.c";
  writeFile(A, kTwoFns);
  writeFile(B, kThirdFn);

  DaemonOptions O;
  O.Path = A;
  O.Paths.push_back(B);
  Daemon D(O);
  Events E;
  ASSERT_TRUE(D.checkOnce(E.sink(), /*Force=*/true));

  ASSERT_TRUE(D.result(A) != nullptr);
  ASSERT_TRUE(D.result(B) != nullptr);
  EXPECT_EQ(D.result(A)->Fns.size(), 2u);
  EXPECT_EQ(D.result(B)->Fns.size(), 1u);
  EXPECT_TRUE(D.result("/no/such/doc") == nullptr);

  Daemon::Peer P;
  Events S;
  auto Reply = [](const std::string &) {};
  EXPECT_TRUE(D.handleLine(P, helloLine(), Reply, S.sink()));
  EXPECT_TRUE(D.handleLine(P, reqLine(1, "status"), Reply, S.sink()));
  EXPECT_EQ(S.count("\"event\": \"status\""), 2u) << "status is per-document";
}

TEST(Workspace, OverlayShadowsDiskAndClearRestoresIt) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);
  Events Cold;
  ASSERT_TRUE(D.checkOnce(Cold.sink(), /*Force=*/true));
  ASSERT_TRUE(D.lastAllVerified());

  // An editor buffer takes precedence over the file's bytes.
  D.setOverlay(Src, kEditedSecond);
  EXPECT_TRUE(D.hasOverlay(Src));
  Events Ed;
  ASSERT_TRUE(D.checkDocument(Src, Ed.sink()));
  std::string Done = Ed.last("\"event\": \"revision_done\"");
  EXPECT_EQ(field(Done, "reverified"), 1) << "only idB changed in the buffer";
  EXPECT_EQ(field(Done, "l1_hits"), 1);

  // While the overlay is installed, touching the file is not a revision.
  writeFile(Src, kThirdFn);
  Events Tick;
  EXPECT_FALSE(D.checkOnce(Tick.sink(), /*Force=*/false))
      << "the editor owns the content";

  // Dropping the overlay hands authority back to the (new) file content.
  EXPECT_TRUE(D.clearOverlay(Src));
  EXPECT_FALSE(D.hasOverlay(Src));
  Events After;
  ASSERT_TRUE(D.checkOnce(After.sink(), /*Force=*/true));
  std::string Done2 = After.last("\"event\": \"revision_done\"");
  EXPECT_EQ(field(Done2, "functions"), 1) << "now verifying kThirdFn";
}

TEST(Workspace, AddRemoveDocumentsDynamically) {
  TempDir Dir;
  std::string A = Dir.str() + "/a.c";
  writeFile(A, kTwoFns);

  DaemonOptions O; // no initial path: the LSP server's configuration
  Daemon D(O);
  EXPECT_TRUE(D.documents().empty());
  EXPECT_FALSE(D.lastAllVerified()) << "an empty workspace verifies nothing";
  EXPECT_FALSE(D.addDocument(""));

  Events E;
  ASSERT_TRUE(D.checkDocument(A, E.sink()));
  EXPECT_EQ(D.documents().size(), 1u);
  EXPECT_TRUE(D.lastAllVerified());

  EXPECT_TRUE(D.removeDocument(A));
  EXPECT_FALSE(D.removeDocument(A));
  EXPECT_TRUE(D.documents().empty());
}

TEST(Workspace, CompileErrorEventCarriesSourceLocation) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  // The parse error is on line 2 of the file.
  writeFile(Src, "int ok(void) { return 0; }\nint broken( { return 0; }\n");

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);

  std::vector<Event> Typed;
  StructuredSink Sink = [&Typed](const Event &E) { Typed.push_back(E); };
  ASSERT_TRUE(D.checkOnce(Sink, /*Force=*/true));

  ASSERT_EQ(Typed.size(), 1u);
  EXPECT_EQ(Typed[0].Kind, EventKind::Error);
  EXPECT_EQ(Typed[0].File, Src);
  EXPECT_TRUE(Typed[0].Diag.Loc.isValid())
      << "frontend location must survive into the typed event";
  EXPECT_EQ(Typed[0].Diag.Loc.Line, 2u);
  // And the rendered JSON line exposes it to the line protocol too.
  std::string L = Typed[0].toJsonLine(0);
  EXPECT_NE(L.find("\"line\": 2"), std::string::npos);
  EXPECT_NE(L.find("\"file\": \"" + Src + "\""), std::string::npos);
}

TEST(Workspace, DiagnosticEventsCarryTheUnifiedWireDiagnostic) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, R"([[rc::parameters("n: nat")]]
[[rc::args("n @ int<u32>")]]
[[rc::returns("{n + 1} @ int<u32>")]]
[[rc::requires("{n <= 100}")]]
unsigned int inc(unsigned int x) { return x; }
)");

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);
  std::vector<Event> Typed;
  StructuredSink Sink = [&Typed](const Event &E) { Typed.push_back(E); };
  ASSERT_TRUE(D.checkOnce(Sink, /*Force=*/true));

  const Event *Fail = nullptr;
  for (const Event &E : Typed)
    if (E.Kind == EventKind::Diagnostic && !E.Verified)
      Fail = &E;
  ASSERT_TRUE(Fail != nullptr);
  EXPECT_EQ(Fail->Diag.Fn, "inc");
  EXPECT_EQ(Fail->Diag.File, Src);
  EXPECT_FALSE(Fail->Diag.Message.empty());
  EXPECT_TRUE(Fail->Diag.Loc.isValid())
      << "failures anchor at the error or the function name";
  // The JSON-lines rendering embeds Diagnostic::toJson() verbatim — the
  // same bytes verify_tool --format=json prints for this failure.
  std::string L = Fail->toJsonLine(0);
  EXPECT_NE(L.find("\"diagnostic\": " + Fail->Diag.toJson()),
            std::string::npos);
  EXPECT_NE(L.find("\"severity\": \"error\""), std::string::npos);
}
