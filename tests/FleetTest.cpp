//===- FleetTest.cpp - Distributed verification fleet contracts -----------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end and fault-injection contracts of the verification fleet
/// (DESIGN.md, "Fleet & protocol v2"). Workers are real forked processes
/// running fleet::runWorker against a coordinator in this process, over a
/// real Unix socket and a shared on-disk L3 tier. The invariant under test
/// everywhere: worker results are scheduling hints, so *any* failure —
/// a worker killed mid-job, a corrupted L3 artifact, a wrong-version
/// handshake, no workers at all — degrades to local re-verification with
/// correct results, never to a wrong or missing verdict.
///
//===----------------------------------------------------------------------===//

#include "fleet/Coordinator.h"
#include "fleet/Monorepo.h"
#include "fleet/Protocol.h"
#include "fleet/Worker.h"
#include "frontend/Frontend.h"
#include "refinedc/Checker.h"
#include "support/Socket.h"
#include "trace/Trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace rcc;
using namespace rcc::fleet;

namespace fs = std::filesystem;

namespace {

/// A self-deleting unique temp directory per test.
struct TempDir {
  fs::path Path;
  TempDir() {
    static int Counter = 0;
    Path = fs::temp_directory_path() /
           ("rcc_fleet_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(Counter++));
    fs::create_directories(Path);
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

void writeFile(const fs::path &P, const std::string &Content) {
  std::ofstream Out(P);
  Out << Content;
}

/// Forks a worker process running fleet::runWorker; the child exits with
/// the worker's exit code. Must be called before the parent spawns
/// threads.
pid_t spawnWorker(const std::string &Sock, unsigned SleepMsPerJob = 0,
                  unsigned ProtocolVersion = 0, unsigned Capacity = 2) {
  pid_t P = fork();
  if (P == 0) {
    WorkerOptions WO;
    WO.Connect = Sock;
    WO.Name = "w" + std::to_string(::getpid());
    WO.Capacity = Capacity;
    WO.Jobs = 1;
    WO.SleepMsPerJob = SleepMsPerJob;
    WO.ProtocolVersion = ProtocolVersion;
    _exit(runWorker(WO));
  }
  return P;
}

int waitExit(pid_t P) {
  int Status = 0;
  waitpid(P, &Status, 0);
  if (WIFEXITED(Status))
    return WEXITSTATUS(Status);
  return 128 + (WIFSIGNALED(Status) ? WTERMSIG(Status) : 0);
}

TEST(Fleet, WorkersVerifyEverythingThroughSharedStore) {
  TempDir D;
  fs::path Src = D.Path / "mono.c";
  writeFile(Src, monorepoSource(8));
  std::string Sock = (D.Path / "fleet.sock").string();
  std::string L3 = (D.Path / "l3").string();

  // A small per-job delay keeps the queue alive long enough that both
  // workers reliably join before it runs dry (fork scheduling can lag one
  // of them past an 8-trivial-job burst, and a worker that misses the run
  // entirely exits nonzero by contract).
  pid_t W1 = spawnWorker(Sock, /*SleepMsPerJob=*/25);
  pid_t W2 = spawnWorker(Sock, /*SleepMsPerJob=*/25);

  trace::TraceSession TS;
  FleetOptions FO;
  FO.SockPath = Sock;
  FO.File = Src.string();
  FO.SharedDir = L3;
  FO.Jobs = 2;
  FO.WaitMs = 60000;
  FO.Trace = &TS;
  Coordinator C(FO);
  refinedc::ProgramResult PR;
  std::string Err;
  ASSERT_TRUE(C.run(PR, &Err)) << Err;

  EXPECT_EQ(waitExit(W1), 0);
  EXPECT_EQ(waitExit(W2), 0);

  EXPECT_EQ(PR.Fns.size(), 8u);
  EXPECT_TRUE(PR.allVerified());
  EXPECT_TRUE(PR.allRechecksOk()); // every L3 hit was replayed
  // The assembly must be fed by the workers, not silently re-verify: every
  // function is an L3 hit whose derivation replayed through ProofChecker.
  // (Guards the store key against re-growing driver-dependent fields —
  // workers publish under --no-recheck, the assembly probes under recheck.)
  EXPECT_EQ(PR.L3Hits, 8u);
  EXPECT_EQ(PR.ReplayedHits, 8u);
  EXPECT_EQ(PR.ReplayFailures, 0u);
  EXPECT_EQ(C.stats().WorkersSeen, 2u);
  EXPECT_EQ(C.stats().JobsCompleted, 8u);
  EXPECT_GT(C.stats().FlushedSpans, 0u); // spans streamed back losslessly
  EXPECT_FALSE(fs::is_empty(L3));        // workers published artifacts
}

TEST(Fleet, WorkerKilledMidJobRequeuesAndCompletes) {
  TempDir D;
  fs::path Src = D.Path / "mono.c";
  writeFile(Src, monorepoSource(4));
  std::string Sock = (D.Path / "fleet.sock").string();

  // Capacity 2 with a long per-job stall: the worker holds jobs in flight
  // when SIGKILL lands, and those jobs must come back to the queue.
  pid_t W = spawnWorker(Sock, /*SleepMsPerJob=*/10000, /*Version=*/0,
                        /*Capacity=*/2);
  std::thread Killer([W] {
    std::this_thread::sleep_for(std::chrono::milliseconds(700));
    kill(W, SIGKILL);
  });

  trace::TraceSession TS;
  FleetOptions FO;
  FO.SockPath = Sock;
  FO.File = Src.string();
  FO.SharedDir = (D.Path / "l3").string();
  FO.Jobs = 2;
  FO.WaitMs = 60000;
  FO.Trace = &TS;
  Coordinator C(FO);
  refinedc::ProgramResult PR;
  std::string Err;
  ASSERT_TRUE(C.run(PR, &Err)) << Err;
  Killer.join();
  EXPECT_NE(waitExit(W), 0);

  EXPECT_EQ(PR.Fns.size(), 4u);
  EXPECT_TRUE(PR.allVerified()); // the run still completes, locally
  EXPECT_GT(C.stats().Requeued, 0u);
  EXPECT_GT(TS.metrics().counter("fleet.requeued").get(), 0u);
}

TEST(Fleet, CorruptL3ArtifactDroppedAndReverified) {
  TempDir D;
  fs::path Src = D.Path / "mono.c";
  std::string Source = monorepoSource(3);
  writeFile(Src, Source);
  std::string L3 = (D.Path / "l3").string();

  // Warm the shared tier the way a worker would: publishable derivations,
  // no recheck.
  {
    DiagnosticEngine Diags;
    auto AP = front::compileSource(Source, Diags);
    ASSERT_TRUE(AP);
    refinedc::Checker Chk(*AP, Diags);
    ASSERT_TRUE(Chk.buildEnv());
    refinedc::VerifyOptions VO;
    VO.Recheck = false;
    VO.SharedDir = L3;
    std::vector<std::string> Names;
    for (unsigned I = 0; I < 3; ++I)
      Names.push_back(monorepoFnName(I));
    refinedc::ProgramResult Warm = Chk.verifyFunctions(Names, VO);
    ASSERT_TRUE(Warm.allVerified());
  }
  ASSERT_FALSE(fs::is_empty(L3));

  // Damage every artifact, alternating the two classic failure shapes:
  // a flipped byte in the middle (checksum/parse failure) and truncation
  // to half (a torn or partially-synced file).
  unsigned N = 0;
  for (const auto &Entry : fs::directory_iterator(L3)) {
    std::ifstream In(Entry.path(), std::ios::binary);
    std::string Data((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
    In.close();
    ASSERT_FALSE(Data.empty());
    if (N++ % 2 == 0)
      Data[Data.size() / 2] ^= 0x40;
    else
      Data.resize(Data.size() / 2);
    std::ofstream Out(Entry.path(), std::ios::binary | std::ios::trunc);
    Out << Data;
  }

  // Fleet run with no workers: the assembly pass probes the corrupt L3,
  // must drop every damaged entry as a miss, and re-verify locally.
  trace::TraceSession TS;
  FleetOptions FO;
  FO.SockPath = (D.Path / "fleet.sock").string();
  FO.File = Src.string();
  FO.SharedDir = L3;
  FO.WaitMs = 100; // nobody is coming
  FO.Trace = &TS;
  Coordinator C(FO);
  refinedc::ProgramResult PR;
  std::string Err;
  ASSERT_TRUE(C.run(PR, &Err)) << Err;

  EXPECT_EQ(PR.Fns.size(), 3u);
  EXPECT_TRUE(PR.allVerified());
  // Every damaged entry was detected, dropped, and healed by a local
  // re-verify — none slipped through as a hit.
  EXPECT_EQ(TS.metrics().counter("store.l3.corrupt_drops").get(), 3u);
  EXPECT_EQ(PR.L3Hits, 0u);
}

TEST(Fleet, WrongVersionHandshakeRejectedFleetStillCompletes) {
  TempDir D;
  fs::path Src = D.Path / "mono.c";
  writeFile(Src, monorepoSource(2));
  std::string Sock = (D.Path / "fleet.sock").string();

  pid_t W = spawnWorker(Sock, 0, /*ProtocolVersion=*/1);

  FleetOptions FO;
  FO.SockPath = Sock;
  FO.File = Src.string();
  FO.SharedDir = (D.Path / "l3").string();
  FO.WaitMs = 700; // the rejected worker never counts as seen
  Coordinator C(FO);
  refinedc::ProgramResult PR;
  std::string Err;
  ASSERT_TRUE(C.run(PR, &Err)) << Err;

  EXPECT_EQ(waitExit(W), 1); // worker degraded and exited
  EXPECT_GT(C.stats().BadHandshakes, 0u);
  EXPECT_EQ(C.stats().JobsCompleted, 0u);
  EXPECT_TRUE(PR.allVerified()); // local re-verification covered everything
}

TEST(Fleet, UnknownPortfolioModeRejectedByWorker) {
  // The portfolio mode is hash-folded, so a worker must not guess at one it
  // does not know: it would publish under keys the coordinator never probes
  // and the whole run would silently be redone locally. A fake coordinator
  // hands out `race`, a mode the worker does not know; the worker must
  // answer with an error naming it and exit 1 before doing any work.
  TempDir D;
  std::string Sock = (D.Path / "fake.sock").string();
  std::string Err;
  int ListenFd = net::listenUnix(Sock, &Err);
  ASSERT_GE(ListenFd, 0) << Err;

  int Rc = -1;
  std::thread Worker([&Rc, Sock] {
    WorkerOptions WO;
    WO.Connect = Sock;
    WO.Name = "w";
    Rc = runWorker(WO);
  });

  // Everything the worker says is collected before any assertion, so the
  // thread is always joined.
  int Fd = ::accept(ListenFd, nullptr, nullptr);
  ::close(ListenFd);
  net::LineConn Conn(Fd);
  std::string Greeting, Reply;
  Conn.waitLine(Greeting, 5000);
  Conn.sendLine("{\"rcc\": \"hello_ack\", \"protocol_version\": " +
                std::to_string(kProtocolVersion) +
                ", \"file\": \"mono.c\", \"shared_dir\": \"l3\", "
                "\"recheck\": true, \"portfolio\": \"race\", "
                "\"window\": 2}");
  Conn.flushWrites();
  Conn.waitLine(Reply, 5000);
  Worker.join();

  Msg M;
  ASSERT_TRUE(parseMsg(Greeting, M)) << Greeting;
  EXPECT_EQ(M.Kind, MsgKind::Hello);
  EXPECT_EQ(Rc, 1);
  ASSERT_TRUE(parseMsg(Reply, M)) << Reply;
  EXPECT_EQ(M.Kind, MsgKind::Error);
  EXPECT_NE(M.E.Message.find("race"), std::string::npos) << M.E.Message;
}

TEST(Fleet, NoWorkersFallsBackToLocalVerification) {
  TempDir D;
  fs::path Src = D.Path / "mono.c";
  writeFile(Src, monorepoSource(2));

  FleetOptions FO;
  FO.SockPath = (D.Path / "fleet.sock").string();
  FO.File = Src.string();
  FO.SharedDir = (D.Path / "l3").string();
  FO.WaitMs = 150;
  Coordinator C(FO);
  refinedc::ProgramResult PR;
  std::string Err;
  ASSERT_TRUE(C.run(PR, &Err)) << Err;

  EXPECT_EQ(PR.Fns.size(), 2u);
  EXPECT_TRUE(PR.allVerified());
  EXPECT_EQ(C.stats().WorkersSeen, 0u);
}

TEST(Fleet, FailingFunctionStaysFailingThroughTheFleet) {
  TempDir D;
  fs::path Src = D.Path / "mono.c";
  // Every 3rd function carries a spec its body does not meet.
  writeFile(Src, monorepoSource(4, /*FailEvery=*/3));
  std::string Sock = (D.Path / "fleet.sock").string();

  pid_t W = spawnWorker(Sock);

  FleetOptions FO;
  FO.SockPath = Sock;
  FO.File = Src.string();
  FO.SharedDir = (D.Path / "l3").string();
  FO.WaitMs = 60000;
  Coordinator C(FO);
  refinedc::ProgramResult PR;
  std::string Err;
  ASSERT_TRUE(C.run(PR, &Err)) << Err;
  EXPECT_EQ(waitExit(W), 0); // a failing *function* is still a clean drain

  EXPECT_EQ(PR.Fns.size(), 4u);
  EXPECT_FALSE(PR.allVerified());
  for (const auto &FR : PR.Fns)
    EXPECT_EQ(FR.Verified, FR.Name != monorepoFnName(2))
        << FR.Name; // every 3rd function fails; the rest verify
}

TEST(Fleet, MissingSourceFileFailsSetup) {
  TempDir D;
  FleetOptions FO;
  FO.SockPath = (D.Path / "fleet.sock").string();
  FO.File = (D.Path / "nope.c").string();
  Coordinator C(FO);
  refinedc::ProgramResult PR;
  std::string Err;
  EXPECT_FALSE(C.run(PR, &Err));
  EXPECT_NE(Err.find("nope.c"), std::string::npos);
}

} // namespace
