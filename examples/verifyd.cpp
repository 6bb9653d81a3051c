//===- verifyd.cpp - The verification daemon --------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `verifyd file.c` is a long-lived verification server: it loads the file,
/// verifies every annotated function, then watches the file and re-verifies
/// on save — and because every Checker session of the daemon shares one
/// in-memory result tier (plus an optional disk tier), a save only re-runs
/// proof search for the functions whose verification problem actually
/// changed. Several files form a workspace sharing the same tiers: a save
/// re-verifies only the changed functions of the saved file.
///
/// Both transports speak protocol v2 (src/fleet/Protocol.h; DESIGN.md,
/// "Verification daemon"): a peer sends `hello`, is answered by
/// `hello_ack`, then sends `{"rcc": "req", "id": N, "method": M}` lines
/// (M = `check`, `status`, `shutdown`) and may leave with `bye`. Events
/// are JSON lines behind a `{"v": 2, "id": N, ...}` envelope, where N is
/// the id of the request they answer on the requester's copy and 0
/// everywhere else. Flags:
///
///   --stdio            serve the protocol on stdin/stdout (default; used
///                      by tests and editor integrations)
///   --socket=PATH      serve on a Unix domain socket instead, to any
///                      number of clients; `verify_tool --connect=PATH` is
///                      a thin client
///   --once             one cold-start verification, then exit (no watch)
///   --cache-dir=DIR    persist results under DIR: a daemon restart serves
///                      unchanged functions from the replayed disk tier
///   --cache-max-bytes=N  GC budget for DIR (LRU by entry mtime; enforced
///                      after every revision and at shutdown)
///   --jobs=N           concurrent verification jobs per revision (0 = all
///                      cores)
///   --no-recheck       skip the independent derivation replay
///   --poll-ms=N        watch poll interval (default 200)
///   --trace=FILE       write a Chrome trace of the daemon's lifetime on
///                      clean shutdown (revision spans, daemon.* counters)
///   --version          print the version and exit
///
/// Fleet modes (DESIGN.md, "Fleet & protocol v2"):
///
///   --serve=SOCK       run as fleet *coordinator*: decompose the file into
///                      function jobs, serve them to workers over SOCK with
///                      work-stealing pull semantics, then assemble the
///                      final result through the shared store (replaying
///                      every L3 derivation before trusting it). Exits like
///                      verify_tool: 0 iff everything verified.
///   --worker           run as fleet *worker*: connect to --connect=SOCK,
///                      pull jobs, verify them against --shared-dir, stream
///                      results and trace spans back. Exit 0 on clean drain.
///   --connect=SOCK     (worker) the coordinator socket
///   --shared-dir=DIR   the shared L3 artifact store directory
///   --window=N         (coordinator) max jobs in flight per worker batch
///   --fleet-wait-ms=N  (coordinator) serving budget before assembling
///                      locally without the missing workers
///   --capacity=N       (worker) jobs requested per pull
///   --name=S           (worker) display name in handshakes and span flushes
///   --format=stable-json  (coordinator) print the schedule/topology-
///                      independent result JSON (byte-comparable against
///                      `verify_tool --format=stable-json` on the same file)
///   --deterministic-trace  (coordinator) zero wall times in the assembled
///                      result
///
/// Exit code 0 iff the last processed revision fully verified.
///
//===----------------------------------------------------------------------===//

#include "daemon/Daemon.h"
#include "fleet/Coordinator.h"
#include "fleet/Worker.h"
#include "support/Options.h"
#include "support/Util.h"
#include "trace/Export.h"

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include <unistd.h>

using namespace rcc;

int main(int argc, char **argv) {
  daemon::DaemonOptions O;
  std::string SockPath;
  std::string TraceFile;
  bool Once = false;
  bool Stdio = false;

  // Fleet-mode state.
  bool Worker = false;
  std::string ServeSock, ConnectSock, SharedDir, Name;
  std::string Format = "text";
  unsigned Window = 4, FleetWaitMs = 60000, Capacity = 2, SleepMsPerJob = 0;
  bool DetTrace = false;

  opts::OptionParser P("verifyd", "<file.c> [file2.c ...]");
  P.flag("stdio", Stdio, true, "serve the protocol on stdin/stdout")
      .strOpt("socket", SockPath, "serve on a Unix domain socket")
      .flag("once", Once, true, "one cold-start verification, then exit")
      .strOpt("cache-dir", O.CacheDir, "persistent result store directory")
      .u64Opt("cache-max-bytes", O.CacheMaxBytes, "GC budget for the cache")
      .unsignedOpt("jobs", O.Jobs, "concurrent verification jobs (0 = cores)")
      .flag("no-recheck", O.Recheck, false,
            "skip the independent derivation replay")
      .unsignedOpt("poll-ms", O.PollMs, "watch poll interval", 1, 60000)
      .strOpt("trace", TraceFile, "write a Chrome trace on clean shutdown")
      .strOpt("serve", ServeSock, "fleet coordinator on this socket")
      .flag("worker", Worker, true, "fleet worker mode")
      .strOpt("connect", ConnectSock, "(worker) coordinator socket")
      .strOpt("shared-dir", SharedDir, "shared L3 artifact store directory")
      .unsignedOpt("window", Window, "(coordinator) jobs in flight per batch",
                   1, 1024)
      .unsignedOpt("fleet-wait-ms", FleetWaitMs,
                   "(coordinator) serving budget in ms")
      .unsignedOpt("capacity", Capacity, "(worker) jobs per pull", 1, 1024)
      .strOpt("name", Name, "(worker) display name")
      .unsignedOpt("sleep-ms-per-job", SleepMsPerJob,
                   "(worker) test hook: delay before each job")
      .custom("format",
              [&Format](const std::string &V) {
                if (V != "json" && V != "stable-json" && V != "text")
                  return false;
                Format = V;
                return true;
              },
              "(coordinator) output format: text | json | stable-json")
      .flag("deterministic-trace", DetTrace, true,
            "(coordinator) zero wall times in the assembled result")
      .version();

  std::vector<std::string> Pos;
  switch (P.parse(argc, argv, Pos)) {
  case opts::ParseResult::Version:
    printf("%s\n", versionString());
    return 0;
  case opts::ParseResult::Error:
    fprintf(stderr, "error: unknown or malformed option '%s'\n%s\n",
            P.error().c_str(), P.usage().c_str());
    return 2;
  case opts::ParseResult::Ok:
    break;
  }
  if (Stdio)
    SockPath.clear();
  if (!Pos.empty()) {
    O.Path = Pos.front();
    O.Paths.assign(Pos.begin() + 1, Pos.end());
  }

  // --- Fleet worker: no workspace of its own; everything comes from the
  // coordinator's hello_ack.
  if (Worker) {
    if (ConnectSock.empty()) {
      fprintf(stderr, "error: --worker requires --connect=SOCK\n");
      return 2;
    }
    fleet::WorkerOptions WO;
    WO.Connect = ConnectSock;
    WO.Name = Name.empty() ? "worker" : Name;
    WO.Capacity = Capacity;
    WO.Jobs = O.Jobs;
    WO.SleepMsPerJob = SleepMsPerJob;
    return fleet::runWorker(WO);
  }

  // --- Fleet coordinator: one verification round over the fleet, then
  // exit with verify_tool semantics.
  if (!ServeSock.empty()) {
    if (O.Path.empty()) {
      fprintf(stderr, "%s\n", P.usage().c_str());
      return 2;
    }
    std::unique_ptr<trace::TraceSession> TS;
    if (!TraceFile.empty())
      TS = std::make_unique<trace::TraceSession>();
    fleet::FleetOptions FO;
    FO.SockPath = ServeSock;
    FO.File = O.Path;
    FO.SharedDir = SharedDir;
    FO.Jobs = O.Jobs;
    FO.Recheck = O.Recheck;
    FO.Window = Window;
    FO.WaitMs = FleetWaitMs;
    FO.DeterministicTrace = DetTrace;
    FO.Trace = TS.get();
    fleet::Coordinator C(FO);
    refinedc::ProgramResult PR;
    std::string Err;
    if (!C.run(PR, &Err)) {
      fprintf(stderr, "verifyd: %s\n", Err.c_str());
      return 2;
    }
    if (Format == "stable-json")
      printf("%s", PR.toStableJson().c_str());
    else if (Format == "json")
      printf("%s", PR.toJson().c_str());
    else {
      const fleet::FleetStats &S = C.stats();
      printf("[fleet] %zu functions, %u workers, %u jobs from workers, "
             "%u requeued, %u stolen, all_verified=%s\n",
             PR.Fns.size(), S.WorkersSeen, S.JobsCompleted, S.Requeued,
             S.Stolen, PR.allVerified() ? "true" : "false");
    }
    if (TS && !TraceFile.empty()) {
      std::string TErr;
      if (!trace::writeChromeTrace(*TS, TraceFile, &TErr))
        fprintf(stderr, "verifyd: %s\n", TErr.c_str());
    }
    return PR.allVerified() && PR.allRechecksOk() ? 0 : 1;
  }

  if (O.Path.empty()) {
    fprintf(stderr, "%s\n", P.usage().c_str());
    return 2;
  }

  std::unique_ptr<trace::TraceSession> TS;
  if (!TraceFile.empty())
    TS = std::make_unique<trace::TraceSession>();
  O.Trace = TS.get();

  daemon::Daemon::installSignalHandlers();
  daemon::Daemon D(O);

  int Ret;
  if (Once) {
    // One cold-start check; events still go to stdout as JSON lines, with
    // id 0 because no request asked for them.
    D.checkOnce(
        [](const daemon::Event &E) {
          std::string L = E.toJsonLine(0);
          fputs(L.c_str(), stdout);
          fputc('\n', stdout);
          fflush(stdout);
        },
        /*Force=*/true);
    Ret = D.lastAllVerified() ? 0 : 1;
  } else if (!SockPath.empty()) {
    Ret = D.runSocket(SockPath);
  } else {
    Ret = D.runStdio(STDIN_FILENO, std::cout);
  }

  // Clean shutdown flushes the trace last, after the final store GC.
  if (TS && !TraceFile.empty()) {
    std::string Err;
    if (!trace::writeChromeTrace(*TS, TraceFile, &Err))
      fprintf(stderr, "verifyd: %s\n", Err.c_str());
  }
  return Ret;
}
