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
/// Both transports speak protocol v2 (src/daemon/Protocol.h; DESIGN.md,
/// "Protocol v2"): a peer sends `hello`, is answered by `hello_ack`, then
/// sends `{"rcc": "req", "id": N, "method": M}` lines (M = `check`,
/// `status`, `shutdown`) and may leave with `bye`. Events
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
/// Exit code 0 iff the last processed revision fully verified.
///
//===----------------------------------------------------------------------===//

#include "daemon/Daemon.h"
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
