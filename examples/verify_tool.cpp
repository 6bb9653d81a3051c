//===- verify_tool.cpp - A command-line RefinedC++ verifier ---------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The downstream-user tool: `verify_tool file.c [function...]` verifies the
/// named functions (default: every function carrying rc:: annotations) and
/// prints per-function results with the paper's error-message format on
/// failure. Exit code 0 iff everything verified. Flags:
///
///   --stats        print per-function rule/side-condition statistics
///   --no-recheck   skip the independent derivation replay (also downgrades
///                  persistent-cache hits to content-hash trust)
///   --jobs=N       run N verification jobs concurrently (0 = all cores)
///   --cache-dir=D  persist verification results under D and reuse them on
///                  later runs (entries are replayed through the proof
///                  checker before being trusted; see DESIGN.md)
///   --no-cache     bypass the result store entirely
///   --format=F     `json` prints the ProgramResult as JSON instead of text
///                  (with --run, the JSON carries a `run` object with the
///                  execution status, return value, and failure message);
///                  `stable-json` prints only the schedule-independent
///                  subset, byte-identical across --jobs values and
///                  between cold and warm --cache-dir runs; `text` is the
///                  default
///   --run[=fn]     additionally execute `fn` (default main) afterwards
///   --connect=SOCK thin-client mode: instead of verifying in-process,
///                  ask a running `verifyd` on the Unix socket SOCK for a
///                  `check` over protocol v2 and print its JSON-lines
///                  events (exit 0 iff every workspace document reports
///                  all_verified)
///   --trace=FILE   write a Chrome trace-event JSON of the whole pipeline
///                  (load in chrome://tracing or https://ui.perfetto.dev)
///   --trace-cap=N  cap each thread's trace buffer at N events (ring
///                  truncation; dropped events are counted in the metrics)
///   --profile      print the proof-search profile report (top rules by
///                  cumulative/self time, goal kinds, solver stats)
///   --deterministic-trace  make trace/profile output byte-identical across
///                  --jobs values (stable lanes, ordinal timestamps)
///   --portfolio=M  pure-solver leaf dispatch: `on` (default; includes the
///                  bit-vector backend) or `off` (pre-portfolio dispatch,
///                  no bit-vector backend)
///   --version      print the version and exit
///
/// Flags are declared against the shared opts::OptionParser (the same
/// parser behind verifyd and rcc-lsp), so unknown `--` flags stay a usage
/// error (exit 2) and a typo cannot silently verify with the wrong
/// configuration.
///
//===----------------------------------------------------------------------===//

#include "caesium/Interp.h"
#include "daemon/Event.h"
#include "daemon/Protocol.h"
#include "frontend/Frontend.h"
#include "refinedc/Checker.h"
#include "support/Options.h"
#include "support/Socket.h"
#include "support/Util.h"
#include "trace/Export.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

using namespace rcc;

/// Thin-client mode (`--connect=SOCK`): a second invocation next to a
/// running verifyd does not re-load or re-verify anything. It asks the
/// daemon (whose L1 is warm across revisions) for a check over protocol v2
/// and prints the check's event lines. `status` goes first because it
/// answers with one event per workspace document, which is how many
/// terminating events (`revision_done`, `unchanged`, or `error`) the
/// `check` owes; requests are answered in order. Only events carrying this
/// client's request ids count. Exit 0 iff every document reports
/// all_verified, 1 if one does not, 2 if the daemon cannot be reached or
/// rejects the client.
static int runClient(const std::string &Sock) {
  constexpr uint64_t StatusId = 1, CheckId = 2;
  std::string Err;
  int Fd = net::connectUnix(Sock, &Err);
  if (Fd < 0) {
    fprintf(stderr, "error: cannot reach verifyd: %s\n", Err.c_str());
    return 2;
  }
  net::LineConn Conn(Fd);
  daemon::Hello H;
  H.Role = "client";
  H.Name = "verify_tool";
  Conn.sendLine(H.toLine());
  Conn.sendLine(daemon::Request{StatusId, "status"}.toLine());
  Conn.sendLine(daemon::Request{CheckId, "check"}.toLine());

  size_t Docs = 0, Done = 0;
  bool AllOk = true;
  std::string Line;
  while (Conn.waitLine(Line, /*TimeoutMs=*/-1)) {
    daemon::Event E;
    uint64_t Id = 0;
    if (!daemon::Event::fromJsonLine(Line, E, &Id)) {
      daemon::Msg M;
      if (daemon::parseMsg(Line, M) && M.Kind == daemon::MsgKind::Error) {
        fprintf(stderr, "error: verifyd: %s\n", M.E.Message.c_str());
        return 2;
      }
      continue; // hello_ack
    }
    if (Id == StatusId && E.Kind == daemon::EventKind::Status) {
      ++Docs;
      continue;
    }
    if (Id != CheckId)
      continue; // watch revisions and other clients' requests
    printf("%s\n", Line.c_str());
    bool Terminal = E.Kind == daemon::EventKind::RevisionDone ||
                    E.Kind == daemon::EventKind::Unchanged ||
                    E.Kind == daemon::EventKind::Error;
    if (!Terminal)
      continue;
    if (!E.AllVerified) // an error event never reports all_verified
      AllOk = false;
    if (++Done == Docs) {
      Conn.sendLine(daemon::Bye{}.toLine());
      return AllOk ? 0 : 1;
    }
  }
  fprintf(stderr, "error: verifyd closed the connection before a verdict\n");
  return 2;
}

int main(int argc, char **argv) {
  std::string Path;
  std::vector<std::string> Functions;
  bool Stats = false, Recheck = true;
  unsigned Jobs = 1, TraceCap = 0;
  std::string RunFn;
  std::string TraceFile;
  std::string CacheDir;
  std::string ConnectSock;
  std::string Format = "text";
  bool NoCache = false;
  bool Profile = false, DetTrace = false;
  pure::PortfolioMode Portfolio = pure::PortfolioMode::On;

  opts::OptionParser P("verify_tool", "<file.c> [function...]");
  P.flag("stats", Stats, true, "print per-function statistics")
      .flag("no-recheck", Recheck, false,
            "skip the independent derivation replay")
      .unsignedOpt("jobs", Jobs, "concurrent verification jobs (0 = cores)")
      .strOpt("cache-dir", CacheDir, "persistent result store directory")
      .flag("no-cache", NoCache, true, "bypass the result store")
      .strOpt("connect", ConnectSock, "thin-client mode: verifyd socket")
      .custom("format",
              [&Format](const std::string &V) {
                if (V != "json" && V != "stable-json" && V != "text")
                  return false;
                Format = V;
                return true;
              },
              "output format: text | json | stable-json")
      .strOptional("run", RunFn, "main", "execute a function afterwards")
      .strOpt("trace", TraceFile, "write a Chrome trace-event JSON")
      .unsignedOpt("trace-cap", TraceCap, "per-thread trace buffer cap")
      .flag("profile", Profile, true, "print the proof-search profile")
      .flag("deterministic-trace", DetTrace, true,
            "byte-identical trace/profile output across --jobs")
      .custom("portfolio",
              [&Portfolio](const std::string &V) {
                return pure::parsePortfolioMode(V, Portfolio);
              },
              "pure-solver dispatch: on | off")
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
  if (!Pos.empty()) {
    Path = Pos.front();
    Functions.assign(Pos.begin() + 1, Pos.end());
  }
  if (!ConnectSock.empty())
    return runClient(ConnectSock); // the daemon owns the file list
  if (Path.empty()) {
    fprintf(stderr, "%s\n", P.usage().c_str());
    return 2;
  }

  // The session is created here (not inside the checker) so the frontend
  // spans land in the same trace as the verification run.
  std::unique_ptr<trace::TraceSession> TS;
  if (!TraceFile.empty() || Profile)
    TS = std::make_unique<trace::TraceSession>(DetTrace, TraceCap);
  trace::SessionScope TraceScope(TS.get());

  std::ifstream In(Path);
  if (!In) {
    fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
    return 2;
  }
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Source = SS.str();

  DiagnosticEngine Diags;
  auto AP = front::compileSource(Source, Diags);
  if (!AP) {
    fprintf(stderr, "%s", Diags.render(Source).c_str());
    return 1;
  }
  refinedc::Checker Checker(*AP, Diags);
  if (!Checker.buildEnv()) {
    fprintf(stderr, "%s", Diags.render(Source).c_str());
    return 1;
  }

  if (Functions.empty())
    for (const auto &[Name, Spec] : Checker.env().FnSpecs)
      if (AP->Prog.function(Name) && AP->Fns.count(Name) &&
          AP->Fns.at(Name).HasBody)
        Functions.push_back(Name);

  refinedc::VerifyOptions Opts;
  Opts.Recheck = Recheck;
  Opts.Jobs = Jobs;
  Opts.CacheDir = CacheDir;
  Opts.NoCache = NoCache;
  Opts.Trace = TS.get();
  Opts.Profile = Profile;
  Opts.Portfolio = Portfolio;
  Opts.DeterministicTrace = DetTrace;
  refinedc::ProgramResult PR = Checker.verifyFunctions(Functions, Opts);

  // Attribute diagnostics to the input file, exactly as the daemon
  // attributes them to the watched document: the entries of the JSON
  // "diagnostics" array below are byte-identical to the `diagnostic`
  // objects of verifyd's events for the same failure.
  for (refinedc::FnResult &R : PR.Fns)
    for (rcc::Diagnostic &Dg : R.Diags)
      if (Dg.File.empty())
        Dg.File = Path;

  bool AllOk = PR.allVerified() && PR.allRechecksOk();

  // The run happens before any output so JSON mode can report it: the run
  // outcome used to be swallowed under --format=json while still flipping
  // the exit code — a silent failure. The JSON carries a `run` object with
  // status, return value, and message; text mode keeps its `[run ]` line
  // after the per-function results, as before.
  std::string RunJson;
  bool RunOk = true;
  long long RunRet = 0;
  std::string RunMsg;
  if (!RunFn.empty()) {
    caesium::Machine M(AP->Prog);
    caesium::ExecResult E = M.run(RunFn, {});
    RunOk = E.ok();
    RunRet = E.MainRet.isInt() ? (long long)E.MainRet.asSigned() : 0LL;
    RunMsg = E.Message;
    RunJson = "\"run\": {\"fn\": " + jsonQuote(RunFn) +
              ", \"status\": " + (RunOk ? "\"ok\"" : "\"fail\"");
    if (RunOk)
      RunJson += ", \"ret\": " + std::to_string(RunRet);
    else
      RunJson += ", \"message\": " + jsonQuote(RunMsg);
    RunJson += "}";
    if (!RunOk)
      AllOk = false;
  }

  bool Json = Format != "text";
  if (Format == "stable-json") {
    printf("%s", PR.toStableJson().c_str());
  } else if (Format == "json") {
    printf("%s", PR.toJson(RunJson).c_str());
  } else {
    for (const refinedc::FnResult &R : PR.Fns) {
      if (!R.Verified) {
        printf("[FAIL] %s\n%s\n", R.Name.c_str(),
               R.renderError(Source).c_str());
        continue;
      }
      std::string Note;
      if (R.Rechecked)
        Note = R.RecheckOk ? ", derivation re-checked" : ", RE-CHECK FAILED";
      printf("[ ok ] %s%s%s\n", R.Name.c_str(),
             R.Trusted ? " (trusted)" : "", Note.c_str());
      if (Stats)
        printf("       %u rule applications (%u distinct), %u evars, "
               "side conditions %u auto / %u manual\n",
               R.Stats.RuleApps, (unsigned)R.Stats.RulesUsed.size(),
               R.EvarsInstantiated, R.Stats.SideCondAuto,
               R.Stats.SideCondManual);
    }
    if (!CacheDir.empty() && !NoCache)
      printf("[cache] %u hit%s (l2 %u, replayed %u), %u re-verified\n",
             PR.CacheHits, PR.CacheHits == 1 ? "" : "s", PR.L2Hits,
             PR.ReplayedHits, PR.CacheMisses);
    if (!RunFn.empty()) {
      if (RunOk)
        printf("[run ] %s() -> %lld\n", RunFn.c_str(), RunRet);
      else
        printf("[run ] %s() FAILED: %s\n", RunFn.c_str(), RunMsg.c_str());
    }
  }

  // In JSON mode stdout must stay machine-parseable; the human-readable
  // profile goes to stderr instead.
  if (Profile)
    fprintf(Json ? stderr : stdout, "%s", PR.ProfileReport.c_str());
  if (TS && !TraceFile.empty()) {
    std::string Err;
    if (!trace::writeChromeTrace(*TS, TraceFile, &Err)) {
      fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
    if (!Json)
      printf("[trace] wrote %zu events to %s\n", TS->numEvents(),
             TraceFile.c_str());
  }
  return AllOk ? 0 : 1;
}
