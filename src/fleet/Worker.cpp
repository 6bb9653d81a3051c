//===- Worker.cpp - Fleet worker (verifyd --worker) -----------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "fleet/Worker.h"

#include "fleet/Protocol.h"
#include "frontend/Frontend.h"
#include "refinedc/Checker.h"
#include "support/Socket.h"
#include "trace/Trace.h"

#include <chrono>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

using namespace rcc;
using namespace rcc::fleet;

int rcc::fleet::runWorker(const WorkerOptions &O) {
  // The coordinator may still be binding its socket; retry within budget.
  int Fd = -1;
  std::string SockErr;
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(O.ConnectWaitMs);
  while (Fd < 0) {
    Fd = net::connectUnix(O.Connect, &SockErr);
    if (Fd >= 0)
      break;
    if (std::chrono::steady_clock::now() >= Deadline)
      return 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  net::LineConn Conn(Fd);
  std::mutex SendM; // span flushes arrive from pool threads

  auto Send = [&](const std::string &Line) {
    std::lock_guard<std::mutex> L(SendM);
    Conn.sendLine(Line);
    Conn.flushWrites();
  };

  Hello H;
  if (O.ProtocolVersion)
    H.Version = O.ProtocolVersion;
  H.Role = "worker";
  H.Name = O.Name;
  Send(H.toLine());

  std::string Line;
  if (!Conn.waitLine(Line, static_cast<int>(O.ConnectWaitMs)))
    return 1;
  Msg M;
  if (!parseMsg(Line, M, nullptr) || M.Kind != MsgKind::HelloAck ||
      M.A.Version != kProtocolVersion)
    return 1; // rejected (coordinator already sent the error message)
  HelloAck Ack = M.A;
  // The portfolio mode is hash-folded: a worker that guessed at a mode it
  // does not know would publish under keys the coordinator never probes.
  // An absent field means the default.
  pure::PortfolioMode Portfolio = pure::PortfolioMode::On;
  if (!Ack.Portfolio.empty() &&
      !pure::parsePortfolioMode(Ack.Portfolio, Portfolio)) {
    Send(ErrorMsg{"worker does not know portfolio mode '" + Ack.Portfolio +
                  "'"}
             .toLine());
    return 1;
  }

  std::ifstream In(Ack.File);
  if (!In) {
    Send(ErrorMsg{"worker cannot open '" + Ack.File + "'"}.toLine());
    return 1;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Source = SS.str();

  DiagnosticEngine Diags;
  auto AP = front::compileSource(Source, Diags);
  if (!AP) {
    Send(ErrorMsg{"worker compile failed"}.toLine());
    return 1;
  }
  refinedc::Checker Chk(*AP, Diags);
  if (!Chk.buildEnv()) {
    Send(ErrorMsg{"worker buildEnv failed"}.toLine());
    return 1;
  }

  // Lossless flush mode: completed spans stream back as span_flush batches
  // instead of ring-dropping once the cap fills.
  trace::TraceSession TS(/*Deterministic=*/false, O.FlushCap);
  TS.setFlushSink([&](std::vector<trace::Event> Events) {
    SpanFlush F;
    F.Worker = O.Name;
    F.Events.reserve(Events.size());
    for (const trace::Event &E : Events) {
      FlushedSpan S;
      S.Name = E.Name;
      S.Lane = E.Lane;
      S.Seq = E.Seq;
      S.Phase = E.Phase;
      F.Events.push_back(std::move(S));
    }
    Send(F.toLine());
  });

  refinedc::VerifyOptions VO;
  VO.Jobs = O.Jobs;
  VO.Recheck = false; // workers warm the store; the coordinator replays
  VO.SharedDir = Ack.SharedDir;
  VO.Portfolio = Portfolio;
  VO.Trace = &TS;

  while (true) {
    Pull P;
    P.Capacity = O.Capacity;
    Send(P.toLine());

    if (!Conn.waitLine(Line, 30000))
      return 1;
    if (!parseMsg(Line, M, nullptr))
      return 1;
    if (M.Kind == MsgKind::Error)
      return 1;
    if (M.Kind != MsgKind::Jobs)
      continue; // unexpected but survivable; re-pull
    if (M.J.Done) {
      Send(Bye{}.toLine());
      return 0;
    }
    if (M.J.Fns.empty()) {
      // Dry queue, run not finished: back off and re-pull.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      continue;
    }

    for (const std::string &Fn : M.J.Fns) {
      if (O.SleepMsPerJob)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(O.SleepMsPerJob));
      auto T0 = std::chrono::steady_clock::now();
      refinedc::ProgramResult PR = Chk.verifyFunctions({Fn}, VO);
      TS.flushAll(); // stream this job's spans before reporting it done
      JobResult R;
      R.Fn = Fn;
      R.WallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - T0)
                     .count();
      if (const refinedc::FnResult *FR = PR.fn(Fn)) {
        R.Verified = FR->Verified;
        R.Cached = FR->CacheHit;
      }
      Send(R.toLine());
      if (Conn.dead())
        return 1;
    }
  }
}
