//===- Daemon.cpp - Long-lived verification server (verifyd) --------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "daemon/Daemon.h"

#include "daemon/Protocol.h"
#include "support/Hash.h"
#include "support/Socket.h"
#include "support/Util.h"
#include "trace/Trace.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace fs = std::filesystem;

using namespace rcc;
using namespace rcc::daemon;

//===----------------------------------------------------------------------===//
// Shutdown flag (async-signal-safe; the run loops poll it)
//===----------------------------------------------------------------------===//

static volatile sig_atomic_t GShutdownRequested = 0;

static void requestShutdown(int) { GShutdownRequested = 1; }

void Daemon::installSignalHandlers() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = requestShutdown;
  sigemptyset(&SA.sa_mask);
  // No SA_RESTART: poll()/read() must return EINTR so the loops notice the
  // flag promptly instead of sleeping out their timeout.
  sigaction(SIGINT, &SA, nullptr);
  sigaction(SIGTERM, &SA, nullptr);
}

bool Daemon::shutdownRequested() { return GShutdownRequested != 0; }

void Daemon::resetShutdownFlag() { GShutdownRequested = 0; }

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

static bool readWholeFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// A document's last processed revision compiled and every function
/// verified. Never-checked documents (Rev == 0) count as unverified.
static bool docVerified(const refinedc::ProgramResult &Last, bool LastGood) {
  if (!LastGood)
    return false;
  for (const refinedc::FnResult &R : Last.Fns)
    if (!R.Verified)
      return false;
  return true;
}

static Event errorEvent(unsigned Rev, std::string File, std::string Message,
                        SourceLoc Loc = {}) {
  Event E;
  E.Kind = EventKind::Error;
  E.Rev = Rev;
  E.File = std::move(File);
  E.Diag.Message = std::move(Message);
  E.Diag.Loc = Loc;
  return E;
}

//===----------------------------------------------------------------------===//
// Daemon
//===----------------------------------------------------------------------===//

Daemon::Daemon(DaemonOptions Opts) : O(std::move(Opts)) {
  L1 = std::make_shared<store::MemoryResultStore>();
  if (!O.CacheDir.empty())
    L2 = std::make_shared<store::DiskResultStore>(O.CacheDir);
  if (!O.Path.empty())
    addDocument(O.Path);
  for (const std::string &P : O.Paths)
    addDocument(P);
}

Daemon::~Daemon() = default;

Daemon::Document *Daemon::find(const std::string &Path) {
  for (auto &D : Docs)
    if (D->Path == Path)
      return D.get();
  return nullptr;
}

const Daemon::Document *Daemon::find(const std::string &Path) const {
  for (const auto &D : Docs)
    if (D->Path == Path)
      return D.get();
  return nullptr;
}

bool Daemon::addDocument(const std::string &Path) {
  if (Path.empty())
    return false;
  if (find(Path))
    return true;
  auto D = std::make_unique<Document>();
  D->Path = Path;
  Docs.push_back(std::move(D));
  return true;
}

bool Daemon::removeDocument(const std::string &Path) {
  for (size_t I = 0; I < Docs.size(); ++I) {
    if (Docs[I]->Path == Path) {
      Docs.erase(Docs.begin() + static_cast<ptrdiff_t>(I));
      return true;
    }
  }
  return false;
}

std::vector<std::string> Daemon::documents() const {
  std::vector<std::string> Paths;
  Paths.reserve(Docs.size());
  for (const auto &D : Docs)
    Paths.push_back(D->Path);
  return Paths;
}

void Daemon::setOverlay(const std::string &Path, std::string Text) {
  addDocument(Path);
  Document *D = find(Path);
  if (!D)
    return;
  D->HasOverlay = true;
  D->Overlay = std::move(Text);
}

bool Daemon::clearOverlay(const std::string &Path) {
  Document *D = find(Path);
  if (!D || !D->HasOverlay)
    return false;
  D->HasOverlay = false;
  D->Overlay.clear();
  // The next check must re-stat the file; the content hash stays so that a
  // file identical to the dropped overlay is not a new revision.
  D->HaveStat = false;
  return true;
}

bool Daemon::hasOverlay(const std::string &Path) const {
  const Document *D = find(Path);
  return D && D->HasOverlay;
}

bool Daemon::verifyRevision(Document &D, const std::string &Source,
                            const StructuredSink &Sink) {
  trace::Span RevSpan(trace::Category::Checker, "daemon.revision",
                      "\"rev\": " + std::to_string(D.Rev));
  trace::count("daemon.revisions");

  rcc::DiagnosticEngine Diags;
  std::unique_ptr<front::AnnotatedProgram> NewAP =
      front::compileSource(Source, Diags);
  if (!NewAP) {
    D.LastGood = false;
    // Carry the frontend's source location so editors can anchor the error.
    SourceLoc Loc;
    if (!Diags.diagnostics().empty())
      Loc = Diags.diagnostics().front().Loc;
    Sink(errorEvent(D.Rev, D.Path, Diags.render(Source), Loc));
    return false;
  }

  // Fresh session over the shared tiers. The old session (if any) stays
  // live until the new one is fully built, so a spec error keeps serving
  // `status` from the previous good revision.
  auto NewChk = std::make_unique<refinedc::Checker>(*NewAP, Diags);
  NewChk->adoptStoreTiers(L1, L2);
  if (!NewChk->buildEnv()) {
    D.LastGood = false;
    SourceLoc Loc;
    if (!Diags.diagnostics().empty())
      Loc = Diags.diagnostics().front().Loc;
    Sink(errorEvent(D.Rev, D.Path, Diags.render(Source), Loc));
    return false;
  }

  refinedc::VerifyOptions VO;
  VO.Jobs = O.Jobs;
  VO.Recheck = O.Recheck;
  VO.CacheDir = O.CacheDir; // names the adopted L2, so the run keeps it
  VO.Trace = O.Trace;

  Event Start;
  Start.Kind = EventKind::Revision;
  Start.Rev = D.Rev;
  Start.File = D.Path;
  Sink(Start);

  refinedc::ProgramResult PR = NewChk->verifyAll(VO);

  unsigned Failed = 0;
  for (const refinedc::FnResult &R : PR.Fns) {
    Sink(Event::fromFnResult(D.Rev, D.Path, R));
    if (!R.Verified)
      ++Failed;
  }
  trace::count("daemon.reverified", PR.CacheMisses);

  // Commit the new session (Chk references *AP: drop it first).
  D.Chk.reset();
  D.AP = std::move(NewAP);
  D.Chk = std::move(NewChk);
  D.Last = std::move(PR);
  D.LastGood = true;

  Event Done;
  Done.Kind = EventKind::RevisionDone;
  Done.Rev = D.Rev;
  Done.File = D.Path;
  Done.Functions = static_cast<unsigned>(D.Last.Fns.size());
  Done.Reverified = static_cast<unsigned>(D.Last.CacheMisses);
  Done.CachedFns = static_cast<unsigned>(D.Last.CacheHits);
  Done.L1Hits = static_cast<unsigned>(D.Last.L1Hits);
  Done.L2Hits = static_cast<unsigned>(D.Last.L2Hits);
  Done.Replayed = static_cast<unsigned>(D.Last.ReplayedHits);
  Done.Failed = Failed;
  Done.AllVerified = docVerified(D.Last, D.LastGood);
  Done.WallMs = D.Last.WallMillis;
  Sink(Done);
  return true;
}

bool Daemon::checkDoc(Document &D, const StructuredSink &Sink, bool Force) {
  std::string Source;
  if (D.HasOverlay) {
    // The editor owns the content; the file on disk is irrelevant until
    // didClose drops the overlay.
    Source = D.Overlay;
  } else {
    // Cheap poll: mtime + size. Only a change here (or Force) pays for the
    // read + hash below.
    std::error_code EC;
    fs::file_time_type MT = fs::last_write_time(D.Path, EC);
    uint64_t Size = EC ? 0 : static_cast<uint64_t>(fs::file_size(D.Path, EC));
    if (EC) {
      if (Force)
        Sink(errorEvent(D.Rev, D.Path,
                        "cannot stat '" + D.Path + "': " + EC.message()));
      return false;
    }
    int64_t Ticks = MT.time_since_epoch().count();
    if (!Force && D.HaveStat && Ticks == D.LastMTimeTicks &&
        Size == D.LastSize)
      return false;
    D.HaveStat = true;
    D.LastMTimeTicks = Ticks;
    D.LastSize = Size;

    if (!readWholeFile(D.Path, Source)) {
      if (Force)
        Sink(errorEvent(D.Rev, D.Path, "cannot read '" + D.Path + "'"));
      return false;
    }
  }

  // Content hash: `touch` without an edit is not a revision.
  uint64_t Hash = ContentHasher().mix(Source).get();
  if (D.Rev > 0 && Hash == D.LastHash) {
    if (Force) {
      Event E;
      E.Kind = EventKind::Unchanged;
      E.Rev = D.Rev;
      E.File = D.Path;
      E.AllVerified = docVerified(D.Last, D.LastGood);
      Sink(E);
    }
    return false;
  }
  D.LastHash = Hash;
  ++D.Rev;

  verifyRevision(D, Source, Sink);
  return true;
}

bool Daemon::checkOnce(const StructuredSink &Sink, bool Force) {
  trace::SessionScope Scope(O.Trace);
  bool Any = false;
  for (auto &D : Docs)
    Any |= checkDoc(*D, Sink, Force);
  if (Any)
    runGc(Sink);
  return Any;
}

bool Daemon::checkDocument(const std::string &Path, const StructuredSink &Sink,
                           bool Force) {
  trace::SessionScope Scope(O.Trace);
  addDocument(Path);
  Document *D = find(Path);
  if (!D)
    return false;
  bool Any = checkDoc(*D, Sink, Force);
  if (Any)
    runGc(Sink);
  return Any;
}

void Daemon::runGc(const StructuredSink &Sink) {
  if (!L2 || O.CacheMaxBytes == 0)
    return;
  store::GcStats S = L2->gc(O.CacheMaxBytes);
  if (S.Evicted == 0)
    return;
  Event E;
  E.Kind = EventKind::Gc;
  E.BytesBefore = S.BytesBefore;
  E.BytesAfter = S.BytesAfter;
  E.Evicted = S.Evicted;
  E.MaxBytes = O.CacheMaxBytes;
  Sink(E);
}

void Daemon::emitShutdown(const StructuredSink &Sink) {
  trace::SessionScope Scope(O.Trace);
  // Final GC so a bounded cache directory is within budget on exit even if
  // the last revision's eviction raced with concurrent writers.
  runGc(Sink);
  Event E;
  E.Kind = EventKind::Shutdown;
  E.Rev = revision();
  Sink(E);
}

//===----------------------------------------------------------------------===//
// State queries
//===----------------------------------------------------------------------===//

unsigned Daemon::revision() const {
  return Docs.empty() ? 0 : Docs.front()->Rev;
}

unsigned Daemon::documentRevision(const std::string &Path) const {
  const Document *D = find(Path);
  return D ? D->Rev : 0;
}

const refinedc::ProgramResult &Daemon::lastResult() const {
  static const refinedc::ProgramResult Empty;
  return Docs.empty() ? Empty : Docs.front()->Last;
}

const refinedc::ProgramResult *Daemon::result(const std::string &Path) const {
  const Document *D = find(Path);
  return D ? &D->Last : nullptr;
}

bool Daemon::lastAllVerified() const {
  for (const auto &D : Docs)
    if (!docVerified(D->Last, D->LastGood))
      return false;
  return !Docs.empty();
}

//===----------------------------------------------------------------------===//
// Protocol: the request handler both transports share
//===----------------------------------------------------------------------===//

bool Daemon::handleLine(Peer &P, const std::string &Line, const LineSink &Reply,
                        const StructuredSink &Sink) {
  if (trim(Line).empty())
    return true;
  auto Reject = [&Reply](const std::string &Why) {
    Reply(ErrorMsg{Why}.toLine());
    return true;
  };
  Msg M;
  std::string Err;
  if (!parseMsg(Line, M, &Err))
    return Reject(Err);

  if (!P.Greeted) {
    if (M.Kind != MsgKind::Hello)
      return Reject("expected hello");
    if (M.H.Version != kProtocolVersion) {
      P.Closed = true;
      return Reject("protocol version " + std::to_string(M.H.Version) +
                    " not supported (daemon speaks " +
                    std::to_string(kProtocolVersion) + ")");
    }
    P.Greeted = true;
    HelloAck Ack;
    Ack.File = Docs.empty() ? std::string() : Docs.front()->Path;
    Ack.Recheck = O.Recheck;
    Reply(Ack.toLine());
    return true;
  }
  if (M.Kind == MsgKind::Bye) {
    P.Closed = true;
    return true;
  }
  if (M.Kind != MsgKind::Request)
    return Reject("unexpected message on a daemon connection");

  const std::string &Method = M.Q.Method;
  if (Method != "check" && Method != "status" && Method != "shutdown")
    return Reject("unknown method '" + Method + "'");
  P.ReqId = M.Q.Id;
  // The final `shutdown` event answers this request: the id stays.
  if (Method == "shutdown")
    return false;
  if (Method == "check") {
    checkOnce(Sink, /*Force=*/true);
  } else {
    for (const auto &D : Docs) {
      Event E;
      E.Kind = EventKind::Status;
      E.Rev = D->Rev;
      E.File = D->Path;
      E.Functions = static_cast<unsigned>(D->Last.Fns.size());
      E.AllVerified = docVerified(D->Last, D->LastGood);
      Sink(E);
    }
  }
  P.ReqId = 0;
  return true;
}

//===----------------------------------------------------------------------===//
// Stdio transport
//===----------------------------------------------------------------------===//

int Daemon::runStdio(int InFd, std::ostream &Out) {
  Peer P;
  LineSink Reply = [&Out](const std::string &L) {
    Out << L << '\n';
    Out.flush();
  };
  StructuredSink Sink = [&](const Event &E) { Reply(E.toJsonLine(P.ReqId)); };

  // Cold start: verify everything before serving requests.
  checkOnce(Sink, /*Force=*/true);

  // Poll the input with a timeout; every timeout is a watch tick on the
  // workspace, so saves re-verify without any request.
  std::string Buf;
  bool Serving = true, Eof = false;
  while (Serving && !Eof && !P.Closed && !shutdownRequested()) {
    struct pollfd PFD = {InFd, POLLIN, 0};
    int N = poll(&PFD, 1, static_cast<int>(O.PollMs));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (N == 0) {
      checkOnce(Sink, /*Force=*/false);
      continue;
    }
    char Chunk[4096];
    ssize_t R = read(InFd, Chunk, sizeof(Chunk));
    if (R < 0 && errno == EINTR)
      continue;
    if (R > 0) {
      Buf.append(Chunk, static_cast<size_t>(R));
    } else {
      Eof = true;
      if (!Buf.empty())
        Buf.push_back('\n'); // serve an unterminated final line
    }
    size_t NL;
    while (Serving && !P.Closed && (NL = Buf.find('\n')) != std::string::npos) {
      std::string Line = Buf.substr(0, NL);
      Buf.erase(0, NL + 1);
      Serving = handleLine(P, Line, Reply, Sink);
    }
  }

  emitShutdown(Sink);
  return lastAllVerified() ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// Unix-domain-socket transport
//===----------------------------------------------------------------------===//

namespace {
/// One connected subscriber: a buffered line transport (net::LineConn owns
/// partial-write/EPIPE robustness — a dead or wedged client is reaped, and
/// never takes the daemon down or corrupts another client's stream) plus
/// its protocol state.
struct Client {
  net::LineConn Conn;
  Daemon::Peer P;

  explicit Client(int Fd) : Conn(Fd) {}
};
} // namespace

int Daemon::runSocket(const std::string &SockPath) {
  // Belt and braces: LineConn sends with MSG_NOSIGNAL, but ignore SIGPIPE
  // anyway so no other write path can kill the daemon either.
  signal(SIGPIPE, SIG_IGN);

  std::string SockErr;
  int ListenFd = net::listenUnix(SockPath, &SockErr);
  if (ListenFd < 0) {
    fprintf(stderr, "verifyd: %s\n", SockErr.c_str());
    return 2;
  }

  std::vector<std::unique_ptr<Client>> Clients;
  // Every event goes to stdout (the daemon's log) and to every connected
  // subscriber — watch revisions broadcast, and a requesting client sees
  // its own reply events because it is a subscriber too. Only the
  // requester's copy carries the request's id.
  StructuredSink Broadcast = [&Clients](const Event &E) {
    std::string Line = E.toJsonLine(0);
    fputs(Line.c_str(), stdout);
    fputc('\n', stdout);
    fflush(stdout);
    for (auto &C : Clients)
      C->Conn.sendLine(C->P.ReqId ? E.toJsonLine(C->P.ReqId) : Line);
  };

  checkOnce(Broadcast, /*Force=*/true);

  bool Serving = true;
  while (Serving && !shutdownRequested()) {
    std::vector<struct pollfd> PFDs;
    PFDs.push_back({ListenFd, POLLIN, 0});
    for (const auto &C : Clients) {
      short Ev = POLLIN;
      if (C->Conn.wantsWrite())
        Ev |= POLLOUT;
      PFDs.push_back({C->Conn.fd(), Ev, 0});
    }

    int N = poll(PFDs.data(), PFDs.size(), static_cast<int>(O.PollMs));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (N == 0) {
      checkOnce(Broadcast, /*Force=*/false);
      continue;
    }

    if (PFDs[0].revents & POLLIN) {
      int Fd = accept(ListenFd, nullptr, nullptr);
      if (Fd >= 0)
        Clients.push_back(std::make_unique<Client>(Fd));
    }

    // PFDs[I+1] belongs to Clients[I]; accept above only appended.
    for (size_t I = 0; Serving && I < Clients.size() && I + 1 < PFDs.size();
         ++I) {
      Client &C = *Clients[I];
      short Rev = PFDs[I + 1].revents;
      if (Rev & (POLLERR | POLLNVAL)) {
        C.Conn.markDead();
        continue;
      }
      if (Rev & POLLOUT)
        C.Conn.flushWrites();
      if (!(Rev & (POLLIN | POLLHUP)))
        continue;
      std::vector<std::string> Lines;
      bool Alive = C.Conn.readLines(Lines);
      LineSink Reply = [&C](const std::string &L) { C.Conn.sendLine(L); };
      for (const std::string &Line : Lines) {
        Serving = handleLine(C.P, Line, Reply, Broadcast);
        if (!Serving || C.P.Closed)
          break;
      }
      if (!Alive || C.P.Closed)
        C.Conn.markDead();
    }

    for (size_t I = Clients.size(); I-- > 0;)
      if (Clients[I]->Conn.dead())
        Clients.erase(Clients.begin() + static_cast<ptrdiff_t>(I));
  }

  emitShutdown(Broadcast);
  Clients.clear();
  close(ListenFd);
  ::unlink(SockPath.c_str());
  return lastAllVerified() ? 0 : 1;
}
