//===- Daemon.h - Long-lived verification server (verifyd) -----*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verification daemon behind `verifyd` and `rcc-lsp` (DESIGN.md,
/// "Verification daemon" / "LSP server"). A Daemon owns a *workspace* of
/// watched documents and a pair of store tiers that outlive any single
/// compile: the in-memory L1 stays warm across *revisions* of every
/// document (each revision is a fresh frontend compile and a fresh Checker
/// session sharing the tiers via Checker::adoptStoreTiers), and the
/// optional disk L2 stays warm across *restarts* (entries are replayed
/// through the proof checker before they are trusted, exactly as in batch
/// mode). Because result-store keys fold in the function body, its callee
/// specs, and the spec-environment fingerprint, a revision re-verifies
/// exactly the functions whose verification problem actually changed —
/// everything else is an L1 hit, and editing one of N workspace files
/// re-verifies only that file's changed functions.
///
/// Each document carries its own revision state: poll fingerprints
/// (mtime+size, then a content hash so `touch` without an edit is not a
/// revision), an optional *overlay* — an editor-owned buffer installed by
/// the LSP server on didOpen/didChange that takes precedence over the
/// file's bytes — and the last compiled session.
///
/// Events are typed (daemon::Event); the LSP server consumes them directly
/// through a StructuredSink, and the JSON-lines transports — stdio
/// (`verifyd --stdio`) and a Unix domain socket (`verifyd --socket=PATH`)
/// — speak protocol v2 (daemon/Protocol.h) through one request handler,
/// handleLine. A peer opens with `hello` and is answered by `hello_ack`;
/// it then sends `{"rcc": "req", "id": N, "method": M}` lines, M one of
/// `check`, `status` and `shutdown`, and may leave with `bye`. Any other
/// line gets an `{"rcc": "error"}` message sent to that peer only (blank
/// lines are ignored), and a `hello` with another protocol version is
/// rejected and closes that peer. Every event line carries the envelope
/// `{"v": 2, "id": N, ...}`: the requesting peer's copy of the events its
/// request emits carries the request's id, every other copy (watch
/// revisions, other subscribers, the socket's stdout log) carries 0. A
/// `check` reply ends, per document, with a `revision_done`, `unchanged`,
/// or `error` event.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_DAEMON_DAEMON_H
#define RCC_DAEMON_DAEMON_H

#include "daemon/Event.h"
#include "frontend/Frontend.h"
#include "refinedc/Checker.h"
#include "store/ResultStore.h"

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace rcc::daemon {

struct DaemonOptions {
  /// The primary watched source file (the workspace's first document).
  std::string Path;
  /// Additional workspace documents (verifyd accepts several files; the
  /// LSP server adds documents dynamically via addDocument instead).
  std::vector<std::string> Paths;
  /// Persistent L2 cache directory (empty: L1 only — warm across
  /// revisions, cold across restarts).
  std::string CacheDir;
  /// GC budget for the cache directory, enforced after every revision and
  /// at shutdown (0 = unbounded). See DiskResultStore::gc.
  uint64_t CacheMaxBytes = 0;
  /// Concurrent verification jobs per revision (0 = all cores).
  unsigned Jobs = 1;
  /// Replay derivations through the independent ProofChecker (both fresh
  /// results and L2 hits); off = content-hash trust.
  bool Recheck = true;
  /// Watch poll interval in milliseconds.
  unsigned PollMs = 200;
  /// Optional trace session: revision spans and the `daemon.revisions` /
  /// `daemon.reverified` counters land here.
  trace::TraceSession *Trace = nullptr;
};

class Daemon {
public:
  explicit Daemon(DaemonOptions Opts);
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  // --- Workspace management (the LSP server's surface) ---

  /// Adds \p Path to the workspace (no-op if already present). Returns
  /// false only when Path is empty.
  bool addDocument(const std::string &Path);
  /// Removes \p Path and its session; shared-tier entries stay warm (keys
  /// are content hashes, so re-adding the document hits L1).
  bool removeDocument(const std::string &Path);
  /// The watched document paths, in workspace order.
  std::vector<std::string> documents() const;
  /// Installs an editor-owned buffer for \p Path (didOpen/didChange): all
  /// subsequent checks verify this text instead of the file's bytes. Adds
  /// the document if needed.
  void setOverlay(const std::string &Path, std::string Text);
  /// Drops the overlay (didClose); the next check reads the file again.
  bool clearOverlay(const std::string &Path);
  bool hasOverlay(const std::string &Path) const;

  // --- Checking ---

  /// One revision step over the whole workspace. \p Force re-reads every
  /// document even when the cheap mtime/size poll saw no change (a `check`
  /// request); the watch loop calls with Force=false. Returns true when at
  /// least one revision was processed (verified or failed to compile). On
  /// an unchanged forced check, emits an `unchanged` event per document so
  /// a request is never left without a terminating reply.
  bool checkOnce(const StructuredSink &Sink, bool Force = false);

  /// One revision step for a single document (the LSP server's per-save
  /// path). Adds the document if needed.
  bool checkDocument(const std::string &Path, const StructuredSink &Sink,
                     bool Force = true);

  // --- Protocol (both JSON-lines transports) ---

  /// One protocol peer: the stdio session or one socket client.
  struct Peer {
    bool Greeted = false; ///< its `hello` was accepted
    bool Closed = false;  ///< it said `bye` or failed the handshake
    /// Id of the request being served: this peer's copy of the events the
    /// request emits carries it (0 = none).
    uint64_t ReqId = 0;
  };
  /// Sends one protocol line to a single peer.
  using LineSink = std::function<void(const std::string &)>;

  /// The request handler both transports share: serves one line from \p P
  /// (grammar in the file comment). `hello_ack` and protocol errors go to
  /// \p Reply, which reaches P alone; a request's events go to \p Sink
  /// while P.ReqId holds its id. Returns false on `shutdown`, leaving the
  /// request's id in P.ReqId for the final `shutdown` event.
  bool handleLine(Peer &P, const std::string &Line, const LineSink &Reply,
                  const StructuredSink &Sink);

  /// Stdio transport: cold-start verification, then serves the lines read
  /// from \p InFd, polling the workspace whenever the input stays idle for
  /// PollMs (watch mode). An unterminated final line is served at EOF;
  /// EOF, `bye`, a rejected handshake, and `shutdown` all end the session
  /// with a `shutdown` event. Returns the exit code (0 iff the last
  /// revision fully verified).
  int runStdio(int InFd, std::ostream &Out);

  /// Unix-domain-socket transport: accepts any number of clients, serves
  /// their requests, broadcasts watch revisions to all of them, and
  /// mirrors every event to stdout. Returns the exit code.
  int runSocket(const std::string &SockPath);

  /// Installs SIGINT/SIGTERM handlers that request a clean shutdown (the
  /// run loops flush the store GC and emit a final `shutdown` event).
  static void installSignalHandlers();
  static bool shutdownRequested();
  /// Clears the flag (tests reuse the process).
  static void resetShutdownFlag();

  // --- State queries ---

  /// Revision counter of the primary (first) document.
  unsigned revision() const;
  /// Revision counter of one document (0 = unknown path or never checked).
  unsigned documentRevision(const std::string &Path) const;
  /// Last result of the primary document.
  const refinedc::ProgramResult &lastResult() const;
  /// Last result of one document (nullptr = unknown path).
  const refinedc::ProgramResult *result(const std::string &Path) const;
  /// True when every workspace document's last processed revision compiled
  /// and fully verified.
  bool lastAllVerified() const;
  store::DiskResultStore *l2() { return L2.get(); }

private:
  /// One watched document: poll fingerprints, optional editor overlay, and
  /// the live session of its last good compile.
  struct Document {
    std::string Path;

    /// Cheap poll state (mtime+size) and the authoritative content hash.
    bool HaveStat = false;
    int64_t LastMTimeTicks = 0;
    uint64_t LastSize = 0;
    uint64_t LastHash = 0;

    /// Editor-owned buffer; when present it is the document's content.
    bool HasOverlay = false;
    std::string Overlay;

    unsigned Rev = 0;
    bool LastGood = false;
    /// The live session. Chk references *AP, so AP must outlive it; both
    /// are replaced together on a successful recompile (Chk first).
    std::unique_ptr<front::AnnotatedProgram> AP;
    std::unique_ptr<refinedc::Checker> Chk;
    refinedc::ProgramResult Last;

    ~Document() {
      Chk.reset();
      AP.reset();
    }
  };

  Document *find(const std::string &Path);
  const Document *find(const std::string &Path) const;
  /// One revision step for \p D (see checkOnce for the contract).
  bool checkDoc(Document &D, const StructuredSink &Sink, bool Force);
  /// Compiles \p Source, builds a fresh Checker session over the shared
  /// tiers, verifies every annotated function, and emits the revision's
  /// events. False when the source does not compile (an `error` event
  /// carrying the frontend's source location is emitted and the previous
  /// session stays live).
  bool verifyRevision(Document &D, const std::string &Source,
                      const StructuredSink &Sink);
  /// Enforces CacheMaxBytes on L2, emitting a `gc` event when anything
  /// was evicted.
  void runGc(const StructuredSink &Sink);
  void emitShutdown(const StructuredSink &Sink);

  DaemonOptions O;
  /// Shared tiers, adopted by every revision's Checker in every document.
  std::shared_ptr<store::MemoryResultStore> L1;
  std::shared_ptr<store::DiskResultStore> L2;

  /// The workspace. Stable pointers (unique_ptr elements) because live
  /// sessions hold interior references.
  std::vector<std::unique_ptr<Document>> Docs;
};

} // namespace rcc::daemon

#endif // RCC_DAEMON_DAEMON_H
