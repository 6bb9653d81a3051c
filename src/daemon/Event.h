//===- Event.h - Typed daemon events ---------------------------*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The typed event model of the verification daemon. Every observable
/// daemon occurrence — a revision starting, a per-function verdict, a
/// revision completing, a compile error — is an Event value; transports
/// *render* events instead of assembling strings: the JSON-lines protocol
/// calls toJsonLine, which writes every line behind the protocol-v2
/// envelope `{"v": 2, "id": N, ...}`, and the LSP server maps the same
/// values onto publishDiagnostics.
/// Diagnostic payloads ride along as rcc::Diagnostic, the one wire-level
/// diagnostic struct shared with `verify_tool --format=json`, so a
/// function's failure serializes identically on every surface.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_DAEMON_EVENT_H
#define RCC_DAEMON_EVENT_H

#include "refinedc/Result.h"
#include "support/Diagnostics.h"

#include <cstdint>
#include <functional>
#include <string>

namespace rcc::daemon {

enum class EventKind : uint8_t {
  Revision,     ///< a document revision began verifying
  Diagnostic,   ///< one function's verdict within a revision
  RevisionDone, ///< revision summary (counters, verdict)
  Unchanged,    ///< forced check found no content change
  Status,       ///< status reply for one document
  Error,        ///< compile/IO/protocol error
  Gc,           ///< disk-tier eviction report
  Shutdown      ///< final event before exit
};

/// One daemon event. Only the fields meaningful for the Kind are set; the
/// rest keep their zero values and are not rendered.
struct Event {
  EventKind Kind = EventKind::Status;
  unsigned Rev = 0;
  std::string File; ///< the document this event belongs to ("" = daemon)

  /// Diagnostic / Error payload. For Kind::Diagnostic, Diag.Fn is the
  /// function and Diag carries the failure (empty Message when verified);
  /// for Kind::Error, Diag.Loc carries the frontend's source location of a
  /// compile failure (invalid for IO/protocol errors).
  rcc::Diagnostic Diag;
  bool Verified = false;
  bool Trusted = false;
  bool Cached = false;

  // Kind::RevisionDone / Kind::Status counters.
  unsigned Functions = 0;
  unsigned Reverified = 0;
  unsigned CachedFns = 0;
  unsigned L1Hits = 0;
  unsigned L2Hits = 0;
  unsigned Replayed = 0;
  unsigned Failed = 0;
  bool AllVerified = false;
  double WallMs = 0.0;

  // Kind::Gc.
  uint64_t BytesBefore = 0;
  uint64_t BytesAfter = 0;
  uint64_t Evicted = 0;
  uint64_t MaxBytes = 0;

  /// Renders the JSON-lines wire form (one line, no trailing newline):
  /// `{"v": 2, "id": N, "event": ...}`, where \p Id is the id of the
  /// request this event answers on the receiving peer's copy and 0 on
  /// every other copy (watch broadcasts, other subscribers, logs). Field
  /// names, order, and `": "`/`", "` spacing are stable protocol —
  /// DaemonTest and scripts grep exact substrings of these lines.
  std::string toJsonLine(uint64_t Id) const;

  /// Parses a toJsonLine line back into a typed Event, its id landing in
  /// \p ReqId. Strict: a missing envelope, unknown `event` names, missing
  /// mandatory fields, and JSON syntax errors all return false.
  /// Round-trips: parse(toJsonLine(E)) == E for every kind (ProtocolTest
  /// locks this down).
  static bool fromJsonLine(const std::string &Line, Event &Out,
                           uint64_t *ReqId = nullptr);

  /// Builds the per-function Diagnostic event for \p R within revision
  /// \p Rev of document \p File. Copies the checker's structured
  /// diagnostic (if any) and attributes it to the file.
  static Event fromFnResult(unsigned Rev, const std::string &File,
                            const refinedc::FnResult &R);
};

/// Receives typed events; each transport renders them for its peers.
using StructuredSink = std::function<void(const Event &)>;

} // namespace rcc::daemon

#endif // RCC_DAEMON_EVENT_H
