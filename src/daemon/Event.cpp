//===- Event.cpp - Typed daemon events ------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "daemon/Event.h"

#include "daemon/Protocol.h"
#include "support/Json.h"
#include "support/Util.h"

#include <cstdio>

using namespace rcc;
using namespace rcc::daemon;

static std::string fmtMs(double Ms) {
  char Buf[32];
  snprintf(Buf, sizeof(Buf), "%.3f", Ms);
  return Buf;
}

Event Event::fromFnResult(unsigned Rev, const std::string &File,
                          const refinedc::FnResult &R) {
  Event E;
  E.Kind = EventKind::Diagnostic;
  E.Rev = Rev;
  E.File = File;
  E.Verified = R.Verified;
  E.Trusted = R.Trusted;
  E.Cached = R.CacheHit;
  E.WallMs = R.WallMillis;
  if (!R.Diags.empty()) {
    E.Diag = R.Diags.front();
  } else {
    // Verified functions (and legacy store entries) have no structured
    // diagnostic; keep the attribution fields populated anyway.
    E.Diag.Message = R.Error;
    E.Diag.Loc = R.ErrorLoc;
    E.Diag.Rule = R.FailedRule;
  }
  E.Diag.Fn = R.Name;
  E.Diag.File = File;
  return E;
}

std::string Event::toJsonLine(uint64_t Id) const {
  std::string S = "{\"v\": " + std::to_string(kProtocolVersion) +
                  ", \"id\": " + std::to_string(Id) + ", ";
  switch (Kind) {
  case EventKind::Revision:
    S += "\"event\": \"revision\", \"rev\": " + std::to_string(Rev) +
         ", \"file\": " + jsonQuote(File) + "}";
    break;

  case EventKind::Diagnostic:
    S += "\"event\": \"diagnostic\", \"rev\": " + std::to_string(Rev) +
         ", \"file\": " + jsonQuote(File) + ", \"fn\": " + jsonQuote(Diag.Fn) +
         std::string(", \"verified\": ") + (Verified ? "true" : "false") +
         std::string(", \"cached\": ") + (Cached ? "true" : "false");
    if (Trusted)
      S += ", \"trusted\": true";
    if (!Diag.Message.empty()) {
      S += ", \"error\": " + jsonQuote(Diag.Message);
      if (Diag.Loc.isValid())
        S += ", \"line\": " + std::to_string(Diag.Loc.Line) +
             ", \"col\": " + std::to_string(Diag.Loc.Col);
      // The unified wire shape, byte-identical to the entries of
      // `verify_tool --format=json`'s "diagnostics" array.
      S += ", \"diagnostic\": " + Diag.toJson();
    }
    S += ", \"wall_ms\": " + fmtMs(WallMs) + "}";
    break;

  case EventKind::RevisionDone:
    S += "\"event\": \"revision_done\", \"rev\": " + std::to_string(Rev) +
         ", \"file\": " + jsonQuote(File) +
         ", \"functions\": " + std::to_string(Functions) +
         ", \"reverified\": " + std::to_string(Reverified) +
         ", \"cached\": " + std::to_string(CachedFns) +
         ", \"l1_hits\": " + std::to_string(L1Hits) +
         ", \"l2_hits\": " + std::to_string(L2Hits) +
         ", \"replayed\": " + std::to_string(Replayed) +
         ", \"failed\": " + std::to_string(Failed) +
         std::string(", \"all_verified\": ") +
         (AllVerified ? "true" : "false") + ", \"wall_ms\": " + fmtMs(WallMs) +
         "}";
    break;

  case EventKind::Unchanged:
    S += "\"event\": \"unchanged\", \"rev\": " + std::to_string(Rev) +
         ", \"file\": " + jsonQuote(File) +
         std::string(", \"all_verified\": ") +
         (AllVerified ? "true" : "false") + "}";
    break;

  case EventKind::Status:
    S += "\"event\": \"status\", \"rev\": " + std::to_string(Rev) +
         ", \"file\": " + jsonQuote(File) +
         ", \"functions\": " + std::to_string(Functions) +
         std::string(", \"all_verified\": ") +
         (AllVerified ? "true" : "false") + "}";
    break;

  case EventKind::Error:
    S += "\"event\": \"error\", \"rev\": " + std::to_string(Rev);
    if (!File.empty())
      S += ", \"file\": " + jsonQuote(File);
    if (Diag.Loc.isValid())
      S += ", \"line\": " + std::to_string(Diag.Loc.Line) +
           ", \"col\": " + std::to_string(Diag.Loc.Col);
    S += ", \"message\": " + jsonQuote(Diag.Message) + "}";
    break;

  case EventKind::Gc:
    S += "\"event\": \"gc\", \"bytes_before\": " +
         std::to_string(BytesBefore) +
         ", \"bytes_after\": " + std::to_string(BytesAfter) +
         ", \"evicted\": " + std::to_string(Evicted) +
         ", \"max_bytes\": " + std::to_string(MaxBytes) + "}";
    break;

  case EventKind::Shutdown:
    S += "\"event\": \"shutdown\", \"rev\": " + std::to_string(Rev) + "}";
    break;
  }
  return S;
}

/// Event numbers are whole: an `unsigned` field reads [0, 2^32) and a
/// 64-bit one [0, 2^53], the range a double carries exactly. A field that
/// is present but out of range or fractional rejects the line; narrowing it
/// would hand the reader a wrong count.
static constexpr uint64_t kMaxUnsigned = 0xffffffffu;
static constexpr uint64_t kMaxWhole64 = uint64_t(1) << 53;

static bool readUnsigned(const json::Value &F, unsigned &Out) {
  uint64_t N;
  if (!F.asWhole(0, kMaxUnsigned, N))
    return false;
  Out = static_cast<unsigned>(N);
  return true;
}

/// Reads a line/column pair. Absent keys leave \p Out as it is; a pair
/// that is present must be two whole numbers in range.
static bool parseLoc(const json::Value &O, const char *LineKey,
                     const char *ColKey, SourceLoc &Out) {
  const json::Value *L = O.field(LineKey), *C = O.field(ColKey);
  if (!L && !C)
    return true;
  SourceLoc Loc;
  if (!L || !C || !readUnsigned(*L, Loc.Line) || !readUnsigned(*C, Loc.Col))
    return false;
  Out = Loc;
  return true;
}

/// Restores an rcc::Diagnostic from its Diagnostic::toJson object.
static bool parseDiagObject(const json::Value &O, Diagnostic &D) {
  if (!O.isObject())
    return false;
  if (const json::Value *F = O.field("file"))
    D.File = F->asString();
  if (!parseLoc(O, "line", "col", D.Loc) ||
      !parseLoc(O, "end_line", "end_col", D.End))
    return false;
  if (const json::Value *S = O.field("severity")) {
    if (S->asString() == "warning")
      D.Level = DiagLevel::Warning;
    else if (S->asString() == "note")
      D.Level = DiagLevel::Note;
    else
      D.Level = DiagLevel::Error;
  }
  if (const json::Value *F = O.field("fn"))
    D.Fn = F->asString();
  if (const json::Value *R = O.field("rule"))
    D.Rule = R->asString();
  const json::Value *M = O.field("message");
  if (!M || !M->isString())
    return false;
  D.Message = M->asString();
  return true;
}

bool Event::fromJsonLine(const std::string &Line, Event &Out,
                         uint64_t *ReqId) {
  json::Value V;
  if (!json::parse(Line, V, nullptr) || !V.isObject())
    return false;
  const json::Value *Ver = V.field("v"), *IdF = V.field("id");
  uint64_t Version = 0, Id = 0;
  if (!Ver || !Ver->asWhole(kProtocolVersion, kProtocolVersion, Version) ||
      !IdF || !IdF->asWhole(0, kMaxRequestId, Id))
    return false;
  const json::Value *Kind = V.field("event");
  if (!Kind || !Kind->isString())
    return false;
  const std::string &K = Kind->asString();

  Event E; // start from zero values; only set what the wire carries
  bool NumbersOk = true; // cleared by any number that is out of range
  auto U = [&V, &NumbersOk](const char *Name) -> unsigned {
    const json::Value *F = V.field(Name);
    unsigned N = 0;
    if (F && !readUnsigned(*F, N))
      NumbersOk = false;
    return N;
  };
  auto U64 = [&V, &NumbersOk](const char *Name) -> uint64_t {
    const json::Value *F = V.field(Name);
    uint64_t N = 0;
    if (F && !F->asWhole(0, kMaxWhole64, N))
      NumbersOk = false;
    return N;
  };
  auto B = [&V](const char *Name) -> bool {
    const json::Value *F = V.field(Name);
    return F && F->asBool();
  };
  auto Str = [&V](const char *Name) -> std::string {
    const json::Value *F = V.field(Name);
    return F ? F->asString() : std::string();
  };
  E.Rev = U("rev");
  E.File = Str("file");
  E.AllVerified = B("all_verified");
  if (const json::Value *W = V.field("wall_ms"))
    E.WallMs = W->asNumber();

  if (K == "revision") {
    E.Kind = EventKind::Revision;
  } else if (K == "diagnostic") {
    E.Kind = EventKind::Diagnostic;
    E.Verified = B("verified");
    E.Cached = B("cached");
    E.Trusted = B("trusted");
    if (const json::Value *D = V.field("diagnostic")) {
      if (!parseDiagObject(*D, E.Diag))
        return false;
    } else {
      E.Diag.Message = Str("error");
      if (!parseLoc(V, "line", "col", E.Diag.Loc))
        return false;
    }
    E.Diag.Fn = Str("fn");
    E.Diag.File = E.File;
  } else if (K == "revision_done") {
    E.Kind = EventKind::RevisionDone;
    E.Functions = U("functions");
    E.Reverified = U("reverified");
    E.CachedFns = U("cached");
    E.L1Hits = U("l1_hits");
    E.L2Hits = U("l2_hits");
    E.Replayed = U("replayed");
    E.Failed = U("failed");
  } else if (K == "unchanged") {
    E.Kind = EventKind::Unchanged;
  } else if (K == "status") {
    E.Kind = EventKind::Status;
    E.Functions = U("functions");
  } else if (K == "error") {
    E.Kind = EventKind::Error;
    E.Diag.Message = Str("message");
    if (!parseLoc(V, "line", "col", E.Diag.Loc) || E.Diag.Message.empty())
      return false;
  } else if (K == "gc") {
    E.Kind = EventKind::Gc;
    E.BytesBefore = U64("bytes_before");
    E.BytesAfter = U64("bytes_after");
    E.Evicted = U64("evicted");
    E.MaxBytes = U64("max_bytes");
  } else if (K == "shutdown") {
    E.Kind = EventKind::Shutdown;
  } else {
    return false;
  }
  if (!NumbersOk)
    return false;
  Out = std::move(E);
  if (ReqId)
    *ReqId = Id;
  return true;
}
