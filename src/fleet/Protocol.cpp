//===- Protocol.cpp - Typed, versioned fleet/daemon protocol --------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "fleet/Protocol.h"

#include "support/Json.h"
#include "support/Util.h"

#include <cstdio>

using namespace rcc;
using namespace rcc::fleet;

//===----------------------------------------------------------------------===//
// Rendering (fixed member order; one line, no trailing newline)
//===----------------------------------------------------------------------===//

static std::string fmtMs(double Ms) {
  char Buf[32];
  snprintf(Buf, sizeof(Buf), "%.3f", Ms);
  return Buf;
}

std::string Hello::toLine() const {
  return "{\"rcc\": \"hello\", \"protocol_version\": " +
         std::to_string(Version) + ", \"role\": " + jsonQuote(Role) +
         ", \"name\": " + jsonQuote(Name) + "}";
}

std::string HelloAck::toLine() const {
  return "{\"rcc\": \"hello_ack\", \"protocol_version\": " +
         std::to_string(Version) + ", \"file\": " + jsonQuote(File) +
         ", \"shared_dir\": " + jsonQuote(SharedDir) +
         std::string(", \"recheck\": ") + (Recheck ? "true" : "false") +
         ", \"portfolio\": " + jsonQuote(Portfolio) +
         ", \"window\": " + std::to_string(Window) + "}";
}

std::string Pull::toLine() const {
  return "{\"rcc\": \"pull\", \"capacity\": " + std::to_string(Capacity) +
         "}";
}

std::string Jobs::toLine() const {
  std::string S = "{\"rcc\": \"jobs\", \"seq\": " + std::to_string(Seq) +
                  ", \"fns\": [";
  for (size_t I = 0; I < Fns.size(); ++I) {
    if (I)
      S += ", ";
    S += jsonQuote(Fns[I]);
  }
  S += "]";
  if (Done)
    S += ", \"done\": true";
  S += "}";
  return S;
}

std::string JobResult::toLine() const {
  return "{\"rcc\": \"job_result\", \"fn\": " + jsonQuote(Fn) +
         std::string(", \"verified\": ") + (Verified ? "true" : "false") +
         std::string(", \"cached\": ") + (Cached ? "true" : "false") +
         ", \"wall_ms\": " + fmtMs(WallMs) + "}";
}

std::string SpanFlush::toLine() const {
  std::string S =
      "{\"rcc\": \"span_flush\", \"worker\": " + jsonQuote(Worker) +
      ", \"count\": " + std::to_string(Events.size()) + ", \"events\": [";
  for (size_t I = 0; I < Events.size(); ++I) {
    const FlushedSpan &E = Events[I];
    if (I)
      S += ", ";
    S += "{\"n\": " + jsonQuote(E.Name) +
         ", \"l\": " + std::to_string(E.Lane) +
         ", \"s\": " + std::to_string(E.Seq) + ", \"p\": \"" +
         std::string(1, E.Phase) + "\"}";
  }
  S += "]}";
  return S;
}

std::string Request::toLine() const {
  return "{\"rcc\": \"req\", \"id\": " + std::to_string(Id) +
         ", \"method\": " + jsonQuote(Method) + "}";
}

std::string Bye::toLine() const { return "{\"rcc\": \"bye\"}"; }

std::string ErrorMsg::toLine() const {
  return "{\"rcc\": \"error\", \"message\": " + jsonQuote(Message) + "}";
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

static bool getStr(const json::Value &V, const char *Name, std::string &Out,
                   bool Required = true) {
  const json::Value *F = V.field(Name);
  if (!F || !F->isString())
    return !Required;
  Out = F->asString();
  return true;
}

static uint64_t getU64(const json::Value &V, const char *Name,
                       uint64_t Default = 0) {
  const json::Value *F = V.field(Name);
  return F && F->isNumber() ? static_cast<uint64_t>(F->asInt()) : Default;
}

static bool getBool(const json::Value &V, const char *Name) {
  const json::Value *F = V.field(Name);
  return F && F->asBool();
}

bool fleet::parseMsg(const std::string &Line, Msg &Out, std::string *Err) {
  auto Fail = [Err](const char *M) {
    if (Err)
      *Err = M;
    return false;
  };
  json::Value V;
  std::string JErr;
  if (!json::parse(Line, V, &JErr)) {
    if (Err)
      *Err = "malformed JSON: " + JErr;
    return false;
  }
  if (!V.isObject())
    return Fail("not an object");
  std::string Tag;
  if (!getStr(V, "rcc", Tag))
    return Fail("missing rcc tag");

  Msg M;
  if (Tag == "hello") {
    M.Kind = MsgKind::Hello;
    M.H.Version = static_cast<unsigned>(getU64(V, "protocol_version"));
    if (M.H.Version == 0)
      return Fail("hello without protocol_version");
    if (!getStr(V, "role", M.H.Role))
      return Fail("hello without role");
    getStr(V, "name", M.H.Name, /*Required=*/false);
  } else if (Tag == "hello_ack") {
    M.Kind = MsgKind::HelloAck;
    M.A.Version = static_cast<unsigned>(getU64(V, "protocol_version"));
    if (!getStr(V, "file", M.A.File))
      return Fail("hello_ack without file");
    getStr(V, "shared_dir", M.A.SharedDir, /*Required=*/false);
    M.A.Recheck = getBool(V, "recheck");
    getStr(V, "portfolio", M.A.Portfolio, /*Required=*/false);
    M.A.Window = static_cast<unsigned>(getU64(V, "window"));
  } else if (Tag == "pull") {
    M.Kind = MsgKind::Pull;
    M.P.Capacity = static_cast<unsigned>(getU64(V, "capacity", 1));
    if (M.P.Capacity == 0)
      return Fail("pull with zero capacity");
  } else if (Tag == "jobs") {
    M.Kind = MsgKind::Jobs;
    M.J.Seq = getU64(V, "seq");
    const json::Value *Fns = V.field("fns");
    if (!Fns || !Fns->isArray())
      return Fail("jobs without fns array");
    for (const json::Value &F : Fns->items()) {
      if (!F.isString())
        return Fail("non-string function name");
      M.J.Fns.push_back(F.asString());
    }
    M.J.Done = getBool(V, "done");
  } else if (Tag == "job_result") {
    M.Kind = MsgKind::JobResult;
    if (!getStr(V, "fn", M.R.Fn))
      return Fail("job_result without fn");
    M.R.Verified = getBool(V, "verified");
    M.R.Cached = getBool(V, "cached");
    if (const json::Value *W = V.field("wall_ms"))
      M.R.WallMs = W->asNumber();
  } else if (Tag == "span_flush") {
    M.Kind = MsgKind::SpanFlush;
    getStr(V, "worker", M.F.Worker, /*Required=*/false);
    const json::Value *Es = V.field("events");
    if (!Es || !Es->isArray())
      return Fail("span_flush without events array");
    for (const json::Value &E : Es->items()) {
      FlushedSpan S;
      if (!getStr(E, "n", S.Name))
        return Fail("span without name");
      S.Lane = getU64(E, "l");
      S.Seq = getU64(E, "s");
      std::string P;
      getStr(E, "p", P, /*Required=*/false);
      S.Phase = P.empty() ? 'B' : P[0];
      M.F.Events.push_back(std::move(S));
    }
  } else if (Tag == "req") {
    M.Kind = MsgKind::Request;
    M.Q.Id = getU64(V, "id");
    if (!getStr(V, "method", M.Q.Method))
      return Fail("req without method");
  } else if (Tag == "bye") {
    M.Kind = MsgKind::Bye;
  } else if (Tag == "error") {
    M.Kind = MsgKind::Error;
    getStr(V, "message", M.E.Message, /*Required=*/false);
  } else {
    return Fail("unknown message type");
  }
  Out = std::move(M);
  return true;
}
