//===- Protocol.cpp - Typed, versioned daemon protocol --------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "daemon/Protocol.h"

#include "support/Json.h"
#include "support/Util.h"

using namespace rcc;
using namespace rcc::daemon;

//===----------------------------------------------------------------------===//
// Rendering (fixed member order; one line, no trailing newline)
//===----------------------------------------------------------------------===//

std::string Hello::toLine() const {
  return "{\"rcc\": \"hello\", \"protocol_version\": " +
         std::to_string(Version) + ", \"role\": " + jsonQuote(Role) +
         ", \"name\": " + jsonQuote(Name) + "}";
}

std::string HelloAck::toLine() const {
  return "{\"rcc\": \"hello_ack\", \"protocol_version\": " +
         std::to_string(Version) + ", \"file\": " + jsonQuote(File) +
         std::string(", \"recheck\": ") + (Recheck ? "true" : "false") + "}";
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

/// Reads field \p Name as a whole number in [Min, Max]; false when it is
/// absent or anything else.
static bool getWhole(const json::Value &V, const char *Name, uint64_t Min,
                     uint64_t Max, uint64_t &Out) {
  const json::Value *F = V.field(Name);
  return F && F->asWhole(Min, Max, Out);
}

/// Reads `protocol_version` as a version in [1, 2^32).
static bool getVersion(const json::Value &V, unsigned &Out) {
  uint64_t N = 0;
  if (!getWhole(V, "protocol_version", 1, UINT32_MAX, N))
    return false;
  Out = static_cast<unsigned>(N);
  return true;
}

static bool getBool(const json::Value &V, const char *Name) {
  const json::Value *F = V.field(Name);
  return F && F->asBool();
}

bool daemon::parseMsg(const std::string &Line, Msg &Out, std::string *Err) {
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
    if (!getVersion(V, M.H.Version))
      return Fail("hello without a protocol_version in [1, 2^32)");
    if (!getStr(V, "role", M.H.Role))
      return Fail("hello without role");
    getStr(V, "name", M.H.Name, /*Required=*/false);
  } else if (Tag == "hello_ack") {
    M.Kind = MsgKind::HelloAck;
    if (!getVersion(V, M.A.Version))
      return Fail("hello_ack without a protocol_version in [1, 2^32)");
    if (!getStr(V, "file", M.A.File))
      return Fail("hello_ack without file");
    M.A.Recheck = getBool(V, "recheck");
  } else if (Tag == "req") {
    M.Kind = MsgKind::Request;
    if (!getWhole(V, "id", 0, kMaxRequestId, M.Q.Id))
      return Fail("req without an id in [0, 2^53]");
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
