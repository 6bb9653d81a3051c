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

static uint64_t getU64(const json::Value &V, const char *Name) {
  const json::Value *F = V.field(Name);
  return F && F->isNumber() ? static_cast<uint64_t>(F->asInt()) : 0;
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
    M.A.Recheck = getBool(V, "recheck");
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
