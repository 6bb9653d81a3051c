//===- ProtocolTest.cpp - Protocol v2 wire contracts ----------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire contracts of protocol v2 (DESIGN.md, "Protocol v2"):
/// every typed message round-trips through toLine/parseMsg, malformed
/// input is rejected (never guessed at), and daemon events round-trip
/// through toJsonLine behind the `{"v": 2, "id": N, ...}` envelope, whose
/// bytes are pinned.
///
//===----------------------------------------------------------------------===//

#include "daemon/Event.h"
#include "daemon/Protocol.h"

#include <gtest/gtest.h>

using namespace rcc;
using namespace rcc::daemon;

namespace {

/// Parses \p Line expecting success and the given kind.
Msg parseOk(const std::string &Line, MsgKind Kind) {
  Msg M;
  std::string Err;
  EXPECT_TRUE(parseMsg(Line, M, &Err)) << Line << " -- " << Err;
  EXPECT_EQ(static_cast<int>(M.Kind), static_cast<int>(Kind)) << Line;
  return M;
}

TEST(Protocol, HelloRoundTrip) {
  Hello H;
  H.Version = 2;
  H.Role = "client";
  H.Name = "c-\"quoted\"";
  Msg M = parseOk(H.toLine(), MsgKind::Hello);
  EXPECT_EQ(M.H.Version, 2u);
  EXPECT_EQ(M.H.Role, "client");
  EXPECT_EQ(M.H.Name, "c-\"quoted\"");
}

TEST(Protocol, HelloAckRoundTrip) {
  HelloAck A;
  A.File = "/tmp/a b.c";
  A.Recheck = true;
  EXPECT_EQ(A.toLine(), "{\"rcc\": \"hello_ack\", \"protocol_version\": 2, "
                        "\"file\": \"/tmp/a b.c\", \"recheck\": true}");
  Msg M = parseOk(A.toLine(), MsgKind::HelloAck);
  EXPECT_EQ(M.A.Version, kProtocolVersion);
  EXPECT_EQ(M.A.File, "/tmp/a b.c");
  EXPECT_TRUE(M.A.Recheck);
}

TEST(Protocol, RequestByeErrorRoundTrip) {
  Request Q;
  Q.Id = 7;
  Q.Method = "check";
  Msg M = parseOk(Q.toLine(), MsgKind::Request);
  EXPECT_EQ(M.Q.Id, 7u);
  EXPECT_EQ(M.Q.Method, "check");

  parseOk(Bye{}.toLine(), MsgKind::Bye);

  ErrorMsg E{"it broke"};
  Msg ME = parseOk(E.toLine(), MsgKind::Error);
  EXPECT_EQ(ME.E.Message, "it broke");
}

/// A `req` line with \p Id as its id.
std::string reqWithId(const std::string &Id) {
  return "{\"rcc\": \"req\", \"id\": " + Id + ", \"method\": \"check\"}";
}

/// A `hello` line with \p Version as its protocol_version.
std::string helloWithVersion(const std::string &Version) {
  return "{\"rcc\": \"hello\", \"protocol_version\": " + Version +
         ", \"role\": \"client\"}";
}

TEST(Protocol, RequestIdMustBeAWholeNumberUpTo2Pow53) {
  // Each of these used to be narrowed into some other id: 2^63 read as 0,
  // -1 as 2^64 - 1, and 1.5 as 1, so the reply went to a different id.
  Msg M;
  std::string Err;
  for (const char *Id : {"9223372036854775808", "-1", "1.5", "9007199254740994",
                         "1e300", "\"7\"", "null"}) {
    EXPECT_FALSE(parseMsg(reqWithId(Id), M, &Err)) << Id;
    EXPECT_NE(Err.find("id"), std::string::npos) << Err;
  }
  // Whole numbers in [0, 2^53] are ids, 1.0 among them.
  EXPECT_EQ(parseOk(reqWithId("0"), MsgKind::Request).Q.Id, 0u);
  EXPECT_EQ(parseOk(reqWithId("1.0"), MsgKind::Request).Q.Id, 1u);
  EXPECT_EQ(parseOk(reqWithId("9007199254740992"), MsgKind::Request).Q.Id,
            kMaxRequestId);
}

TEST(Protocol, HelloVersionMustFitIn32Bits) {
  // 4294967298 used to be cast to unsigned and read as version 2.
  Msg M;
  for (const char *V : {"4294967298", "4294967296", "0", "-2", "2.5"})
    EXPECT_FALSE(parseMsg(helloWithVersion(V), M)) << V;
  EXPECT_EQ(parseOk(helloWithVersion("4294967295"), MsgKind::Hello).H.Version,
            4294967295u);
  EXPECT_EQ(parseOk(helloWithVersion("2"), MsgKind::Hello).H.Version, 2u);
}

TEST(Protocol, MalformedInputRejected) {
  Msg M;
  // Not JSON / not an object / not v2.
  EXPECT_FALSE(parseMsg("", M));
  EXPECT_FALSE(parseMsg("check", M));
  EXPECT_FALSE(parseMsg("{\"rcc\": \"hello\"", M)); // truncated
  EXPECT_FALSE(parseMsg("[1, 2]", M));
  EXPECT_FALSE(parseMsg("{\"event\": \"status\"}", M)); // v1 event line
  // Right tag, missing mandatory fields.
  EXPECT_FALSE(parseMsg("{\"rcc\": \"hello\", \"role\": \"client\"}", M));
  EXPECT_FALSE(parseMsg("{\"rcc\": \"hello_ack\"}", M));
  EXPECT_FALSE(parseMsg("{\"rcc\": \"req\", \"id\": 3}", M));
  EXPECT_FALSE(parseMsg("{\"rcc\": \"req\", \"method\": \"status\"}", M));
  // Unknown types; pull, jobs, job_result and span_flush are not messages
  // of this protocol.
  EXPECT_FALSE(parseMsg("{\"rcc\": \"warp\"}", M));
  EXPECT_FALSE(parseMsg("{\"rcc\": \"pull\", \"capacity\": 1}", M));
  EXPECT_FALSE(
      parseMsg("{\"rcc\": \"jobs\", \"seq\": 1, \"fns\": [\"f\"]}", M));
  EXPECT_FALSE(parseMsg("{\"rcc\": \"job_result\", \"fn\": \"f\"}", M));
  EXPECT_FALSE(
      parseMsg("{\"rcc\": \"span_flush\", \"worker\": \"w\", \"events\": []}",
               M));
}

//===--------------------------------------------------------------------===//
// Daemon event round-trips
//===--------------------------------------------------------------------===//

using daemon::Event;
using daemon::EventKind;

TEST(EventWire, RevisionRoundTrip) {
  Event E;
  E.Kind = EventKind::Revision;
  E.Rev = 4;
  E.File = "demo.c";
  Event R;
  ASSERT_TRUE(Event::fromJsonLine(E.toJsonLine(0), R));
  EXPECT_EQ(static_cast<int>(R.Kind), static_cast<int>(EventKind::Revision));
  EXPECT_EQ(R.Rev, 4u);
  EXPECT_EQ(R.File, "demo.c");
}

TEST(EventWire, DiagnosticRoundTrip) {
  Event E;
  E.Kind = EventKind::Diagnostic;
  E.Rev = 2;
  E.File = "demo.c";
  E.Verified = false;
  E.Cached = true;
  E.Diag.Fn = "arena_alloc";
  E.Diag.Message = "side condition failed";
  E.Diag.Loc = {10, 3};
  E.WallMs = 1.25;
  Event R;
  ASSERT_TRUE(Event::fromJsonLine(E.toJsonLine(0), R));
  EXPECT_EQ(static_cast<int>(R.Kind),
            static_cast<int>(EventKind::Diagnostic));
  EXPECT_FALSE(R.Verified);
  EXPECT_TRUE(R.Cached);
  EXPECT_EQ(R.Diag.Fn, "arena_alloc");
  EXPECT_EQ(R.Diag.Message, "side condition failed");
  EXPECT_EQ(R.Diag.Loc.Line, 10u);
  EXPECT_EQ(R.Diag.Loc.Col, 3u);
  EXPECT_DOUBLE_EQ(R.WallMs, 1.25);
}

TEST(EventWire, RevisionDoneRoundTrip) {
  Event E;
  E.Kind = EventKind::RevisionDone;
  E.Rev = 9;
  E.File = "demo.c";
  E.Functions = 12;
  E.Reverified = 3;
  E.CachedFns = 9;
  E.L1Hits = 5;
  E.L2Hits = 4;
  E.Replayed = 4;
  E.Failed = 1;
  E.AllVerified = false;
  Event R;
  ASSERT_TRUE(Event::fromJsonLine(E.toJsonLine(0), R));
  EXPECT_EQ(R.Functions, 12u);
  EXPECT_EQ(R.Reverified, 3u);
  EXPECT_EQ(R.CachedFns, 9u);
  EXPECT_EQ(R.L1Hits, 5u);
  EXPECT_EQ(R.L2Hits, 4u);
  EXPECT_EQ(R.Replayed, 4u);
  EXPECT_EQ(R.Failed, 1u);
  EXPECT_FALSE(R.AllVerified);
}

TEST(EventWire, RemainingKindsRoundTrip) {
  Event E;
  E.Kind = EventKind::Unchanged;
  E.Rev = 1;
  E.File = "a.c";
  E.AllVerified = true;
  Event R;
  ASSERT_TRUE(Event::fromJsonLine(E.toJsonLine(0), R));
  EXPECT_EQ(static_cast<int>(R.Kind), static_cast<int>(EventKind::Unchanged));
  EXPECT_TRUE(R.AllVerified);

  E = Event();
  E.Kind = EventKind::Status;
  E.Functions = 7;
  ASSERT_TRUE(Event::fromJsonLine(E.toJsonLine(0), R));
  EXPECT_EQ(static_cast<int>(R.Kind), static_cast<int>(EventKind::Status));
  EXPECT_EQ(R.Functions, 7u);

  E = Event();
  E.Kind = EventKind::Error;
  E.Diag.Message = "parse error";
  E.Diag.Loc = {3, 1};
  ASSERT_TRUE(Event::fromJsonLine(E.toJsonLine(0), R));
  EXPECT_EQ(static_cast<int>(R.Kind), static_cast<int>(EventKind::Error));
  EXPECT_EQ(R.Diag.Message, "parse error");
  EXPECT_EQ(R.Diag.Loc.Line, 3u);

  E = Event();
  E.Kind = EventKind::Gc;
  E.BytesBefore = 1000;
  E.BytesAfter = 400;
  E.Evicted = 6;
  E.MaxBytes = 512;
  ASSERT_TRUE(Event::fromJsonLine(E.toJsonLine(0), R));
  EXPECT_EQ(static_cast<int>(R.Kind), static_cast<int>(EventKind::Gc));
  EXPECT_EQ(R.BytesBefore, 1000u);
  EXPECT_EQ(R.BytesAfter, 400u);
  EXPECT_EQ(R.Evicted, 6u);
  EXPECT_EQ(R.MaxBytes, 512u);

  E = Event();
  E.Kind = EventKind::Shutdown;
  E.Rev = 3;
  ASSERT_TRUE(Event::fromJsonLine(E.toJsonLine(0), R));
  EXPECT_EQ(static_cast<int>(R.Kind), static_cast<int>(EventKind::Shutdown));
  EXPECT_EQ(R.Rev, 3u);
}

TEST(EventWire, EnvelopeCarriesTheRequestId) {
  Event E;
  E.Kind = EventKind::Status;
  E.Rev = 5;
  E.File = "demo.c";
  E.Functions = 3;
  E.AllVerified = true;

  std::string Line = E.toJsonLine(77);
  EXPECT_EQ(Line, "{\"v\": 2, \"id\": 77, \"event\": \"status\", \"rev\": 5, "
                  "\"file\": \"demo.c\", \"functions\": 3, "
                  "\"all_verified\": true}");

  Event R;
  uint64_t ReqId = 0;
  ASSERT_TRUE(Event::fromJsonLine(Line, R, &ReqId));
  EXPECT_EQ(ReqId, 77u);
  EXPECT_EQ(static_cast<int>(R.Kind), static_cast<int>(EventKind::Status));
  EXPECT_EQ(R.Rev, 5u);
  EXPECT_EQ(R.Functions, 3u);
  EXPECT_TRUE(R.AllVerified);

  // Events no request asked for carry id 0.
  ReqId = 99;
  ASSERT_TRUE(Event::fromJsonLine(E.toJsonLine(0), R, &ReqId));
  EXPECT_EQ(ReqId, 0u);

  // The largest id a req may carry comes back whole.
  ASSERT_TRUE(Event::fromJsonLine(E.toJsonLine(kMaxRequestId), R, &ReqId));
  EXPECT_EQ(ReqId, kMaxRequestId);
}

/// A line of event \p Kind carrying \p Fields (already rendered, without
/// the surrounding braces) after its envelope.
static std::string eventLine(const std::string &Kind,
                             const std::string &Fields) {
  return "{\"v\": 2, \"id\": 0, \"event\": \"" + Kind + "\", " + Fields +
         "}";
}

TEST(EventWire, UnsignedFieldsRejectWhatTheyCannotHold) {
  // Every `unsigned` field of every kind, with the fields its kind needs
  // around it; "%" marks the value under test.
  const std::pair<const char *, const char *> Fields[] = {
      {"revision", "\"rev\": %, \"file\": \"a.c\""},
      {"revision_done", "\"rev\": %"},
      {"revision_done", "\"functions\": %"},
      {"revision_done", "\"reverified\": %"},
      {"revision_done", "\"cached\": %"},
      {"revision_done", "\"l1_hits\": %"},
      {"revision_done", "\"l2_hits\": %"},
      {"revision_done", "\"replayed\": %"},
      {"revision_done", "\"failed\": %"},
      {"status", "\"functions\": %"},
      {"diagnostic",
       "\"fn\": \"f\", \"error\": \"e\", \"line\": %, \"col\": 1"},
      {"diagnostic",
       "\"fn\": \"f\", \"error\": \"e\", \"line\": 1, \"col\": %"},
      {"diagnostic", "\"fn\": \"f\", \"error\": \"e\", \"diagnostic\": "
                     "{\"line\": %, \"col\": 1, \"message\": \"e\"}"},
      {"diagnostic", "\"fn\": \"f\", \"error\": \"e\", \"diagnostic\": "
                     "{\"line\": 1, \"col\": %, \"message\": \"e\"}"},
      {"diagnostic", "\"fn\": \"f\", \"error\": \"e\", \"diagnostic\": "
                     "{\"line\": 1, \"col\": 1, \"end_line\": %, "
                     "\"end_col\": 1, \"message\": \"e\"}"},
      {"diagnostic", "\"fn\": \"f\", \"error\": \"e\", \"diagnostic\": "
                     "{\"line\": 1, \"col\": 1, \"end_line\": 1, "
                     "\"end_col\": %, \"message\": \"e\"}"},
      {"error", "\"message\": \"m\", \"line\": %, \"col\": 1"},
      {"error", "\"message\": \"m\", \"line\": 1, \"col\": %"},
      {"shutdown", "\"rev\": %"},
  };
  auto with = [](std::string Fmt, const std::string &Value) {
    Fmt.replace(Fmt.find('%'), 1, Value);
    return Fmt;
  };
  Event R;
  for (const auto &[Kind, Fmt] : Fields) {
    // The largest value an unsigned holds is accepted.
    EXPECT_TRUE(
        Event::fromJsonLine(eventLine(Kind, with(Fmt, "4294967295")), R))
        << Kind << ": " << Fmt;
    // 2^32 + 2 used to read as 2, -1 as 4294967295 and 2.9 as 2.
    for (const char *Bad : {"4294967296", "4294967298", "-1", "2.9", "1e300",
                            "\"3\"", "null"})
      EXPECT_FALSE(Event::fromJsonLine(eventLine(Kind, with(Fmt, Bad)), R))
          << Kind << ": " << Fmt << " with " << Bad;
  }
}

TEST(EventWire, GcByteCountsRejectWhatADoubleCannotCarry) {
  const char *Fields[] = {"bytes_before", "bytes_after", "evicted",
                          "max_bytes"};
  Event R;
  for (const char *F : Fields) {
    std::string Key = "\"" + std::string(F) + "\": ";
    // 2^53 is the largest count a double carries exactly.
    ASSERT_TRUE(
        Event::fromJsonLine(eventLine("gc", Key + "9007199254740992"), R))
        << F;
    EXPECT_EQ(R.BytesBefore + R.BytesAfter + R.Evicted + R.MaxBytes,
              uint64_t(1) << 53)
        << F;
    for (const char *Bad :
         {"9007199254740994", "18446744073709551616", "-1", "2.9", "\"3\""})
      EXPECT_FALSE(Event::fromJsonLine(eventLine("gc", Key + Bad), R))
          << F << " with " << Bad;
  }
}

TEST(EventWire, GarbageRejected) {
  Event R;
  EXPECT_FALSE(Event::fromJsonLine("", R));
  EXPECT_FALSE(Event::fromJsonLine("not json", R));
  // No envelope, a foreign version, or no id.
  EXPECT_FALSE(Event::fromJsonLine("{\"event\": \"status\", \"rev\": 1}", R));
  EXPECT_FALSE(Event::fromJsonLine(
      "{\"v\": 1, \"id\": 0, \"event\": \"status\", \"rev\": 1}", R));
  EXPECT_FALSE(
      Event::fromJsonLine("{\"v\": 2, \"event\": \"status\", \"rev\": 1}", R));
  // A version or id that is no whole number in range, read by the rule a
  // req's id follows.
  for (const char *Envelope :
       {"\"v\": 2.5, \"id\": 0", "\"v\": 4294967298, \"id\": 0",
        "\"v\": 2, \"id\": -1", "\"v\": 2, \"id\": 1.5",
        "\"v\": 2, \"id\": 9223372036854775808"})
    EXPECT_FALSE(Event::fromJsonLine(
        "{" + std::string(Envelope) + ", \"event\": \"shutdown\"}", R))
        << Envelope;
  // Inside the envelope: no event name, an unknown one, a missing field.
  EXPECT_FALSE(Event::fromJsonLine("{\"v\": 2, \"id\": 0, \"rev\": 1}", R));
  EXPECT_FALSE(Event::fromJsonLine(
      "{\"v\": 2, \"id\": 0, \"event\": \"warp\", \"rev\": 1}", R));
  EXPECT_FALSE(Event::fromJsonLine(
      "{\"v\": 2, \"id\": 0, \"event\": \"error\"}", R)); // no message
}

} // namespace
