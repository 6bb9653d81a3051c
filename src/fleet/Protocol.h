//===- Protocol.h - Typed, versioned fleet/daemon protocol -----*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Protocol v2: the typed, versioned message schema shared by the
/// verification daemon, the fleet coordinator (`verifyd --serve`), fleet
/// workers (`verifyd --worker`), and thin clients (DESIGN.md, "Fleet &
/// protocol v2"). Every message is one JSON line tagged `"rcc": "<type>"`,
/// and every connection opens with a `hello` carrying `protocol_version`.
/// It is the only protocol: a daemon client sends `req` messages after its
/// hello and receives daemon events (daemon::Event::toJsonLine) behind the
/// `{"v": 2, "id": N, ...}` envelope; a line that is not a message of this
/// schema is answered with an `error`.
///
/// Message flow of a fleet run (work-stealing pull semantics):
///
///   worker                     coordinator
///     | -- hello{v,role,name} --> |   version check; reject on mismatch
///     | <-- hello_ack{file,...} --|   job source + store topology
///     | -- pull{capacity} ------> |   idle worker asks for work
///     | <-- jobs{seq,fns,done} ---|   bounded batch (backpressure window)
///     | -- job_result{fn,...} --> |   per function, as soon as it finishes
///     | -- span_flush{events} --> |   streamed trace spans (lossless mode)
///     | -- pull ... -------------> |   steal more; done=true drains worker
///     | -- bye ------------------> |
///
/// Derivations never ride on the protocol: workers publish full results
/// (with derivations) into the shared L3 artifact store, and the
/// coordinator re-probes L3 and replays every derivation through the
/// independent ProofChecker before trusting it — job_result is a *hint*,
/// never a proof.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_FLEET_PROTOCOL_H
#define RCC_FLEET_PROTOCOL_H

#include <cstdint>
#include <string>
#include <vector>

namespace rcc::fleet {

/// The protocol generation this build speaks. A hello carrying a different
/// major version is rejected with an `error` message and the connection is
/// closed; the sender is expected to degrade (workers exit, the fleet
/// re-verifies locally).
inline constexpr unsigned kProtocolVersion = 2;

enum class MsgKind : uint8_t {
  Hello,     ///< version/role handshake (first line on every connection)
  HelloAck,  ///< coordinator -> worker: job source and store topology
  Pull,      ///< worker -> coordinator: request up to `capacity` jobs
  Jobs,      ///< coordinator -> worker: a batch of function names
  JobResult, ///< worker -> coordinator: one function finished
  SpanFlush, ///< worker -> coordinator: flushed trace spans
  Request,   ///< client -> daemon: id-correlated check/status/shutdown
  Bye,       ///< orderly goodbye
  Error,     ///< protocol-level failure (bad version, malformed message)
};

struct Hello {
  unsigned Version = kProtocolVersion;
  std::string Role; ///< "worker" or "client"
  std::string Name; ///< display name for logs/metrics ("" = anonymous)
  std::string toLine() const;
};

struct HelloAck {
  unsigned Version = kProtocolVersion;
  std::string File;      ///< source file the worker must compile itself
  std::string SharedDir; ///< the shared L3 artifact directory
  bool Recheck = true;   ///< session recheck setting (hash-folded)
  std::string Portfolio; ///< "on" / "off" (hash-folded)
  unsigned Window = 0;   ///< max jobs in flight per worker (backpressure)
  std::string toLine() const;
};

struct Pull {
  unsigned Capacity = 1;
  std::string toLine() const;
};

struct Jobs {
  uint64_t Seq = 0; ///< batch sequence number (monotonic per connection)
  std::vector<std::string> Fns;
  bool Done = false; ///< no more work will ever come; drain and exit
  std::string toLine() const;
};

struct JobResult {
  std::string Fn;
  bool Verified = false;
  bool Cached = false; ///< served from a store tier on the worker
  double WallMs = 0.0;
  std::string toLine() const;
};

/// One flushed trace span/event, the minimal schedule-independent core of
/// trace::Event (timestamps are worker-local and deliberately dropped).
struct FlushedSpan {
  std::string Name;
  uint64_t Lane = 0;
  uint64_t Seq = 0;
  char Phase = 'B';
};

struct SpanFlush {
  std::string Worker; ///< Hello::Name of the sender
  std::vector<FlushedSpan> Events;
  std::string toLine() const;
};

/// A daemon request (`{"rcc": "req", "id": N, "method": "check"}`). Its
/// reply events carry this id on the requester's copy
/// (daemon::Event::toJsonLine).
struct Request {
  uint64_t Id = 0;
  std::string Method; ///< "check" / "status" / "shutdown"
  std::string toLine() const;
};

struct Bye {
  std::string toLine() const;
};

struct ErrorMsg {
  std::string Message;
  std::string toLine() const;
};

/// One parsed protocol message. Only the member matching Kind is
/// meaningful; parseMsg fills it.
struct Msg {
  MsgKind Kind = MsgKind::Error;
  Hello H;
  HelloAck A;
  Pull P;
  Jobs J;
  JobResult R;
  SpanFlush F;
  Request Q;
  ErrorMsg E;
};

/// Parses one protocol line. Returns false (with \p Err set when non-null)
/// for anything that is not a well-formed message of this schema, bare
/// words and event lines included.
bool parseMsg(const std::string &Line, Msg &Out, std::string *Err = nullptr);

} // namespace rcc::fleet

#endif // RCC_FLEET_PROTOCOL_H
