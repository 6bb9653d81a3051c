//===- Protocol.h - Typed, versioned daemon protocol -----------*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Protocol v2: the typed, versioned message schema that the verification
/// daemon and its thin clients (`verify_tool --connect`) speak (DESIGN.md,
/// "Protocol v2"). Every message is one JSON line tagged
/// `"rcc": "<type>"`, and every connection opens with a `hello` carrying
/// `protocol_version`:
///
///   client                     daemon
///     | -- hello{v,role,name} --> |   version check; reject on mismatch
///     | <-- hello_ack{file,...} --|   first watched file, recheck setting
///     | -- req{id,method} ------> |   check / status / shutdown
///     | <-- events{v,id,...} -----|   daemon::Event::toJsonLine
///     | -- bye ------------------> |
///
/// Events ride behind the `{"v": 2, "id": N, ...}` envelope; a line that
/// is not a message of this schema is answered with an `error`.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_DAEMON_PROTOCOL_H
#define RCC_DAEMON_PROTOCOL_H

#include <cstdint>
#include <string>

namespace rcc::daemon {

/// The protocol generation this build speaks. A hello carrying a different
/// major version is rejected with an `error` message and the connection is
/// closed.
inline constexpr unsigned kProtocolVersion = 2;

/// The largest request id. Ids are JSON numbers, and a double holds every
/// whole number up to 2^53 exactly.
inline constexpr uint64_t kMaxRequestId = uint64_t(1) << 53;

enum class MsgKind : uint8_t {
  Hello,    ///< version/role handshake (first line on every connection)
  HelloAck, ///< daemon -> client: the handshake's answer
  Request,  ///< client -> daemon: id-correlated check/status/shutdown
  Bye,      ///< orderly goodbye
  Error,    ///< protocol-level failure (bad version, malformed message)
};

struct Hello {
  unsigned Version = kProtocolVersion;
  std::string Role; ///< "client"
  std::string Name; ///< display name for logs ("" = anonymous)
  std::string toLine() const;
};

struct HelloAck {
  unsigned Version = kProtocolVersion;
  std::string File;    ///< the daemon's first watched file
  bool Recheck = true; ///< whether the daemon replays derivations
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
  Request Q;
  ErrorMsg E;
};

/// Parses one protocol line. Returns false (with \p Err set when non-null)
/// for anything that is not a well-formed message of this schema, bare
/// words and event lines included. A `protocol_version` must be a whole
/// number in [1, 2^32) and a `req` id one in [0, kMaxRequestId]; any other
/// value is rejected, never narrowed.
bool parseMsg(const std::string &Line, Msg &Out, std::string *Err = nullptr);

} // namespace rcc::daemon

#endif // RCC_DAEMON_PROTOCOL_H
