//===- Json.cpp -----------------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace rcc::json;

//===----------------------------------------------------------------------===//
// Construction and accessors
//===----------------------------------------------------------------------===//

Value Value::boolean(bool B) {
  Value V;
  V.K = Kind::Bool;
  V.B = B;
  return V;
}

Value Value::number(double N) {
  Value V;
  V.K = Kind::Number;
  V.Num = N;
  return V;
}

Value Value::str(std::string S) {
  Value V;
  V.K = Kind::String;
  V.S = std::move(S);
  return V;
}

Value Value::array() {
  Value V;
  V.K = Kind::Array;
  return V;
}

Value Value::object() {
  Value V;
  V.K = Kind::Object;
  return V;
}

int64_t Value::asInt(int64_t Default) const {
  if (K != Kind::Number)
    return Default;
  // int64_t holds [-2^63, 2^63): 2^63 itself, the smallest double above
  // INT64_MAX, must not reach the conversion.
  if (!(Num >= -0x1p63 && Num < 0x1p63))
    return Default;
  return static_cast<int64_t>(Num);
}

bool Value::asWhole(uint64_t Min, uint64_t Max, uint64_t &Out) const {
  // Only a whole double in [0, 2^64) reaches the conversion; NaN fails
  // every comparison.
  if (K != Kind::Number || !(Num >= 0 && Num < 0x1p64) ||
      Num != std::floor(Num))
    return false;
  const uint64_t N = static_cast<uint64_t>(Num);
  if (N < Min || N > Max)
    return false;
  Out = N;
  return true;
}

const Value *Value::field(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[MK, MV] : Obj)
    if (MK == Key)
      return &MV;
  return nullptr;
}

const Value *Value::field(const std::string &A, const std::string &B) const {
  const Value *Inner = field(A);
  return Inner ? Inner->field(B) : nullptr;
}

void Value::set(std::string Key, Value V) {
  for (auto &[MK, MV] : Obj) {
    if (MK == Key) {
      MV = std::move(V);
      return;
    }
  }
  Obj.emplace_back(std::move(Key), std::move(V));
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

static void writeString(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

static void writeValue(std::string &Out, const Value &V) {
  switch (V.kind()) {
  case Value::Kind::Null:
    Out += "null";
    return;
  case Value::Kind::Bool:
    Out += V.asBool() ? "true" : "false";
    return;
  case Value::Kind::Number: {
    double N = V.asNumber();
    char Buf[40];
    // Integral values (JSON-RPC ids, line numbers) print as integers.
    if (std::isfinite(N) && N == std::floor(N) && N >= -9.007199254740992e15 &&
        N <= 9.007199254740992e15)
      snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(N));
    else if (std::isfinite(N))
      snprintf(Buf, sizeof(Buf), "%.17g", N);
    else
      snprintf(Buf, sizeof(Buf), "null"); // JSON has no Inf/NaN
    Out += Buf;
    return;
  }
  case Value::Kind::String:
    writeString(Out, V.asString());
    return;
  case Value::Kind::Array: {
    Out += '[';
    bool First = true;
    for (const Value &E : V.items()) {
      if (!First)
        Out += ',';
      First = false;
      writeValue(Out, E);
    }
    Out += ']';
    return;
  }
  case Value::Kind::Object: {
    Out += '{';
    bool First = true;
    for (const auto &[K, MV] : V.members()) {
      if (!First)
        Out += ',';
      First = false;
      writeString(Out, K);
      Out += ':';
      writeValue(Out, MV);
    }
    Out += '}';
    return;
  }
  }
}

std::string Value::write() const {
  std::string Out;
  writeValue(Out, *this);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

/// Recursive-descent parser with an explicit nesting-depth cap: the input
/// comes from an external process, so a 10 MB string of '[' characters must
/// fail cleanly instead of overflowing the C++ stack.
struct ParseState {
  std::string_view Src;
  size_t Pos = 0;
  std::string Err;
  static constexpr int kMaxDepth = 128;

  bool fail(const std::string &Msg) {
    if (Err.empty())
      Err = Msg + " at offset " + std::to_string(Pos);
    return false;
  }

  char peek() const { return Pos < Src.size() ? Src[Pos] : '\0'; }
  bool atEnd() const { return Pos >= Src.size(); }

  void skipWs() {
    while (Pos < Src.size()) {
      char C = Src[Pos];
      if (C == ' ' || C == '\t' || C == '\n' || C == '\r')
        ++Pos;
      else
        break;
    }
  }

  bool literal(const char *Lit) {
    size_t N = 0;
    while (Lit[N])
      ++N;
    if (Src.compare(Pos, N, Lit) != 0)
      return fail(std::string("expected '") + Lit + "'");
    Pos += N;
    return true;
  }

  /// Appends \p Cp as UTF-8.
  void appendUtf8(std::string &Out, uint32_t Cp) {
    if (Cp < 0x80) {
      Out += static_cast<char>(Cp);
    } else if (Cp < 0x800) {
      Out += static_cast<char>(0xC0 | (Cp >> 6));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    } else if (Cp < 0x10000) {
      Out += static_cast<char>(0xE0 | (Cp >> 12));
      Out += static_cast<char>(0x80 | ((Cp >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    } else {
      Out += static_cast<char>(0xF0 | (Cp >> 18));
      Out += static_cast<char>(0x80 | ((Cp >> 12) & 0x3F));
      Out += static_cast<char>(0x80 | ((Cp >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    }
  }

  bool hex4(uint32_t &Out) {
    Out = 0;
    for (int I = 0; I < 4; ++I) {
      if (atEnd())
        return fail("truncated \\u escape");
      char C = Src[Pos++];
      uint32_t D;
      if (C >= '0' && C <= '9')
        D = static_cast<uint32_t>(C - '0');
      else if (C >= 'a' && C <= 'f')
        D = static_cast<uint32_t>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        D = static_cast<uint32_t>(C - 'A' + 10);
      else
        return fail("bad \\u escape digit");
      Out = Out * 16 + D;
    }
    return true;
  }

  bool parseString(std::string &Out) {
    if (peek() != '"')
      return fail("expected string");
    ++Pos;
    Out.clear();
    while (true) {
      if (atEnd())
        return fail("unterminated string");
      char C = Src[Pos++];
      if (C == '"')
        return true;
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("raw control character in string");
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (atEnd())
        return fail("truncated escape");
      char E = Src[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        uint32_t Cp;
        if (!hex4(Cp))
          return false;
        // Surrogate pair: a high surrogate must be followed by \uDC00..DFFF.
        if (Cp >= 0xD800 && Cp <= 0xDBFF) {
          if (Src.compare(Pos, 2, "\\u") == 0) {
            Pos += 2;
            uint32_t Lo;
            if (!hex4(Lo))
              return false;
            if (Lo < 0xDC00 || Lo > 0xDFFF)
              return fail("unpaired surrogate");
            Cp = 0x10000 + ((Cp - 0xD800) << 10) + (Lo - 0xDC00);
          } else {
            return fail("unpaired surrogate");
          }
        } else if (Cp >= 0xDC00 && Cp <= 0xDFFF) {
          return fail("unpaired surrogate");
        }
        appendUtf8(Out, Cp);
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
  }

  bool parseNumber(Value &Out) {
    size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    if (!isdigit(static_cast<unsigned char>(peek())))
      return fail("bad number");
    while (isdigit(static_cast<unsigned char>(peek())))
      ++Pos;
    if (peek() == '.') {
      ++Pos;
      if (!isdigit(static_cast<unsigned char>(peek())))
        return fail("bad number");
      while (isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++Pos;
      if (peek() == '+' || peek() == '-')
        ++Pos;
      if (!isdigit(static_cast<unsigned char>(peek())))
        return fail("bad number");
      while (isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    }
    std::string Text(Src.substr(Start, Pos - Start));
    Out = Value::number(strtod(Text.c_str(), nullptr));
    return true;
  }

  bool parseValue(Value &Out, int Depth) {
    if (Depth > kMaxDepth)
      return fail("nesting too deep");
    skipWs();
    if (atEnd())
      return fail("unexpected end of input");
    char C = peek();
    if (C == 'n') {
      if (!literal("null"))
        return false;
      Out = Value::null();
      return true;
    }
    if (C == 't') {
      if (!literal("true"))
        return false;
      Out = Value::boolean(true);
      return true;
    }
    if (C == 'f') {
      if (!literal("false"))
        return false;
      Out = Value::boolean(false);
      return true;
    }
    if (C == '"') {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Value::str(std::move(S));
      return true;
    }
    if (C == '[') {
      ++Pos;
      Out = Value::array();
      skipWs();
      if (peek() == ']') {
        ++Pos;
        return true;
      }
      while (true) {
        Value E;
        if (!parseValue(E, Depth + 1))
          return false;
        Out.push(std::move(E));
        skipWs();
        if (peek() == ',') {
          ++Pos;
          continue;
        }
        if (peek() == ']') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (C == '{') {
      ++Pos;
      Out = Value::object();
      skipWs();
      if (peek() == '}') {
        ++Pos;
        return true;
      }
      while (true) {
        skipWs();
        std::string Key;
        if (!parseString(Key))
          return false;
        skipWs();
        if (peek() != ':')
          return fail("expected ':'");
        ++Pos;
        Value MV;
        if (!parseValue(MV, Depth + 1))
          return false;
        Out.set(std::move(Key), std::move(MV));
        skipWs();
        if (peek() == ',') {
          ++Pos;
          continue;
        }
        if (peek() == '}') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (C == '-' || isdigit(static_cast<unsigned char>(C)))
      return parseNumber(Out);
    return fail("unexpected character");
  }
};

} // namespace

bool rcc::json::parse(std::string_view Text, Value &Out, std::string *Err) {
  ParseState P{Text};
  if (!P.parseValue(Out, 0)) {
    if (Err)
      *Err = P.Err;
    return false;
  }
  P.skipWs();
  if (!P.atEnd()) {
    P.fail("trailing characters");
    if (Err)
      *Err = P.Err;
    return false;
  }
  return true;
}
