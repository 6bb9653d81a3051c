//===- Json.h - Minimal JSON value model, parser, and writer ---*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small self-contained JSON library for the LSP transport (src/lsp):
/// JSON-RPC 2.0 request bodies are parsed into a Value tree, and responses
/// are built as Values and written back out. The parser is strict (it
/// rejects trailing garbage, unterminated strings, bad escapes, and
/// pathological nesting depth) because the bytes come from an external
/// editor process; the writer emits compact output with a stable member
/// order (insertion order), so rendered messages are deterministic.
///
/// This is deliberately *not* used for the daemon's JSON-lines events —
/// those are rendered from the typed daemon::Event model (src/daemon) with
/// a fixed layout that predates this parser and is grepped by tooling.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_SUPPORT_JSON_H
#define RCC_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rcc::json {

/// A JSON value: null, bool, number, string, array, or object. Objects keep
/// insertion order (member lookup is linear — LSP messages are small).
class Value {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  Value() = default;
  static Value null() { return Value(); }
  static Value boolean(bool B);
  static Value number(double N);
  static Value number(int64_t N) { return number(static_cast<double>(N)); }
  static Value str(std::string S);
  static Value array();
  static Value object();

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool(bool Default = false) const {
    return K == Kind::Bool ? B : Default;
  }
  double asNumber(double Default = 0.0) const {
    return K == Kind::Number ? Num : Default;
  }
  /// The number truncated toward zero, or \p Default when this is not a
  /// number or the number lies outside int64_t's range.
  int64_t asInt(int64_t Default = 0) const;
  /// Reads the number as a whole number in [\p Min, \p Max] into \p Out.
  /// False, with \p Out untouched, when this is not a number, has a
  /// fractional part or lies outside the range.
  bool asWhole(uint64_t Min, uint64_t Max, uint64_t &Out) const;
  /// Empty string when this is not a string value.
  const std::string &asString() const { return S; }

  /// Array elements (empty for non-arrays).
  const std::vector<Value> &items() const { return Arr; }
  void push(Value V) { Arr.push_back(std::move(V)); }

  /// Object member by key, or nullptr when absent / not an object.
  const Value *field(const std::string &Key) const;
  /// Convenience: nested lookup `field(A) -> field(B)`, nullptr anywhere
  /// along the way.
  const Value *field(const std::string &A, const std::string &B) const;
  void set(std::string Key, Value V);
  const std::vector<std::pair<std::string, Value>> &members() const {
    return Obj;
  }

  /// Compact rendering (no whitespace). Integral numbers print without a
  /// decimal point, so round-tripped JSON-RPC ids stay ids.
  std::string write() const;

private:
  Kind K = Kind::Null;
  bool B = false;
  double Num = 0.0;
  std::string S;
  std::vector<Value> Arr;
  std::vector<std::pair<std::string, Value>> Obj;
};

/// Parses \p Text as one JSON document. Returns false (and sets \p Err when
/// non-null) on any syntax error, including trailing non-whitespace.
bool parse(std::string_view Text, Value &Out, std::string *Err = nullptr);

} // namespace rcc::json

#endif // RCC_SUPPORT_JSON_H
