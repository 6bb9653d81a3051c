//===- Serialize.h - Binary (de)serialization of verification results -*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serialization layer of the persistent result store (DESIGN.md,
/// "Persistent verification store"): a versioned, length-framed binary
/// format for FnResult values, including their Derivation trees and the
/// pure terms those reference.
///
/// Design constraints, in order:
///
///  1. *Corruption is a miss, never a crash.* Every read is bounds-checked
///     against the remaining input; counts are validated against the bytes
///     that could possibly back them before any allocation; term references
///     must point at already-deserialized entries. A truncated or bit-
///     flipped payload makes `deserializeFnResult` return false.
///  2. *Hash-consing round-trips.* Terms are written as a deduplicated,
///     topologically ordered table (children strictly before parents) and
///     rebuilt through the process-wide TermArena, so a deserialized term is
///     pointer-equal to its live counterpart — the ProofChecker can replay
///     a loaded derivation exactly as a fresh one.
///  3. *Versioned.* `kFormatVersion` is bumped on any layout change; the
///     on-disk entry header (ResultStore.h) rejects other versions, so old
///     caches self-invalidate instead of being misparsed.
///
/// Integers are little-endian fixed-width; strings and payloads are length-
/// framed (u32 length, then bytes), mirroring the framing discipline of the
/// content hasher (support/Hash.h) so field boundaries cannot alias.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_STORE_SERIALIZE_H
#define RCC_STORE_SERIALIZE_H

#include "refinedc/Result.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace rcc::store {

/// Version of the serialized FnResult payload and of the entry envelope.
/// Bump on ANY change to either layout; a version mismatch is a miss.
constexpr uint32_t kFormatVersion = 4;

/// Append-only little-endian binary writer with length framing.
class BinaryWriter {
public:
  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }
  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Buf.push_back(static_cast<char>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Buf.push_back(static_cast<char>(V >> (8 * I)));
  }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void f64(double V);
  void str(std::string_view S) {
    u32(static_cast<uint32_t>(S.size()));
    Buf.append(S.data(), S.size());
  }
  void boolean(bool B) { u8(B ? 1 : 0); }

  const std::string &data() const { return Buf; }
  std::string take() { return std::move(Buf); }

private:
  std::string Buf;
};

/// Bounds-checked reader over an in-memory buffer. Every accessor returns
/// false (and latches the failure) instead of reading past the end; callers
/// may chain reads and test `ok()` once.
class BinaryReader {
public:
  explicit BinaryReader(std::string_view Data)
      : P(Data.data()), End(Data.data() + Data.size()) {}

  bool u8(uint8_t &V);
  bool u32(uint32_t &V);
  bool u64(uint64_t &V);
  bool i64(int64_t &V);
  bool f64(double &V);
  bool str(std::string &V);
  /// A length-framed string like `str`, borrowed from the buffer instead
  /// of copied.
  bool view(std::string_view &V);
  bool boolean(bool &V);

  bool ok() const { return !Failed; }
  bool atEnd() const { return P == End && !Failed; }
  size_t remaining() const { return static_cast<size_t>(End - P); }
  void fail() { Failed = true; }

private:
  bool take(size_t N, const char *&Out);
  const char *P;
  const char *End;
  bool Failed = false;
};

/// The content hash (support/Hash.h) of a byte buffer: the corruption
/// checksum of on-disk entries. The threat model is bit rot and truncation,
/// not an adversary — trust in loaded results comes from the ProofChecker
/// replay, not from this checksum (DESIGN.md, "Persistent verification
/// store").
uint64_t checksumBytes(std::string_view Data);

/// Serializes \p R (including its Derivation and all referenced terms)
/// into a self-contained payload for `deserializeFnResult`.
std::string serializeFnResult(const refinedc::FnResult &R);

/// Rebuilds an FnResult from \p Data. Returns false on any structural
/// problem (truncation, bad tags, dangling term references, trailing
/// bytes); \p Out is unspecified in that case. Terms are interned in the
/// process-wide arena.
bool deserializeFnResult(std::string_view Data, refinedc::FnResult &Out);

} // namespace rcc::store

#endif // RCC_STORE_SERIALIZE_H
