//===- Hash.h - Word-at-a-time content hashing ------------------*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 64-bit hash behind the result store's content keys (FnHash.h), its
/// entry checksums (Serialize.h) and the daemon's source-change check. It
/// is not cryptographic: a key only names a result that is replayed before
/// it is believed, and a checksum only catches bit rot and truncation
/// (DESIGN.md, "Persistent verification store").
///
//===----------------------------------------------------------------------===//

#ifndef RCC_SUPPORT_HASH_H
#define RCC_SUPPORT_HASH_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace rcc {

/// Incremental hash over heterogeneous fields, consumed 64 bits at a time.
/// An integer is one word; a string is its length, then its bytes as
/// little-endian words (the last one zero-padded). The length framing keeps
/// field boundaries from aliasing ("ab","c" vs "a","bc"). Each word is
/// folded in by a step that is a bijection of the state, so two inputs of
/// the same length that differ in a single word never collide; `get` ends
/// with a finalizer that spreads every input bit across the result.
class ContentHasher {
public:
  ContentHasher &mix(uint64_t V) {
    step(V);
    return *this;
  }
  ContentHasher &mix(std::string_view S) {
    mix(static_cast<uint64_t>(S.size()));
    const char *P = S.data();
    size_t N = S.size();
    for (; N >= 8; P += 8, N -= 8)
      step(load(P, 8));
    if (N)
      step(load(P, N));
    return *this;
  }
  uint64_t get() const {
    // MurmurHash3's 64-bit finalizer.
    uint64_t X = H;
    X ^= X >> 33;
    X *= 0xff51afd7ed558ccdull;
    X ^= X >> 33;
    X *= 0xc4ceb9fe1a85ec53ull;
    X ^= X >> 33;
    return X;
  }

private:
  /// Up to 8 bytes as a little-endian word, on any host.
  static uint64_t load(const char *P, size_t N) {
    uint64_t W = 0;
    std::memcpy(&W, P, N);
    if constexpr (std::endian::native == std::endian::big)
      W = __builtin_bswap64(W);
    return W;
  }
  void step(uint64_t W) {
    H = (H ^ W) * 0x9e3779b97f4a7c15ull;
    H ^= H >> 32;
  }
  uint64_t H = 14695981039346656037ull;
};

} // namespace rcc

#endif // RCC_SUPPORT_HASH_H
