//===- Generator.h - Seeded benchmark inputs with known answers -*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inputs of the repository benchmark. Every input carries its expected
/// verdicts, which come from how it was generated and never from the
/// verifier, so every pass the benchmark times is also checked against them.
///
///  - The Figure-7 corpus: the twelve case studies, in an order the seed
///    permutes. Every function must verify and re-check.
///  - The monorepo: the blocks of `fleet::monorepoSource(N)` in an order the
///    seed permutes, where a seeded ~2% of the functions take their failing
///    variant from `fleet::monorepoSource(N, 1)`. Edits flip a handful of
///    functions between the two variants.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GENERATOR_H
#define PERFBENCH_GENERATOR_H

#include "casestudies/CaseStudies.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: a small seeded generator whose sequence is fixed by this
/// file, not by the standard library's distributions.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, N); N > 0.
  uint64_t below(uint64_t N) { return next() % N; }

  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t State;
};

/// One unit the verifier is run on: a source text, the functions to verify
/// in order, and the verdict each must get.
struct Unit {
  std::string Id;
  std::string Source;
  std::vector<std::string> Functions;
  std::vector<bool> Expected; ///< parallel to Functions: must verify
};

/// The Figure-7 case studies in a seeded order, each its own unit.
std::vector<Unit> figure7Corpus(uint64_t Seed);

/// The seeded monorepo. Function blocks keep their passing and failing
/// variants, so edits can be rendered without regenerating.
class Monorepo {
public:
  /// 2% of the functions (rounded) take the failing variant.
  Monorepo(unsigned Functions, uint64_t Seed);

  size_t size() const { return Blocks.size(); }

  /// The unit with the seeded failing set, optionally with the functions at
  /// the (block-order) positions in \p Flips switched to the other variant.
  Unit render(const std::vector<size_t> &Flips = {}) const;

  /// An edit: \p K distinct block positions drawn from \p R among the
  /// functions whose two variants span the same lines. Content hashes
  /// include source locations, so such an edit changes the hash of the
  /// flipped functions only; any other edit would shift every later one.
  std::vector<size_t> pickFlips(Rng &R, size_t K) const;

private:
  struct Block {
    std::string Name;
    std::string Pass;
    std::string Fail;
    bool Failing = false; ///< the seeded variant
  };
  /// \p K distinct elements of \p From drawn from \p R.
  static std::vector<size_t> pick(Rng &R, const std::vector<size_t> &From,
                                  size_t K);

  std::vector<Block> Blocks;   ///< in the seeded order
  std::vector<size_t> Editable; ///< positions whose variants align by line
  uint64_t Seed;
};

} // namespace perfbench

#endif // PERFBENCH_GENERATOR_H
