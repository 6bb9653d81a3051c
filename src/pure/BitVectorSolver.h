//===- BitVectorSolver.h - Word-level bit-blasting backend ------*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bit-vector backend for the pure-solver portfolio. The linear solver
/// treats the word-level operations the typing rules emit for C's bitwise
/// operators — `land`/`lor`/`lxor` applications and the `pow2` terms behind
/// shifts — as opaque atoms, so goals like `pow2(i) <= 2^32 - 1` under
/// `i < 32` land in Figure 7's "manual" column. This backend decides them by
/// exact bit-blasting: every bounded atom becomes a vector of BDD variables,
/// word operations become boolean circuits, and the goal is proved by
/// showing `Hyps ∧ Domain ∧ ¬Goal` has no satisfying assignment.
///
/// Soundness shape: atoms are finite-width only because a hypothesis bounds
/// them, and that bound is conjoined into the checked formula (`Domain`), so
/// truncation can never lose a counterexample. Untranslatable hypotheses are
/// skipped (weakening — sound); an untranslatable goal or node-budget
/// exhaustion returns "unknown", never "proved". See DESIGN.md, "Solver
/// portfolio".
///
//===----------------------------------------------------------------------===//

#ifndef RCC_PURE_BITVECTORSOLVER_H
#define RCC_PURE_BITVECTORSOLVER_H

#include "pure/Term.h"

#include <vector>

namespace rcc::pure {

class BitVectorSolver {
public:
  /// Cheap syntactic eligibility test for the leaf dispatch: does the
  /// problem mention a word-level operation this backend understands
  /// (`land`/`lor`/`lxor`/`pow2` applications)? Running when ineligible
  /// is sound (the solver just fails), this merely avoids wasted work.
  static bool relevant(const std::vector<TermRef> &Facts, TermRef Goal);

  /// Attempts to prove \p Goal from \p Facts by bit-blasting. Returns false
  /// for "unknown" (never unsound): on untranslatable goals, unbounded
  /// atoms, or budget exhaustion.
  static bool prove(const std::vector<TermRef> &Facts, TermRef Goal);
};

} // namespace rcc::pure

#endif // RCC_PURE_BITVECTORSOLVER_H
