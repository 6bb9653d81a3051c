//===- BitVectorSolverTest.cpp - Bit-blasting backend tests ---------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and differential tests for the bit-vector portfolio backend. The
/// differential half brute-forces every assignment of small bounded
/// variables and checks the solver against ground truth: a "proved" verdict
/// must hold in every model (soundness — the hard requirement), and on these
/// tiny exactly-translatable problems the blasting is complete, so valid
/// goals must also be proved.
///
//===----------------------------------------------------------------------===//

#include "pure/BitVectorSolver.h"
#include "pure/Term.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

using namespace rcc::pure;

namespace {

TermRef nvar(const std::string &N) { return mkVar(N, Sort::Nat); }
TermRef pow2(TermRef E) { return mkApp("pow2", Sort::Nat, {E}); }
TermRef land(TermRef A, TermRef B) { return mkApp("land", Sort::Nat, {A, B}); }
TermRef lor(TermRef A, TermRef B) { return mkApp("lor", Sort::Nat, {A, B}); }
TermRef lxor(TermRef A, TermRef B) { return mkApp("lxor", Sort::Nat, {A, B}); }

constexpr int64_t U32Max = 4294967295LL;

//===----------------------------------------------------------------------===//
// Unit cases: the word-level goals the typing rules actually emit
//===----------------------------------------------------------------------===//

TEST(BitVector, Pow2RangeSideCondition) {
  // The Shl side condition: pow2(i) <= 2^32-1 under i < 32.
  TermRef I = nvar("i");
  std::vector<TermRef> Facts = {mkLt(I, mkNat(32))};
  EXPECT_TRUE(BitVectorSolver::prove(Facts, mkLe(pow2(I), mkNat(U32Max))));
  // ... and NOT under the weaker i < 33.
  std::vector<TermRef> Weak = {mkLt(I, mkNat(33))};
  EXPECT_FALSE(BitVectorSolver::prove(Weak, mkLe(pow2(I), mkNat(U32Max))));
}

TEST(BitVector, SetBitStaysInRange) {
  // w | (1 << i) <= 2^32-1 under w <= 2^32-1, i < 32 (bitmap "set").
  TermRef W = nvar("w"), I = nvar("i");
  std::vector<TermRef> Facts = {mkLe(W, mkNat(U32Max)), mkLt(I, mkNat(32))};
  EXPECT_TRUE(BitVectorSolver::prove(
      Facts, mkLe(lor(W, pow2(I)), mkNat(U32Max))));
}

TEST(BitVector, MaskedWordIsBounded) {
  // w & m <= m (and <= w): conjunction both ways.
  TermRef W = nvar("w"), M = nvar("m");
  std::vector<TermRef> Facts = {mkLe(W, mkNat(255)), mkLe(M, mkNat(255))};
  EXPECT_TRUE(BitVectorSolver::prove(Facts, mkLe(land(W, M), M)));
  EXPECT_TRUE(BitVectorSolver::prove(Facts, mkLe(land(W, M), W)));
  EXPECT_FALSE(BitVectorSolver::prove(Facts, mkLt(land(W, M), M)));
}

TEST(BitVector, XorClearStaysInRange) {
  // w ^ (1 << i) <= 2^32-1 (the no-bitnot mask idiom).
  TermRef W = nvar("w"), I = nvar("i");
  std::vector<TermRef> Facts = {mkLe(W, mkNat(U32Max)), mkLt(I, mkNat(32))};
  EXPECT_TRUE(BitVectorSolver::prove(
      Facts, mkLe(lxor(W, pow2(I)), mkNat(U32Max))));
}

TEST(BitVector, VariableShiftsViaMulDiv) {
  // The typing rules lower w << i to w * pow2(i) and w >> i to w / pow2(i).
  TermRef W = nvar("w"), I = nvar("i");
  std::vector<TermRef> Facts = {mkLe(W, mkNat(15)), mkLt(I, mkNat(4))};
  // w >> i <= w, always.
  EXPECT_TRUE(BitVectorSolver::prove(Facts, mkLe(mkDiv(W, pow2(I)), W)));
  // w << i <= 15 * 8 = 120.
  EXPECT_TRUE(
      BitVectorSolver::prove(Facts, mkLe(mkMul(W, pow2(I)), mkNat(120))));
  EXPECT_FALSE(
      BitVectorSolver::prove(Facts, mkLe(mkMul(W, pow2(I)), mkNat(119))));
}

TEST(BitVector, UnboundedAtomIsUnknown) {
  // No bound on w: must refuse, not truncate.
  TermRef W = nvar("w");
  EXPECT_FALSE(BitVectorSolver::prove({}, mkLe(land(W, W), W)));
}

TEST(BitVector, HypothesisBoundIsPartOfTheFormula) {
  // An *inconsistent* word problem: w <= 3 but w = 5. Everything proves.
  TermRef W = nvar("w");
  std::vector<TermRef> Facts = {mkLe(W, mkNat(3)), mkEq(W, mkNat(5))};
  EXPECT_TRUE(BitVectorSolver::prove(Facts, mkLe(lor(W, W), mkNat(0))));
}

TEST(BitVector, Relevance) {
  TermRef W = nvar("w"), I = nvar("i");
  EXPECT_TRUE(BitVectorSolver::relevant({}, mkLe(pow2(I), mkNat(8))));
  EXPECT_TRUE(BitVectorSolver::relevant({mkEq(W, land(W, W))},
                                        mkLe(W, mkNat(8))));
  EXPECT_FALSE(BitVectorSolver::relevant({mkLe(W, mkNat(3))},
                                         mkLe(W, mkNat(8))));
}

//===----------------------------------------------------------------------===//
// Differential testing against brute-force evaluation
//===----------------------------------------------------------------------===//

/// Ground-truth evaluator over concrete assignments. Mirrors the term
/// semantics the solver is supposed to respect (truncating Nat division).
int64_t evalT(TermRef T, const std::map<std::string, int64_t> &Env) {
  switch (T->kind()) {
  case TermKind::NatConst:
  case TermKind::IntConst:
    return T->num();
  case TermKind::Var:
    return Env.at(T->name());
  case TermKind::Add:
    return evalT(T->arg(0), Env) + evalT(T->arg(1), Env);
  case TermKind::Mul:
    return evalT(T->arg(0), Env) * evalT(T->arg(1), Env);
  case TermKind::Div: {
    int64_t D = evalT(T->arg(1), Env);
    return D == 0 ? 0 : evalT(T->arg(0), Env) / D;
  }
  case TermKind::Mod: {
    int64_t D = evalT(T->arg(1), Env);
    return D == 0 ? 0 : evalT(T->arg(0), Env) % D;
  }
  case TermKind::App:
    if (T->name() == "pow2")
      return int64_t(1) << evalT(T->arg(0), Env);
    if (T->name() == "land")
      return evalT(T->arg(0), Env) & evalT(T->arg(1), Env);
    if (T->name() == "lor")
      return evalT(T->arg(0), Env) | evalT(T->arg(1), Env);
    if (T->name() == "lxor")
      return evalT(T->arg(0), Env) ^ evalT(T->arg(1), Env);
    ADD_FAILURE() << "unexpected app " << T->name();
    return 0;
  default:
    ADD_FAILURE() << "unexpected term kind";
    return 0;
  }
}

bool evalP(TermRef P, const std::map<std::string, int64_t> &Env) {
  switch (P->kind()) {
  case TermKind::Le:
    return evalT(P->arg(0), Env) <= evalT(P->arg(1), Env);
  case TermKind::Lt:
    return evalT(P->arg(0), Env) < evalT(P->arg(1), Env);
  case TermKind::Eq:
    return evalT(P->arg(0), Env) == evalT(P->arg(1), Env);
  case TermKind::Ne:
    return evalT(P->arg(0), Env) != evalT(P->arg(1), Env);
  default:
    ADD_FAILURE() << "unexpected prop kind";
    return false;
  }
}

/// Checks the solver against full enumeration of x in [0,15], y in [0,7]
/// and e in [0,EMax], on every comparison between two of \p Exprs and
/// between one of them and a constant of \p Rhs.
void agreesWithBruteForce(int64_t EMax, const std::vector<TermRef> &Exprs,
                          const std::vector<int64_t> &Rhs) {
  TermRef X = nvar("x"), Y = nvar("y"), E = nvar("e");
  std::vector<TermRef> Facts = {mkLe(X, mkNat(15)), mkLe(Y, mkNat(7)),
                                mkLe(E, mkNat(EMax))};

  int Checked = 0, ProvedCnt = 0;
  auto checkGoal = [&](TermRef Goal) {
    bool Valid = true;
    for (int64_t XV = 0; XV <= 15 && Valid; ++XV)
      for (int64_t YV = 0; YV <= 7 && Valid; ++YV)
        for (int64_t EV = 0; EV <= EMax && Valid; ++EV) {
          std::map<std::string, int64_t> Env{
              {"x", XV}, {"y", YV}, {"e", EV}};
          if (!evalP(Goal, Env))
            Valid = false;
        }
    bool Proved = BitVectorSolver::prove(Facts, Goal);
    // Soundness: never prove an invalid goal.
    if (!Valid) {
      EXPECT_FALSE(Proved) << "unsound: " << Goal->str() << " (e <= " << EMax
                           << ")";
    }
    // Completeness on exactly-translatable small problems.
    if (Valid) {
      EXPECT_TRUE(Proved) << "incomplete: " << Goal->str() << " (e <= "
                          << EMax << ")";
    }
    ++Checked;
    ProvedCnt += Proved;
  };

  for (TermRef A : Exprs) {
    for (int64_t C : Rhs) {
      checkGoal(mkLe(A, mkNat(C)));
      checkGoal(mkLt(mkNat(C), A));
    }
    for (TermRef B : Exprs) {
      checkGoal(mkLe(A, B));
      checkGoal(mkEq(A, B));
    }
  }
  // Make sure the battery exercises both verdicts.
  EXPECT_GT(ProvedCnt, 0);
  EXPECT_LT(ProvedCnt, Checked);
}

TEST(BitVectorDifferential, AgreesWithBruteForceOnSmallWidths) {
  // e <= 3 fills e's 2-bit vector. Enumerate a family of word-level terms
  // and comparison goals; check the solver against full enumeration.
  TermRef X = nvar("x"), Y = nvar("y"), E = nvar("e");
  agreesWithBruteForce(3,
                       {
                           X,
                           Y,
                           land(X, Y),
                           lor(X, Y),
                           lxor(X, Y),
                           pow2(E),
                           mkAdd(land(X, Y), Y),
                           lor(land(X, mkNat(12)), Y),
                           lxor(X, pow2(E)),
                           mkMul(Y, pow2(E)),
                           mkDiv(X, pow2(E)),
                           mkMod(X, mkNat(8)),
                           mkAdd(X, mkMul(Y, mkNat(3))),
                           land(lxor(X, Y), lor(X, Y)),
                       },
                       {0, 1, 7, 8, 15, 22, 36, 56, 120});
}

/// Shifts whose exponent bound leaves values of e's vector out of range:
/// e <= 5 and e <= 9 use 3- and 4-bit vectors, where the shifters' stages
/// could produce values for e = 6, 7 or e = 10..15 that the domain
/// constraint must exclude. Some shifted operands are wider than x and y,
/// so right shifts move in bits from above x's width.
std::vector<TermRef> shiftExprs() {
  TermRef X = nvar("x"), Y = nvar("y"), E = nvar("e");
  return {
      X,
      Y,
      pow2(E),
      lxor(X, pow2(E)),
      mkMul(Y, pow2(E)),
      mkDiv(X, pow2(E)),
      mkMul(mkAdd(X, Y), pow2(E)),
      mkDiv(mkMul(X, mkNat(64)), pow2(E)),
      mkDiv(mkAdd(mkMul(X, mkNat(16)), Y), pow2(E)),
      mkDiv(mkMul(Y, pow2(E)), pow2(E)),
  };
}

TEST(BitVectorDifferential, ShiftsAgreeWithBruteForceBelowAFullVector) {
  const std::vector<int64_t> Rhs = {0,  1,   7,   8,   15,   22,  36,
                                    56, 120, 255, 960, 1000, 4095};
  agreesWithBruteForce(5, shiftExprs(), Rhs);
  agreesWithBruteForce(9, shiftExprs(), Rhs);
}

} // namespace
