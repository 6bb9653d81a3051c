//===- PortfolioTest.cpp - Pure-solver leaf dispatch tests ----------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the pure solver's one leaf-dispatch path: the bit-vector
/// backend extends the solver, attribution follows the fixed priority order
/// (default < bitvector < collections < lemmas), and `Off` differs from
/// `On` only on the goals the bit-vector backend proves.
///
//===----------------------------------------------------------------------===//

#include "pure/EvarEnv.h"
#include "pure/Solver.h"
#include "pure/Term.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace rcc::pure;

namespace {

TermRef nvar(const std::string &N) { return mkVar(N, Sort::Nat); }
TermRef pow2(TermRef E) { return mkApp("pow2", Sort::Nat, {E}); }
TermRef lor(TermRef A, TermRef B) { return mkApp("lor", Sort::Nat, {A, B}); }
TermRef land(TermRef A, TermRef B) { return mkApp("land", Sort::Nat, {A, B}); }

constexpr int64_t U32Max = 4294967295LL;

/// A mix of linear-only, bitvector-only, both-provable, and unprovable
/// goals.
struct GoalCase {
  std::vector<TermRef> Hyps;
  TermRef Goal;
};

std::vector<GoalCase> goalBattery() {
  TermRef W = nvar("w"), I = nvar("i"), X = nvar("x");
  std::vector<GoalCase> Cases;
  // Linear-only (no word ops): default engine territory.
  Cases.push_back({{mkLe(X, mkNat(7))}, mkLe(X, mkNat(9))});
  Cases.push_back({{mkLt(X, mkNat(4)), mkLe(mkNat(2), X)},
                   mkNe(X, mkNat(9))});
  // Bitvector-only: linear can't reason about pow2/lor.
  Cases.push_back({{mkLt(I, mkNat(32))}, mkLe(pow2(I), mkNat(U32Max))});
  Cases.push_back({{mkLe(W, mkNat(U32Max)), mkLt(I, mkNat(32))},
                   mkLe(lor(W, pow2(I)), mkNat(U32Max))});
  // Provable by both (word op present but goal is reflexive/linear).
  Cases.push_back({{mkLe(W, mkNat(255))},
                   mkLe(land(W, mkNat(15)), land(W, mkNat(15)))});
  // Unprovable: every engine runs to completion and fails.
  Cases.push_back({{mkLe(W, mkNat(U32Max))}, mkLe(W, mkNat(255))});
  Cases.push_back({{mkLt(I, mkNat(33))}, mkLe(pow2(I), mkNat(U32Max))});
  return Cases;
}

TEST(Portfolio, BitvectorBackendExtendsTheSolver) {
  // The headline capability: a word-level side condition the pre-portfolio
  // solver could not discharge is now proved automatically (Manual=false).
  TermRef W = nvar("w"), I = nvar("i");
  std::vector<TermRef> Hyps = {mkLe(W, mkNat(U32Max)), mkLt(I, mkNat(32))};
  TermRef Goal = mkLe(lor(W, pow2(I)), mkNat(U32Max));

  PureSolver Off;
  Off.setPortfolioMode(PortfolioMode::Off);
  EvarEnv E1;
  EXPECT_FALSE(Off.prove(Hyps, Goal, E1).Proved);

  PureSolver On;
  EXPECT_EQ(On.portfolioMode(), PortfolioMode::On);
  EvarEnv E2;
  SolveResult R = On.prove(Hyps, Goal, E2);
  EXPECT_TRUE(R.Proved);
  EXPECT_EQ(R.Engine, "bitvector");
  EXPECT_FALSE(R.Manual);
}

TEST(Portfolio, OffMatchesOnExceptBitvectorGoals) {
  // Off is On with the bit-vector backend skipped: on every goal On does
  // not attribute to `bitvector`, both modes report the same verdict and
  // attribution. Both headline bitvector-only goals must actually exercise
  // the exception.
  std::vector<GoalCase> Battery = goalBattery();
  PureSolver On, Off;
  Off.setPortfolioMode(PortfolioMode::Off);
  unsigned BitvectorGoals = 0;
  for (size_t GI = 0; GI < Battery.size(); ++GI) {
    EvarEnv E1, E2;
    SolveResult A = On.prove(Battery[GI].Hyps, Battery[GI].Goal, E1);
    SolveResult B = Off.prove(Battery[GI].Hyps, Battery[GI].Goal, E2);
    if (A.Proved && A.Engine == "bitvector") {
      ++BitvectorGoals;
      continue;
    }
    EXPECT_EQ(A.Proved, B.Proved) << "goal " << GI;
    EXPECT_EQ(A.Manual, B.Manual) << "goal " << GI;
    EXPECT_EQ(A.Engine, B.Engine) << "goal " << GI;
  }
  EXPECT_EQ(BitvectorGoals, 2u);
}

TEST(Portfolio, ManualAttributionStaysDeterministicWithAllCandidates) {
  // With extra solvers and lemmas enabled, a goal only a lemma can close
  // must always be attributed to the lemma engine (Manual=true).
  TermRef N = nvar("n");
  PureSolver S;
  S.enableSolver("set_solver");
  // forall k. f(k) <= 3  (an opaque app no arithmetic engine can bound).
  TermRef FK = mkApp("f", Sort::Nat, {mkVar("k", Sort::Nat)});
  Lemma L;
  L.Name = "f_bound";
  L.Prop = mkForall("k", Sort::Nat, mkLe(FK, mkNat(3)));
  L.PureLines = 2;
  S.addLemma(L);

  std::vector<TermRef> Hyps = {mkLe(N, mkNat(7))};
  TermRef Goal = mkLe(mkApp("f", Sort::Nat, {N}), mkNat(5));
  for (int Round = 0; Round < 20; ++Round) {
    EvarEnv Env;
    SolveResult R = S.prove(Hyps, Goal, Env);
    ASSERT_TRUE(R.Proved) << "round " << Round;
    EXPECT_TRUE(R.Manual);
    EXPECT_EQ(R.Engine, "lemma:f_bound");
  }
}

} // namespace
