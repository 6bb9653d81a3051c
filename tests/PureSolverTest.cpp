//===- PureSolverTest.cpp - Unit tests for the side-condition solver ------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "pure/CollectionSolver.h"
#include "pure/LinearSolver.h"
#include "pure/Solver.h"

#include <gtest/gtest.h>

#include <thread>

using namespace rcc::pure;

namespace {
TermRef nvar(const char *N) { return mkVar(N, Sort::Nat); }
TermRef mvar(const char *N) { return mkVar(N, Sort::MSet); }
} // namespace

//===----------------------------------------------------------------------===//
// Linear arithmetic
//===----------------------------------------------------------------------===//

TEST(LinearSolver, Transitivity) {
  TermRef A = nvar("a"), B = nvar("b"), C = nvar("c");
  std::vector<TermRef> Facts = {mkLe(A, B), mkLe(B, C)};
  EXPECT_TRUE(LinearSolver::prove(Facts, mkLe(A, C)));
  EXPECT_FALSE(LinearSolver::prove(Facts, mkLe(C, A)));
}

TEST(LinearSolver, StrictAndNonStrict) {
  TermRef A = nvar("a"), B = nvar("b");
  std::vector<TermRef> Facts = {mkLt(A, B)};
  EXPECT_TRUE(LinearSolver::prove(Facts, mkLe(A, B)));
  EXPECT_TRUE(LinearSolver::prove(Facts, mkLe(mkAdd(A, mkNat(1)), B)))
      << "integer tightening: a < b gives a + 1 <= b";
  EXPECT_TRUE(LinearSolver::prove(Facts, mkNe(A, B)));
}

TEST(LinearSolver, NatNonNegativity) {
  TermRef N = nvar("n");
  EXPECT_TRUE(LinearSolver::prove({}, mkLe(mkNat(0), N)))
      << "nat atoms are implicitly non-negative";
  EXPECT_FALSE(LinearSolver::prove({}, mkLe(mkNat(1), N)));
}

TEST(LinearSolver, TruncatedSubtraction) {
  TermRef A = nvar("a"), N = nvar("n");
  // Without n <= a only the weak bounds hold.
  EXPECT_TRUE(LinearSolver::prove({}, mkLe(mkSub(A, N), A)));
  EXPECT_TRUE(LinearSolver::prove({}, mkLe(mkNat(0), mkSub(A, N))));
  // The alloc example's key condition: n <= a |- a - n <= a.
  std::vector<TermRef> Facts = {mkLe(N, A)};
  EXPECT_TRUE(LinearSolver::prove(Facts, mkLe(mkSub(A, N), A)));
  // a - n >= a - n trivially; and a - n + n touches the truncation bound:
  // under n <= a we have (a - n) >= a - n (linear), so a <= (a - n) + n.
  EXPECT_TRUE(LinearSolver::prove(Facts, mkLe(A, mkAdd(mkSub(A, N), N))));
}

TEST(LinearSolver, EqualityAndDisequality) {
  TermRef A = nvar("a"), B = nvar("b");
  std::vector<TermRef> Facts = {mkLe(A, B), mkLe(B, A)};
  EXPECT_TRUE(LinearSolver::prove(Facts, mkEq(A, B)));
  std::vector<TermRef> Facts2 = {mkLt(A, B)};
  EXPECT_TRUE(LinearSolver::prove(Facts2, mkNe(B, A)));
}

TEST(LinearSolver, InconsistentFactsProveAnything) {
  TermRef A = nvar("a");
  std::vector<TermRef> Facts = {mkLe(mkNat(3), A), mkLe(A, mkNat(2))};
  EXPECT_TRUE(LinearSolver::inconsistent(Facts));
  EXPECT_TRUE(LinearSolver::prove(Facts, mkEq(mkNat(0), mkNat(1))));
}

TEST(LinearSolver, CoefficientsAndConstants) {
  TermRef X = nvar("x");
  // 2x <= 7 over integers: x <= 3 (requires no rounding in our encoding to
  // prove x <= 3 is NOT derivable via pure FM over rationals; check the
  // weaker x <= 4 instead, which rational reasoning gives).
  std::vector<TermRef> Facts = {mkLe(mkMul(mkNat(2), X), mkNat(7))};
  EXPECT_TRUE(LinearSolver::prove(Facts, mkLe(X, mkNat(4))));
}

TEST(LinearSolver, LengthAtomsAreNonNegative) {
  TermRef Xs = mkVar("xs", Sort::List);
  EXPECT_TRUE(LinearSolver::prove({}, mkLe(mkNat(0), mkLLen(Xs))));
}

TEST(LinearSolver, ModBounds) {
  TermRef X = nvar("x");
  TermRef M = mkMod(X, mkNat(8));
  EXPECT_TRUE(LinearSolver::prove({}, mkLt(M, mkNat(8))));
  EXPECT_TRUE(LinearSolver::prove({}, mkLe(mkNat(0), M)));
}

TEST(LinearSolver, MinMaxBounds) {
  TermRef A = nvar("a"), B = nvar("b");
  EXPECT_TRUE(LinearSolver::prove({}, mkLe(mkMin(A, B), A)));
  EXPECT_TRUE(LinearSolver::prove({}, mkLe(B, mkMax(A, B))));
}

//===----------------------------------------------------------------------===//
// Collection solver
//===----------------------------------------------------------------------===//

static bool arith(const std::vector<TermRef> &F, TermRef G) {
  return G->isTrue() || LinearSolver::prove(F, G);
}

TEST(CollectionSolver, MultisetUnionNormalization) {
  TermRef N = nvar("n");
  TermRef S = mvar("s");
  // {[n]} (+) s  =  s (+) {[n]}
  TermRef L = mkMUnion(mkMSingle(N), S);
  TermRef R = mkMUnion(S, mkMSingle(N));
  EXPECT_TRUE(CollectionSolver::prove({}, mkEq(L, R), arith));
}

TEST(CollectionSolver, NonEmptyDisequality) {
  TermRef N = nvar("n");
  TermRef S = mvar("s");
  TermRef M = mkMUnion(mkMSingle(N), S);
  EXPECT_TRUE(CollectionSolver::prove({}, mkNe(M, mkMEmpty()), arith));
  EXPECT_FALSE(CollectionSolver::prove({}, mkNe(S, mkMEmpty()), arith));
}

TEST(CollectionSolver, RewriteByHypothesisEquality) {
  TermRef N = nvar("n");
  TermRef S = mvar("s"), Tail = mvar("tail");
  // s = {[n]} (+) tail  |-  s != {[]}
  std::vector<TermRef> Facts = {mkEq(S, mkMUnion(mkMSingle(N), Tail))};
  EXPECT_TRUE(CollectionSolver::prove(Facts, mkNe(S, mkMEmpty()), arith));
}

TEST(CollectionSolver, Membership) {
  TermRef N = nvar("n");
  TermRef S = mvar("s");
  TermRef M = mkMUnion(mkMSingle(N), S);
  EXPECT_TRUE(CollectionSolver::prove({}, mkMElem(N, M), arith));
  std::vector<TermRef> Facts = {mkMElem(nvar("k"), S)};
  EXPECT_TRUE(CollectionSolver::prove(Facts, mkMElem(nvar("k"), M), arith));
}

TEST(CollectionSolver, SortednessForallTransfer) {
  // The free-list invariant (Figure 3): from
  //   forall k, k in tail -> n <= k      and   m <= n
  // prove
  //   forall k, k in ({[n]} (+) tail) -> m <= k.
  TermRef N = nvar("n"), M = nvar("m");
  TermRef Tail = mvar("tail");
  TermRef K = mkVar("k", Sort::Nat);
  TermRef SortedTail =
      mkForall("k", Sort::Nat, mkImplies(mkMElem(K, Tail), mkLe(N, K)));
  std::vector<TermRef> Facts = {SortedTail, mkLe(M, N)};
  TermRef Goal = mkForall(
      "k", Sort::Nat,
      mkImplies(mkMElem(K, mkMUnion(mkMSingle(N), Tail)), mkLe(M, K)));
  EXPECT_TRUE(CollectionSolver::prove(Facts, Goal, arith));
  // But not with the inequality flipped.
  std::vector<TermRef> BadFacts = {SortedTail, mkLe(N, M), mkLt(N, M)};
  TermRef BadGoal = mkForall(
      "k", Sort::Nat,
      mkImplies(mkMElem(K, mkMUnion(mkMSingle(N), Tail)), mkLe(M, K)));
  EXPECT_FALSE(CollectionSolver::prove(BadFacts, BadGoal, arith));
}

TEST(CollectionSolver, InstantiateMembershipForalls) {
  TermRef N = nvar("n");
  TermRef Tail = mvar("tail");
  TermRef K = mkVar("k", Sort::Nat);
  TermRef Sorted =
      mkForall("k", Sort::Nat, mkImplies(mkMElem(K, Tail), mkLe(N, K)));
  TermRef Mem = mkMElem(nvar("j"), Tail);
  auto Derived = CollectionSolver::instantiateMembershipForalls({Sorted, Mem});
  ASSERT_FALSE(Derived.empty());
  EXPECT_EQ(Derived[0], mkLe(N, nvar("j")));
}

TEST(CollectionSolver, SetUnionIdempotent) {
  TermRef S = mkVar("s", Sort::Set);
  EXPECT_TRUE(CollectionSolver::prove({}, mkEq(mkSUnion(S, S), S), arith));
}

//===----------------------------------------------------------------------===//
// Full solver pipeline
//===----------------------------------------------------------------------===//

TEST(PureSolver, DefaultProvesArithmetic) {
  PureSolver PS;
  EvarEnv Env;
  TermRef N = nvar("n"), A = nvar("a");
  SolveResult R = PS.prove({mkLe(N, A)}, mkLe(mkSub(A, N), A), Env);
  EXPECT_TRUE(R.Proved);
  EXPECT_FALSE(R.Manual);
  EXPECT_EQ(R.Engine, "default");
}

TEST(PureSolver, AllocPostconditionIteSplit) {
  // The Figure 1 postcondition refinement: under n <= a,
  //   (n <= a ? a - n : a) = a - n.
  PureSolver PS;
  EvarEnv Env;
  TermRef N = nvar("n"), A = nvar("a");
  TermRef Ite = mkIte(mkLe(N, A), mkSub(A, N), A);
  SolveResult R = PS.prove({mkLe(N, A)}, mkEq(Ite, mkSub(A, N)), Env);
  EXPECT_TRUE(R.Proved) << R.FailureReason;
  EXPECT_FALSE(R.Manual);
  // And under a < n, it equals a.
  SolveResult R2 = PS.prove({mkLt(A, N)}, mkEq(Ite, A), Env);
  EXPECT_TRUE(R2.Proved) << R2.FailureReason;
}

TEST(PureSolver, EvarEqualityUnification) {
  PureSolver PS;
  EvarEnv Env;
  TermRef E = Env.fresh(Sort::Nat);
  SolveResult R = PS.prove({}, mkEq(E, mkAdd(nvar("x"), mkNat(1))), Env);
  EXPECT_TRUE(R.Proved);
  EXPECT_EQ(Env.resolve(E), mkAdd(nvar("x"), mkNat(1)));
}

TEST(PureSolver, EvarNeNilTransform) {
  // The paper's example: ?xs != [] instantiates ?xs := ?y :: ?ys.
  PureSolver PS;
  EvarEnv Env;
  TermRef E = Env.fresh(Sort::List);
  SolveResult R = PS.prove({}, mkNe(E, mkLNil()), Env);
  EXPECT_TRUE(R.Proved);
  EXPECT_EQ(Env.resolve(E)->kind(), TermKind::LCons);
}

TEST(PureSolver, HypothesisSubstitution) {
  PureSolver PS;
  EvarEnv Env;
  // xs = [] and ys = xs |- length ys = 0.
  TermRef Xs = mkVar("xs", Sort::List), Ys = mkVar("ys", Sort::List);
  SolveResult R = PS.prove({mkEq(Xs, mkLNil()), mkEq(Ys, Xs)},
                           mkEq(mkLLen(Ys), mkNat(0)), Env);
  EXPECT_TRUE(R.Proved) << R.FailureReason;
}

TEST(PureSolver, LoneDefiningEquationsStayHypotheses) {
  // k and m occur only in their own defining equations, so substituting
  // them rewrites nothing; the equations stay usable as facts.
  PureSolver PS;
  EvarEnv Env;
  TermRef K = nvar("k"), M = nvar("m"), A = nvar("a"), B = nvar("b");
  std::vector<TermRef> Hyps = {mkEq(K, mkAdd(A, B)), mkLe(A, mkNat(2)),
                               mkEq(M, mkNat(4)), mkLe(B, mkNat(3))};
  SolveResult R = PS.prove(Hyps, mkLe(mkAdd(A, B), mkNat(5)), Env);
  EXPECT_TRUE(R.Proved) << R.FailureReason;
  EXPECT_FALSE(PS.prove(Hyps, mkLe(mkAdd(A, B), mkNat(4)), Env).Proved);
  // Once the goal mentions k, its equation substitutes into the goal.
  EXPECT_TRUE(PS.prove(Hyps, mkLe(K, mkNat(5)), Env).Proved);
}

TEST(PureSolver, ConcurrentSolversAgree) {
  // Every job runs its own PureSolver over the shared term arena; four
  // solvers proving the same goals at once must agree with one alone.
  TermRef N = nvar("n"), A = nvar("a"), I = nvar("i"), K = nvar("k");
  TermRef Pow = mkApp("pow2", Sort::Nat, {I});
  const std::vector<std::pair<std::vector<TermRef>, TermRef>> Problems = {
      {{mkLe(N, A)}, mkEq(mkIte(mkLe(N, A), mkSub(A, N), A), mkSub(A, N))},
      {{mkLt(I, mkNat(32))}, mkLe(Pow, mkNat(4294967295LL))},
      {{mkLt(I, mkNat(33))}, mkLe(Pow, mkNat(4294967295LL))},
      {{mkEq(K, mkAdd(N, A)), mkNe(N, A), mkLe(N, A)}, mkLt(N, A)},
      {{mkLe(N, A)}, mkLe(A, N)},
  };
  auto solveAll = [&] {
    PureSolver PS;
    std::vector<bool> Out;
    for (const auto &[Hyps, Goal] : Problems) {
      EvarEnv Env;
      Out.push_back(PS.prove(Hyps, Goal, Env).Proved);
    }
    return Out;
  };
  const std::vector<bool> Expected = solveAll();
  EXPECT_EQ(Expected, (std::vector<bool>{true, true, false, true, false}));
  std::vector<std::vector<bool>> Got(4);
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < Got.size(); ++T)
    Threads.emplace_back([&, T] {
      std::vector<bool> First = solveAll();
      bool Stable = true;
      for (int Rep = 1; Rep < 20; ++Rep)
        Stable &= solveAll() == First;
      Got[T] = Stable ? First : std::vector<bool>();
    });
  for (std::thread &Th : Threads)
    Th.join();
  for (const std::vector<bool> &R : Got)
    EXPECT_EQ(R, Expected);
}

TEST(PureSolver, MultisetNeedsExtraSolverAndIsCountedManual) {
  PureSolver PS;
  EvarEnv Env;
  TermRef N = nvar("n");
  TermRef S = mvar("s"), Tail = mvar("tail");
  std::vector<TermRef> Hyps = {mkEq(S, mkMUnion(mkMSingle(N), Tail))};
  TermRef Goal = mkNe(S, mkMEmpty());
  // Without the extra solver the goal fails...
  SolveResult R1 = PS.prove(Hyps, Goal, Env);
  EXPECT_FALSE(R1.Proved);
  // ...with multiset_solver enabled it succeeds and is counted manual.
  PS.enableSolver("multiset_solver");
  SolveResult R2 = PS.prove(Hyps, Goal, Env);
  EXPECT_TRUE(R2.Proved) << R2.FailureReason;
  EXPECT_TRUE(R2.Manual);
  EXPECT_EQ(R2.Engine, "multiset_solver");
  EXPECT_EQ(PS.stats().ManualProved, 1u);
  EXPECT_EQ(PS.stats().Failed, 1u);
}

TEST(PureSolver, LemmaDischargesUninterpretedFact) {
  // Model of the hashmap's manual pure reasoning: a lemma about an
  // uninterpreted function probe(xs, k) < length(xs).
  PureSolver PS;
  EvarEnv Env;
  TermRef Xs = mkVar("xs", Sort::List);
  TermRef K = mkVar("k!b", Sort::Nat);
  TermRef ProbeK = mkApp("probe", Sort::Nat, {Xs, K});
  TermRef LemmaProp = mkForall(
      "k", Sort::Nat,
      mkLt(mkApp("probe", Sort::Nat, {Xs, mkVar("k", Sort::Nat)}),
           mkLLen(Xs)));
  PS.addLemma({"probe_bound", LemmaProp, 12});

  SolveResult R = PS.prove({}, mkLt(ProbeK, mkLLen(Xs)), Env);
  EXPECT_TRUE(R.Proved) << R.FailureReason;
  EXPECT_TRUE(R.Manual);
  EXPECT_EQ(R.Engine, "lemma:probe_bound");
}

TEST(PureSolver, ImplicationAndConjunctionGoals) {
  PureSolver PS;
  EvarEnv Env;
  TermRef A = nvar("a"), B = nvar("b");
  TermRef Goal = mkImplies(mkLe(A, B), mkAnd(mkLe(A, mkAdd(B, mkNat(1))),
                                             mkLe(mkNat(0), A)));
  SolveResult R = PS.prove({}, Goal, Env);
  EXPECT_TRUE(R.Proved) << R.FailureReason;
}

TEST(PureSolver, FailureGivesReason) {
  PureSolver PS;
  EvarEnv Env;
  SolveResult R = PS.prove({}, mkLe(nvar("b"), nvar("a")), Env);
  EXPECT_FALSE(R.Proved);
  EXPECT_NE(R.FailureReason.find("cannot prove side condition"),
            std::string::npos);
}

TEST(PureSolver, FreelistInsertInvariant) {
  // Integration-style: the side conditions arising when `free` (Figure 3)
  // inserts a chunk of size sz before the current chunk of size n:
  // given sz <= n and sortedness of the current list, the new list
  // {[sz]} (+) ({[n]} (+) tail) is sorted w.r.t. sz.
  PureSolver PS;
  PS.enableSolver("multiset_solver");
  EvarEnv Env;
  TermRef N = nvar("n"), Sz = nvar("sz");
  TermRef Tail = mvar("tail");
  TermRef K = mkVar("k", Sort::Nat);
  TermRef Sorted =
      mkForall("k", Sort::Nat, mkImplies(mkMElem(K, Tail), mkLe(N, K)));
  std::vector<TermRef> Hyps = {Sorted, mkLe(Sz, N)};
  TermRef NewList = mkMUnion(mkMSingle(N), Tail);
  TermRef Goal = mkForall(
      "k", Sort::Nat, mkImplies(mkMElem(K, NewList), mkLe(Sz, K)));
  SolveResult R = PS.prove(Hyps, Goal, Env);
  EXPECT_TRUE(R.Proved) << R.FailureReason;
  EXPECT_TRUE(R.Manual);
}
