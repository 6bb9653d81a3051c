//===- PureTermTest.cpp - Unit tests for terms, simplify, unify -----------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "pure/EvarEnv.h"
#include "pure/Simplify.h"
#include "pure/Term.h"
#include "pure/Unify.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace rcc::pure;

TEST(Term, HashConsingGivesPointerEquality) {
  TermRef A = mkAdd(mkVar("x", Sort::Nat), mkNat(1));
  TermRef B = mkAdd(mkVar("x", Sort::Nat), mkNat(1));
  EXPECT_EQ(A, B);
  TermRef C = mkAdd(mkVar("x", Sort::Int), mkNat(1));
  EXPECT_NE(A, C) << "sorts distinguish terms";
}

TEST(Term, Printing) {
  TermRef T = mkLe(mkVar("n", Sort::Nat), mkVar("a", Sort::Nat));
  EXPECT_EQ(T->str(), "(n <= a)");
  TermRef M = mkMUnion(mkMSingle(mkVar("n", Sort::Nat)), mkVar("s", Sort::MSet));
  EXPECT_EQ(M->str(), "({[n]} (+) s)");
}

TEST(Term, SubstVarAvoidsCapture) {
  // forall k. k <= n, substitute n := k  =>  binder must be renamed.
  TermRef Body = mkLe(mkVar("k", Sort::Nat), mkVar("n", Sort::Nat));
  TermRef F = mkForall("k", Sort::Nat, Body);
  TermRef R = substVar(F, "n", mkVar("k", Sort::Nat));
  ASSERT_EQ(R->kind(), TermKind::Forall);
  EXPECT_NE(R->name(), "k") << "binder should have been freshened";
  // The free k (from the substitution) must remain free.
  EXPECT_TRUE(containsFreeVar(R, "k"));
}

TEST(Term, SubstShadowedBinderUnchanged) {
  TermRef Body = mkLe(mkVar("k", Sort::Nat), mkNat(3));
  TermRef F = mkForall("k", Sort::Nat, Body);
  EXPECT_EQ(substVar(F, "k", mkNat(7)), F);
}

TEST(Term, SubstWithoutFreeOccurrenceRenamesNothing) {
  // i is not free under the binder, so even a replacement that mentions
  // the binder leaves the term as it is.
  TermRef J = mkVar("j", Sort::Nat);
  TermRef F = mkForall("j", Sort::Nat, mkLt(mkVar("k", Sort::Nat), J));
  EXPECT_EQ(substVar(F, "i", J), F);
}

TEST(Term, CaptureAvoidingRenameDependsOnlyOnTheTerms) {
  // forall j. i < j with i := j: the binder is renamed, and to the same
  // name every time, so the same substitution gives the same term.
  TermRef I = mkVar("i", Sort::Nat), J = mkVar("j", Sort::Nat);
  TermRef F = mkForall("j", Sort::Nat, mkLt(I, J));
  TermRef R = substVar(F, "i", J);
  EXPECT_EQ(R->str(), "forall j!1 : nat. (j < j!1)");
  EXPECT_EQ(substVar(F, "i", J), R);
}

TEST(Term, CaptureAvoidingRenameSkipsNamesInUse) {
  // j!1 is free in the body and j!2 in the replacement: the first name
  // free in neither is j!3.
  TermRef I = mkVar("i", Sort::Nat), J = mkVar("j", Sort::Nat);
  TermRef F = mkForall("j", Sort::Nat,
                       mkLt(mkAdd(I, mkVar("j!1", Sort::Nat)), J));
  TermRef R = substVar(F, "i", mkAdd(J, mkVar("j!2", Sort::Nat)));
  ASSERT_EQ(R->kind(), TermKind::Forall);
  EXPECT_EQ(R->name(), "j!3");
  EXPECT_TRUE(containsFreeVar(R, "j!1"));
  EXPECT_TRUE(containsFreeVar(R, "j!2"));
}

TEST(Term, ConcurrentSubstitutionsAgree) {
  // Jobs substitute concurrently; the renamed binder must not depend on
  // which thread gets there first.
  TermRef I = mkVar("i", Sort::Nat), J = mkVar("j", Sort::Nat);
  TermRef F = mkForall("j", Sort::Nat, mkLt(I, J));
  TermRef Expected = substVar(F, "i", J);
  std::atomic<bool> Go{false};
  std::vector<TermRef> Got(4, nullptr);
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < Got.size(); ++T)
    Threads.emplace_back([&, T] {
      while (!Go.load())
        std::this_thread::yield();
      TermRef First = substVar(F, "i", J);
      bool Stable = true;
      for (int K = 0; K < 200; ++K)
        Stable &= substVar(F, "i", J) == First;
      Got[T] = Stable ? First : nullptr;
    });
  Go.store(true);
  for (std::thread &Th : Threads)
    Th.join();
  for (TermRef R : Got)
    EXPECT_EQ(R, Expected);
}

TEST(Term, CollectEVars) {
  EvarEnv Env;
  TermRef E1 = Env.fresh(Sort::Nat);
  TermRef T = mkAdd(E1, mkVar("x", Sort::Nat));
  EXPECT_TRUE(containsEVar(T));
  std::vector<int64_t> Ids;
  collectEVars(T, Ids);
  ASSERT_EQ(Ids.size(), 1u);
  EXPECT_EQ(Ids[0], E1->num());
}

TEST(EvarEnv, SealedEvarsRejectBinding) {
  EvarEnv Env;
  TermRef E = Env.fresh(Sort::Nat);
  EXPECT_TRUE(Env.isSealed(E->num()));
  EXPECT_FALSE(Env.bind(E->num(), mkNat(4))) << "sealed evars must not bind";
  Env.unseal(E->num());
  EXPECT_TRUE(Env.bind(E->num(), mkNat(4)));
  EXPECT_EQ(Env.resolve(E), mkNat(4));
}

TEST(EvarEnv, OccursCheck) {
  EvarEnv Env;
  TermRef E = Env.fresh(Sort::Nat);
  Env.unseal(E->num());
  EXPECT_FALSE(Env.bind(E->num(), mkAdd(E, mkNat(1))));
}

TEST(EvarEnv, ResolveIsRecursive) {
  EvarEnv Env;
  TermRef E1 = Env.fresh(Sort::Nat);
  TermRef E2 = Env.fresh(Sort::Nat);
  Env.unseal(E1->num());
  Env.unseal(E2->num());
  EXPECT_TRUE(Env.bind(E1->num(), mkAdd(E2, mkNat(1))));
  EXPECT_TRUE(Env.bind(E2->num(), mkNat(2)));
  EXPECT_EQ(Env.resolve(E1), mkAdd(mkNat(2), mkNat(1)));
}

TEST(Simplify, ConstantFolding) {
  Simplifier S;
  EXPECT_EQ(S.simplify(mkAdd(mkNat(2), mkNat(3))), mkNat(5));
  EXPECT_EQ(S.simplify(mkSub(mkNat(2), mkNat(5))), mkNat(0))
      << "nat subtraction truncates";
  EXPECT_EQ(S.simplify(mkSub(mkInt(2), mkInt(5))), mkInt(-3));
  EXPECT_EQ(S.simplify(mkLe(mkNat(2), mkNat(3))), mkTrue());
  EXPECT_EQ(S.simplify(mkMul(mkVar("x", Sort::Nat), mkNat(0))), mkNat(0));
}

TEST(Simplify, UnchangedTermsAreReturnedAsIs) {
  // A term already in normal form comes back as the same pointer, and
  // simplifying it creates no term; a changed argument of a wide
  // application is rebuilt in place.
  Simplifier S;
  TermRef X = mkVar("x", Sort::Nat), Y = mkVar("y", Sort::Nat);
  TermRef Wide = mkApp("f", Sort::Nat, {X, Y, X, Y, X});
  TermRef T = mkAnd(mkLe(mkAdd(X, Y), mkNat(7)), mkLt(X, Wide));
  size_t Before = arena().size();
  EXPECT_EQ(S.simplify(T), T);
  EXPECT_EQ(arena().size(), Before);
  TermRef Padded = mkApp("f", Sort::Nat, {X, Y, X, Y, mkAdd(X, mkNat(0))});
  EXPECT_EQ(S.simplify(Padded), Wide);
}

TEST(Simplify, AlgebraicIdentities) {
  Simplifier S;
  TermRef X = mkVar("x", Sort::Nat);
  EXPECT_EQ(S.simplify(mkAdd(X, mkNat(0))), X);
  EXPECT_EQ(S.simplify(mkSub(mkAdd(X, mkVar("y", Sort::Nat)),
                             mkVar("y", Sort::Nat))),
            X);
  EXPECT_EQ(S.simplify(mkEq(X, X)), mkTrue());
  EXPECT_EQ(S.simplify(mkIte(mkTrue(), X, mkNat(7))), X);
}

TEST(Simplify, ListNormalization) {
  Simplifier S;
  TermRef L = mkLCons(mkNat(1), mkLCons(mkNat(2), mkLNil()));
  EXPECT_EQ(S.simplify(mkLLen(L)), mkNat(2));
  EXPECT_EQ(S.simplify(mkLNth(L, mkNat(1))), mkNat(2));
  EXPECT_EQ(S.simplify(mkLApp(mkLNil(), L)), L);
  TermRef Upd = mkLUpdate(L, mkNat(0), mkNat(9));
  EXPECT_EQ(S.simplify(mkLNth(Upd, mkNat(0))), mkNat(9));
  EXPECT_EQ(S.simplify(mkLNth(Upd, mkNat(1))), mkNat(2));
  EXPECT_EQ(S.simplify(mkLLen(Upd)), mkNat(2));
}

TEST(Simplify, MultisetNormalization) {
  Simplifier S;
  TermRef M = mkMUnion(mkMEmpty(), mkMSingle(mkNat(4)));
  EXPECT_EQ(S.simplify(M), mkMSingle(mkNat(4)));
  EXPECT_EQ(S.simplify(mkMElem(mkNat(4), M)), mkTrue());
  EXPECT_EQ(S.simplify(mkMElem(mkNat(5), M)), mkFalse());
  EXPECT_EQ(S.simplify(mkMSize(M)), mkNat(1));
}

TEST(Simplify, PropositionalNormalization) {
  Simplifier S;
  TermRef P = mkVar("p", Sort::Bool);
  EXPECT_EQ(S.simplify(mkNot(mkNot(P))), P);
  EXPECT_EQ(S.simplify(mkAnd(mkTrue(), P)), P);
  EXPECT_EQ(S.simplify(mkImplies(mkFalse(), P)), mkTrue());
  TermRef A = mkVar("a", Sort::Nat), B = mkVar("b", Sort::Nat);
  EXPECT_EQ(S.simplify(mkNot(mkLe(A, B))), mkLt(B, A));
}

TEST(Simplify, ExpandHypSplitsStructure) {
  Simplifier S;
  TermRef Xs = mkVar("xs", Sort::List), Ys = mkVar("ys", Sort::List);
  auto Facts = S.expandHyp(mkEq(mkLApp(Xs, Ys), mkLNil()));
  ASSERT_EQ(Facts.size(), 2u);
  EXPECT_EQ(Facts[0], mkEq(Xs, mkLNil()));
  EXPECT_EQ(Facts[1], mkEq(Ys, mkLNil()));
}

TEST(Simplify, UserRuleExtensibility) {
  Simplifier S;
  // Register: double(x) ~> x + x.
  S.addRule({"unfold-double", true, [](TermRef T) -> TermRef {
               if (T->kind() == TermKind::App && T->name() == "double")
                 return mkAdd(T->arg(0), T->arg(0));
               return nullptr;
             }});
  TermRef T = mkApp("double", Sort::Nat, {mkNat(3)});
  EXPECT_EQ(S.simplify(T), mkNat(6));
}

TEST(Unify, BindsUnboundEvar) {
  EvarEnv Env;
  TermRef E = Env.fresh(Sort::Nat);
  TermRef L = mkVar("l", Sort::Nat);
  EXPECT_TRUE(unifyTerms(E, L, Env));
  EXPECT_EQ(Env.resolve(E), L);
}

TEST(Unify, StructuralDescentThroughNonInjective) {
  // The paper's documented heuristic: length ?x = length l binds ?x := l.
  EvarEnv Env;
  TermRef E = Env.fresh(Sort::List);
  TermRef L = mkVar("l", Sort::List);
  EXPECT_TRUE(unifyTerms(mkLLen(E), mkLLen(L), Env));
  EXPECT_EQ(Env.resolve(E), L);
}

TEST(Unify, ArithmeticInversion) {
  EvarEnv Env;
  TermRef E = Env.fresh(Sort::Nat);
  EXPECT_TRUE(unifyTerms(mkAdd(E, mkNat(3)), mkNat(10), Env));
  EXPECT_EQ(Env.resolve(E), mkNat(7));
}

TEST(Unify, MismatchFails) {
  EvarEnv Env;
  EXPECT_FALSE(unifyTerms(mkNat(1), mkNat(2), Env));
  EXPECT_FALSE(
      unifyTerms(mkLLen(mkVar("a", Sort::List)), mkNat(3), Env));
}
