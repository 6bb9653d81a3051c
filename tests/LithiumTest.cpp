//===- LithiumTest.cpp - Unit tests for the Lithium engine ----------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direct tests of the proof-search engine's mechanics (Section 5): context
/// normalization (case 7), atom matching with splitting and focusing
/// (case 6d), evar sealing and side-condition postponement, vacuous
/// branches, conjunction forking, wand introduction, and the rule registry's
/// ambiguity detection.
///
//===----------------------------------------------------------------------===//

#include "caesium/Layout.h"
#include "lithium/Engine.h"
#include "refinedc/Checker.h"
#include "refinedc/Types.h"

#include <gtest/gtest.h>

#include <type_traits>

using namespace rcc;
using namespace rcc::lithium;
using namespace rcc::refinedc;
using namespace rcc::pure;

namespace {

struct EngineFixture : ::testing::Test {
  RuleRegistry Rules;
  PureSolver Solver;
  EvarEnv Evars;
  EngineStats Stats;
  Derivation Deriv;
  std::unique_ptr<Engine> E;

  void SetUp() override {
    // The standard library provides the subsumption rules atom matching
    // reduces to (the registry is otherwise empty).
    registerStandardRules(Rules);
    E = std::make_unique<Engine>(Rules, Solver, Evars, Stats, &Deriv);
  }

  TermRef loc(const char *N) { return mkVar(N, Sort::Loc); }
};

} // namespace

//===----------------------------------------------------------------------===//
// pushAtom normalization (case 7)
//===----------------------------------------------------------------------===//

TEST_F(EngineFixture, PushPureFactGoesToGamma) {
  E->pushAtom(ResAtom::pure(mkLe(mkVar("a", Sort::Nat), mkVar("b", Sort::Nat))));
  ASSERT_EQ(E->Gamma.size(), 1u);
  EXPECT_TRUE(E->Delta.empty());
}

TEST_F(EngineFixture, PushFalseMakesBranchVacuous) {
  EXPECT_FALSE(E->Vacuous);
  E->pushAtom(ResAtom::pure(mkFalse()));
  EXPECT_TRUE(E->Vacuous);
  // A vacuous branch proves anything, even an impossible judgment.
  EXPECT_TRUE(E->prove(gStar({ResAtom::loc(loc("nowhere"), tyNull())},
                             gTrue())));
}

TEST_F(EngineFixture, PushExistsOpensToUniversal) {
  TypeRef T = tyExists("n", Sort::Nat,
                       tyInt(caesium::intU64(), mkVar("n", Sort::Nat)));
  E->pushAtom(ResAtom::loc(loc("l"), T));
  ASSERT_EQ(E->Delta.size(), 1u);
  EXPECT_EQ(E->Delta[0].Ty->K, TypeKind::Int);
  ASSERT_NE(E->Delta[0].Ty->Refn, nullptr);
  EXPECT_EQ(E->Delta[0].Ty->Refn->kind(), TermKind::Var)
      << "the existential must open to a fresh universal, not an evar";
}

TEST_F(EngineFixture, PushConstraintSplitsFactAndContent) {
  TypeRef T = tyConstraint(tyNull(), mkLe(mkNat(1), mkVar("n", Sort::Nat)));
  E->pushAtom(ResAtom::loc(loc("l"), T));
  EXPECT_EQ(E->Gamma.size(), 1u);
  ASSERT_EQ(E->Delta.size(), 1u);
  EXPECT_EQ(E->Delta[0].Ty->K, TypeKind::Null);
}

TEST_F(EngineFixture, PushStructSplitsFieldsAndPadding) {
  // struct { u8 c; u64 x; } -> field atoms at 0 and 8 plus 7 padding bytes.
  static caesium::StructLayout L;
  L.Name = "padded_pair";
  L.Fields = {{"c", caesium::layoutOfInt(caesium::intU8()), 0},
              {"x", caesium::layoutOfInt(caesium::intU64()), 0}};
  L.computeLayout();
  ASSERT_EQ(L.Size, 16u);
  TypeRef T = tyStruct(&L, {tyInt(caesium::intU8(), mkNat(1)),
                            tyInt(caesium::intU64(), mkNat(2))});
  E->pushAtom(ResAtom::loc(loc("s"), T));
  ASSERT_EQ(E->Delta.size(), 3u);
  // Field c at offset 0 (subject is the base itself).
  EXPECT_EQ(E->Delta[0].Subject, loc("s"));
  // Padding gap of 7 bytes at offset 1.
  EXPECT_EQ(E->Delta[1].Ty->K, TypeKind::Uninit);
  EXPECT_EQ(E->Delta[1].Ty->Size, mkNat(7));
  EXPECT_EQ(E->Delta[2].Subject, locOffset(loc("s"), 8));
}

TEST_F(EngineFixture, PushPaddedSplitsTail) {
  TypeRef T = tyPadded(tyInt(caesium::intU64(), mkNat(5)), mkNat(4096));
  E->pushAtom(ResAtom::loc(loc("page"), T));
  ASSERT_EQ(E->Delta.size(), 2u);
  EXPECT_EQ(E->Delta[1].Ty->K, TypeKind::Uninit);
  EXPECT_EQ(E->Delta[1].Ty->Size, mkNat(4088));
}

//===----------------------------------------------------------------------===//
// popLocAtom (case 6d machinery)
//===----------------------------------------------------------------------===//

TEST_F(EngineFixture, PopExactMatch) {
  E->pushAtom(ResAtom::loc(loc("l"), tyNull()));
  ResAtom Out;
  ASSERT_TRUE(E->popLocAtom(loc("l"), 8, Out, {}));
  EXPECT_EQ(Out.Ty->K, TypeKind::Null);
  EXPECT_TRUE(E->Delta.empty());
}

TEST_F(EngineFixture, PopMissingFails) {
  ResAtom Out;
  EXPECT_FALSE(E->popLocAtom(loc("l"), 8, Out, {}));
  EXPECT_NE(E->Failure.find("no ownership"), std::string::npos);
}

TEST_F(EngineFixture, PopSplitsUninitPrefix) {
  E->pushAtom(ResAtom::loc(loc("b"), tyUninit(mkNat(64))));
  ResAtom Out;
  ASSERT_TRUE(E->popLocAtom(loc("b"), 8, Out, {}));
  EXPECT_EQ(Out.Ty->K, TypeKind::Uninit);
  EXPECT_EQ(Out.Ty->Size, mkNat(8));
  // The remaining 56 bytes stay at offset 8.
  ASSERT_EQ(E->Delta.size(), 1u);
  EXPECT_EQ(E->Delta[0].Subject, locOffset(loc("b"), 8));
  EXPECT_EQ(E->Delta[0].Ty->Size, mkNat(56));
}

TEST_F(EngineFixture, PopSplitsUninitMiddle) {
  E->pushAtom(ResAtom::loc(loc("b"), tyUninit(mkNat(64))));
  ResAtom Out;
  ASSERT_TRUE(E->popLocAtom(locOffset(loc("b"), 16), 8, Out, {}));
  EXPECT_EQ(Out.Ty->Size, mkNat(8));
  // Lead [0,16) and tail [24,64) remain.
  ASSERT_EQ(E->Delta.size(), 2u);
}

TEST_F(EngineFixture, PopSplitsSymbolicUninitUnderHypothesis) {
  TermRef N = mkVar("n", Sort::Nat);
  E->addFact(mkLe(mkNat(16), N));
  E->pushAtom(ResAtom::loc(loc("b"), tyUninit(N)));
  ResAtom Out;
  ASSERT_TRUE(E->popLocAtom(loc("b"), 8, Out, {}));
  EXPECT_EQ(Out.Ty->Size, mkNat(8));
  ASSERT_EQ(E->Delta.size(), 1u);
  EXPECT_EQ(E->Delta[0].Ty->K, TypeKind::Uninit);
}

TEST_F(EngineFixture, PopFocusesThroughOwnedPointer) {
  // Δ: slot ◁ p @ &own<null>; asking for p extracts the pointee.
  TermRef P = loc("p");
  E->pushAtom(ResAtom::loc(loc("slot"), tyOwn(tyNull(), P)));
  ResAtom Out;
  ASSERT_TRUE(E->popLocAtom(P, 8, Out, {}));
  EXPECT_EQ(Out.Ty->K, TypeKind::Null);
  // The slot keeps the pointer value.
  ASSERT_EQ(E->Delta.size(), 1u);
  EXPECT_EQ(E->Delta[0].Ty->K, TypeKind::ValueOf);
}

TEST_F(EngineFixture, PopValAtom) {
  TermRef V = mkVar("v", Sort::Loc);
  E->pushAtom(ResAtom::val(V, tyNull()));
  ResAtom Out;
  ASSERT_TRUE(E->popValAtom(V, Out, {}));
  EXPECT_EQ(Out.Ty->K, TypeKind::Null);
  EXPECT_FALSE(E->popValAtom(V, Out, {})) << "atoms are not duplicable";
}

//===----------------------------------------------------------------------===//
// Side conditions, evars, postponement
//===----------------------------------------------------------------------===//

TEST_F(EngineFixture, SideConditionUsesGamma) {
  E->addFact(mkLe(mkVar("a", Sort::Nat), mkVar("b", Sort::Nat)));
  EXPECT_TRUE(E->solveSideCond(
      mkLe(mkVar("a", Sort::Nat), mkAdd(mkVar("b", Sort::Nat), mkNat(1))),
      {}));
  EXPECT_EQ(Stats.SideCondAuto, 1u);
  EXPECT_FALSE(E->solveSideCond(
      mkLe(mkVar("b", Sort::Nat), mkVar("a", Sort::Nat)), {}));
}

TEST_F(EngineFixture, EvarConditionIsPostponedThenDischarged) {
  TermRef X = E->freshEvar("x", Sort::Nat);
  // x != 3 cannot be decided yet: postponed.
  EXPECT_TRUE(E->solveSideCond(mkNe(X, mkNat(3)), {}));
  EXPECT_EQ(E->Pending.size(), 1u);
  // A later equality pins the evar; the pending condition resolves.
  EXPECT_TRUE(E->solveSideCond(mkEq(X, mkNat(7)), {}));
  EXPECT_TRUE(E->Pending.empty());
}

TEST_F(EngineFixture, PendingFailureSurfacesOnceGround) {
  TermRef X = E->freshEvar("x", Sort::Nat);
  EXPECT_TRUE(E->solveSideCond(mkNe(X, mkNat(3)), {}));
  // Instantiating x := 3 makes the pending x != 3 ground and false; the
  // flush inside the (otherwise successful) equality reports the failure.
  EXPECT_FALSE(E->solveSideCond(mkEq(X, mkNat(3)), {}));
  EXPECT_FALSE(E->Failure.empty());
}

TEST_F(EngineFixture, GoalTrueFlushesPending) {
  TermRef X = E->freshEvar("x", Sort::Nat);
  EXPECT_TRUE(E->solveSideCond(mkNe(X, mkNat(3)), {}));
  // Proving True must fail: the evar is never determined and the condition
  // cannot be closed.
  EXPECT_FALSE(E->prove(gTrue()));
}

TEST_F(EngineFixture, ProvedSideConditionsShareInternedHypotheses) {
  TermRef A = mkVar("a", Sort::Nat), B = mkVar("b", Sort::Nat),
          C = mkVar("c", Sort::Nat);
  E->addFact(mkLe(A, B));
  ASSERT_TRUE(E->solveSideCond(mkLe(A, mkAdd(B, mkNat(1))), {}));
  ASSERT_TRUE(E->solveSideCond(mkLe(A, mkAdd(B, mkNat(2))), {}));
  E->addFact(mkLe(B, C));
  ASSERT_TRUE(E->solveSideCond(mkLe(A, C), {}));
  ASSERT_EQ(Deriv.Steps.size(), 3u);
  const DerivStep &First = Deriv.Steps[0], &Second = Deriv.Steps[1],
                  &Third = Deriv.Steps[2];
  EXPECT_EQ(First.K, DerivStep::SideCond);
  EXPECT_EQ(First.Rule.name(), "default");
  // Each step records the Γ of its moment; equal Γs are one list.
  EXPECT_EQ(First.Hyps.terms(), (std::vector<TermRef>{mkLe(A, B)}));
  EXPECT_EQ(Second.Hyps, First.Hyps);
  EXPECT_EQ(Third.Hyps.terms(),
            (std::vector<TermRef>{mkLe(A, B), mkLe(B, C)}));
  EXPECT_EQ(HypList::intern(Third.Hyps.terms()), Third.Hyps);
  EXPECT_TRUE(HypList::intern({}).empty());
}

//===----------------------------------------------------------------------===//
// Goal structure
//===----------------------------------------------------------------------===//

TEST_F(EngineFixture, ConjForksContexts) {
  E->pushAtom(ResAtom::loc(loc("l"), tyNull()));
  // Both branches may consume the same atom: Δ is restored between them.
  GoalRef Consume = gStar({ResAtom::loc(loc("l"), tyNull())}, gTrue());
  EXPECT_TRUE(E->prove(gConj(Consume, Consume)));
}

TEST_F(EngineFixture, WandAssumesThenProvides) {
  // (l ◁ null -∗ l ◁ null ∗ True) without any initial resources.
  GoalRef G = gWand({ResAtom::loc(loc("l"), tyNull())},
                    gStar({ResAtom::loc(loc("l"), tyNull())}, gTrue()));
  EXPECT_TRUE(E->prove(G));
}

TEST_F(EngineFixture, AllIntroducesUniversalExIntroducesEvar) {
  bool SawVar = false, SawEvar = false;
  GoalRef G = gAll("x", Sort::Nat, [&](TermRef X) {
    SawVar = X->kind() == TermKind::Var;
    return gEx("y", Sort::Nat, [&](TermRef Y) {
      SawEvar = Y->kind() == TermKind::EVar;
      return gTrue();
    });
  });
  EXPECT_TRUE(E->prove(G));
  EXPECT_TRUE(SawVar);
  EXPECT_TRUE(SawEvar);
}

TEST_F(EngineFixture, WandTypedGoalAtomIntroduces) {
  // Proving l ◁ wand<own h : null, null> requires no atom at l: the intro
  // assumes the hole and proves the result with it.
  TypeRef W = tyWand(loc("h"), tyNull(), tyNull());
  GoalRef G = gStar({ResAtom::loc(loc("l"), W)}, gTrue());
  // The result type (null at l) must be provable from the hole (null at h)
  // — it is not (different subjects), unless l's content exists; use equal
  // subjects to close the identity wand.
  TypeRef WId = tyWand(loc("l"), tyNull(), tyNull());
  EXPECT_TRUE(E->prove(gStar({ResAtom::loc(loc("l"), WId)}, gTrue())));
  (void)G;
}

//===----------------------------------------------------------------------===//
// Rule registry (bare fixture: no standard rules, so registry behavior is
// observable in isolation)
//===----------------------------------------------------------------------===//

namespace {
struct BareEngineFixture : ::testing::Test {
  RuleRegistry Rules;
  PureSolver Solver;
  EvarEnv Evars;
  EngineStats Stats;
  Derivation Deriv;
  std::unique_ptr<Engine> E;
  void SetUp() override {
    E = std::make_unique<Engine>(Rules, Solver, Evars, Stats, &Deriv);
  }
};
} // namespace

TEST_F(BareEngineFixture, UnknownJudgmentFails) {
  Judgment J;
  J.K = JudgKind::BinOpJ;
  EXPECT_FALSE(E->prove(gJudg(std::move(J))));
  EXPECT_NE(E->Failure.find("no typing rule"), std::string::npos);
}

TEST_F(BareEngineFixture, AmbiguousRulesAreAnError) {
  auto Always = [](Engine &, const Judgment &) { return true; };
  auto Id = [](Engine &, const Judgment &J) { return J.KGoal; };
  Rules.add({"rule-a", JudgKind::SubsumeV, 5, Always, Id});
  Rules.add({"rule-b", JudgKind::SubsumeV, 5, Always, Id});
  Judgment J;
  J.K = JudgKind::SubsumeV;
  J.KGoal = gTrue();
  EXPECT_FALSE(E->prove(gJudg(std::move(J))));
  EXPECT_NE(E->Failure.find("ambiguous"), std::string::npos)
      << "equal-priority double match violates Lithium's uniqueness";
}

TEST_F(BareEngineFixture, PriorityBreaksTies) {
  auto Always = [](Engine &, const Judgment &) { return true; };
  Rules.add({"low", JudgKind::SubsumeV, 1, Always,
             [](Engine &E2, const Judgment &) -> GoalRef {
               E2.fail("low rule must not be chosen");
               return nullptr;
             }});
  Rules.add({"high", JudgKind::SubsumeV, 2, Always,
             [](Engine &, const Judgment &J) { return J.KGoal; }});
  Judgment J;
  J.K = JudgKind::SubsumeV;
  J.KGoal = gTrue();
  EXPECT_TRUE(E->prove(gJudg(std::move(J))));
}

TEST_F(BareEngineFixture, StepBudgetStopsDivergingRules) {
  auto Always = [](Engine &, const Judgment &) { return true; };
  Rules.add({"loop", JudgKind::SubsumeV, 0, Always,
             [](Engine &, const Judgment &J) {
               Judgment J2 = J;
               return gJudg(std::move(J2)); // reproduce itself forever
             }});
  Judgment J;
  J.K = JudgKind::SubsumeV;
  J.KGoal = gTrue();
  E->MaxStepsOverride = 500;
  EXPECT_FALSE(E->prove(gJudg(std::move(J))));
  EXPECT_NE(E->Failure.find("step budget"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Indexed dispatch: registration invariants, index pruning and the
// cross-check harness
//===----------------------------------------------------------------------===//

TEST_F(BareEngineFixture, DuplicateRuleNameIsAHardError) {
  auto Always = [](Engine &, const Judgment &) { return true; };
  auto Id = [](Engine &, const Judgment &J) { return J.KGoal; };
  Rules.add({"dup", JudgKind::SubsumeV, 1, Always, Id});
  EXPECT_DEATH(Rules.add({"dup", JudgKind::SubsumeV, 2, Always, Id}),
               "duplicate typing rule registration 'dup'");
}

TEST_F(BareEngineFixture, LookupAllKeepsRegistrationOrderOnEqualPriority) {
  auto Always = [](Engine &, const Judgment &) { return true; };
  auto Id = [](Engine &, const Judgment &J) { return J.KGoal; };
  Rules.add({"tie-a", JudgKind::SubsumeV, 5, Always, Id});
  Rules.add({"tie-b", JudgKind::SubsumeV, 5, Always, Id});
  Rules.add({"tie-c", JudgKind::SubsumeV, 5, Always, Id});
  Rules.add({"top", JudgKind::SubsumeV, 9, Always, Id});
  Judgment J;
  J.K = JudgKind::SubsumeV;
  J.KGoal = gTrue();

  std::vector<const Rule *> Desc = Rules.lookupAll(*E, J, false);
  ASSERT_EQ(Desc.size(), 4u);
  EXPECT_EQ(Desc[0]->Name, "top");
  EXPECT_EQ(Desc[1]->Name, "tie-a");
  EXPECT_EQ(Desc[2]->Name, "tie-b");
  EXPECT_EQ(Desc[3]->Name, "tie-c");

  std::vector<const Rule *> Asc = Rules.lookupAll(*E, J, true);
  ASSERT_EQ(Asc.size(), 4u);
  EXPECT_EQ(Asc[0]->Name, "tie-a") << "ascending ties must also keep "
                                      "registration order (stable sort)";
  EXPECT_EQ(Asc[1]->Name, "tie-b");
  EXPECT_EQ(Asc[2]->Name, "tie-c");
  EXPECT_EQ(Asc[3]->Name, "top");
}

TEST_F(BareEngineFixture, IndexSkipsGuardsOfNonMatchingBuckets) {
  int IntGuardRuns = 0;
  auto Id = [](Engine &, const Judgment &J) { return J.KGoal; };
  Rules.add({"read-int-keyed", JudgKind::ReadJ, 0,
             [&IntGuardRuns](Engine &, const Judgment &) {
               ++IntGuardRuns;
               return true;
             },
             Id, RuleKey::onTy({TypeKind::Int})});
  Rules.add({"read-null-keyed", JudgKind::ReadJ, 0,
             [](Engine &, const Judgment &) { return true; }, Id,
             RuleKey::onTy({TypeKind::Null})});
  Judgment J;
  J.K = JudgKind::ReadJ;
  J.T1 = tyNull();
  J.KGoal = gTrue();
  std::string Err;
  const Rule *R = Rules.lookup(*E, J, Err);
  ASSERT_NE(R, nullptr) << Err;
  EXPECT_EQ(R->Name, "read-null-keyed");
  EXPECT_EQ(IntGuardRuns, 0)
      << "a rule keyed on Int must not be probed for a Null-headed read";
  EXPECT_EQ(Stats.IndexHits, 1u);
  EXPECT_EQ(Stats.ScanFallbacks, 0u);
}

TEST_F(BareEngineFixture, WildcardRulesAreAlwaysConsidered) {
  int WildcardRuns = 0;
  auto Id = [](Engine &, const Judgment &J) { return J.KGoal; };
  Rules.add({"read-int-keyed", JudgKind::ReadJ, 0,
             [](Engine &, const Judgment &) { return true; }, Id,
             RuleKey::onTy({TypeKind::Int})});
  Rules.add({"read-any", JudgKind::ReadJ, 0,
             [&WildcardRuns](Engine &, const Judgment &) {
               ++WildcardRuns;
               return true;
             },
             Id});
  Judgment J;
  J.K = JudgKind::ReadJ;
  J.T1 = tyNull();
  J.KGoal = gTrue();
  std::string Err;
  const Rule *R = Rules.lookup(*E, J, Err);
  ASSERT_NE(R, nullptr) << Err;
  EXPECT_EQ(R->Name, "read-any");
  EXPECT_EQ(WildcardRuns, 1);
}

TEST_F(EngineFixture, CrossCheckModeAgreesOnStandardRules) {
  Rules.setMode(RuleRegistry::DispatchMode::CrossCheck);
  Judgment J;
  J.K = JudgKind::SubsumeV;
  J.V1 = loc("v");
  J.T1 = tyInt(caesium::intU64(), mkNat(3));
  J.T2 = tyInt(caesium::intU64(), mkNat(3));
  J.KGoal = gTrue();
  EXPECT_TRUE(E->prove(gJudg(std::move(J))));
  EXPECT_EQ(Rules.crossCheckMismatches(), 0u);
}

TEST_F(BareEngineFixture, FingerprintChangesWithKeysAndRules) {
  auto Always = [](Engine &, const Judgment &) { return true; };
  auto Id = [](Engine &, const Judgment &J) { return J.KGoal; };
  uint64_t F0 = Rules.fingerprint();
  Rules.add({"fp-a", JudgKind::SubsumeV, 1, Always, Id});
  uint64_t F1 = Rules.fingerprint();
  EXPECT_NE(F0, F1);
  RuleRegistry Other;
  Other.add({"fp-a", JudgKind::SubsumeV, 1, Always, Id,
             RuleKey::onPair({TypeKind::Int}, {TypeKind::Int})});
  EXPECT_NE(Other.fingerprint(), F1)
      << "a key change must change the dispatch fingerprint (persisted "
         "results key on it)";
}

//===----------------------------------------------------------------------===//
// Derivation layout and labels
//===----------------------------------------------------------------------===//

TEST(DerivationLayout, StepIsAFlatRecordOf24Bytes) {
  // A result holds one step per rule application and side condition, and
  // the store, L1 and every loaded entry copy them: no step owns memory.
  static_assert(sizeof(DerivStep) <= 24);
  static_assert(std::is_trivially_copyable_v<DerivStep>);
  SUCCEED();
}

TEST(Labels, InterningIsIdempotentAndBuiltinsAreFixed) {
  Label A = Label::intern("LABEL-TEST-RULE");
  EXPECT_EQ(Label::intern("LABEL-TEST-RULE"), A);
  EXPECT_EQ(A.name(), "LABEL-TEST-RULE");
  EXPECT_FALSE(A.isBuiltinRule());
  EXPECT_EQ(Label::intern(""), Label());
  EXPECT_EQ(Label().name(), "");
  for (size_t I = 0; I < std::size(BuiltinSteps); ++I) {
    Label B = static_cast<Builtin>(I);
    EXPECT_EQ(B.name(), BuiltinSteps[I].Name);
    EXPECT_EQ(Label::intern(BuiltinSteps[I].Name), B);
    EXPECT_EQ(B.isBuiltinRule(), BuiltinSteps[I].RuleApp) << B.name();
  }
}

TEST(Labels, SetListsItsMembersByName) {
  // Interned in an order that is not the name order.
  Label Z = Label::intern("zz-label-set"), A = Label::intern("aa-label-set"),
        M = Label::intern("mm-label-set");
  LabelSet S;
  for (Label L : {M, Z, A, Z, M})
    S.insert(L);
  EXPECT_EQ(S.size(), 3u);
  EXPECT_TRUE(S.contains(A));
  EXPECT_FALSE(S.contains(Label::intern("not-in-the-set")));
  EXPECT_EQ(S.byName(), (std::vector<Label>{A, M, Z}));
}
