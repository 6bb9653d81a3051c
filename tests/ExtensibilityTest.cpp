//===- ExtensibilityTest.cpp - User-extensible rules and simplification ---===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 5's extensibility claims: (a) new typing rules registered by a
/// user are picked up automatically by Lithium's rule-lookup (case 5); (b)
/// the simplification mechanism for side conditions is user-extensible; and
/// (c) the proof checker rejects tampered derivations — the search stays
/// untrusted even with user rules in play.
///
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"
#include "refinedc/Checker.h"
#include "refinedc/ProofChecker.h"

#include <gtest/gtest.h>

using namespace rcc;
using namespace rcc::refinedc;
using namespace rcc::lithium;
using namespace rcc::pure;

namespace {
/// A program using bitwise-not, which the standard rule library does not
/// cover.
const char *BitNotSource = R"(
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::exists("r: nat")]]
[[rc::returns("r @ int<size_t>")]]
size_t flip(size_t x) {
  return ~x;
}
)";

/// UNOP-BITNOT: ~x gets the uninterpreted value lnot(x).
Rule bitNotRule() {
  return {"UNOP-BITNOT-USER", JudgKind::UnOpJ, 0,
          [](Engine &E, const Judgment &J) {
            return static_cast<caesium::UnOpKind>(J.Op) ==
                       caesium::UnOpKind::BitNot &&
                   resolveType(J.T1, E.evars())->K == TypeKind::Int;
          },
          [](Engine &E, const Judgment &J) -> GoalRef {
            TypeRef T = resolveType(J.T1, E.evars());
            TermRef V = mkApp("lnot", Sort::Nat, {T->Refn});
            return J.KVal(V, tyInt(T->Ity, V));
          }};
}
} // namespace

TEST(Extensibility, UnsupportedConstructFailsWithoutUserRule) {
  DiagnosticEngine Diags;
  auto AP = front::compileSource(BitNotSource, Diags);
  ASSERT_TRUE(AP != nullptr);
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv());
  FnResult R = C.verifyFunction("flip", {});
  ASSERT_FALSE(R.Verified);
  EXPECT_NE(R.Error.find("no typing rule"), std::string::npos) << R.Error;
}

TEST(Extensibility, UserRegisteredRuleIsPickedUpAutomatically) {
  DiagnosticEngine Diags;
  auto AP = front::compileSource(BitNotSource, Diags);
  ASSERT_TRUE(AP != nullptr);
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv());

  C.addRule(bitNotRule());

  FnResult R = C.verifyFunction("flip", {});
  EXPECT_TRUE(R.Verified) << R.renderError(BitNotSource);
  EXPECT_TRUE(R.Stats.RulesUsed.contains(Label::intern("UNOP-BITNOT-USER")));

  // The proof checker accepts derivations using the registered rule (it
  // checks against the same registry).
  ProofChecker PC(C.rules());
  EXPECT_TRUE(PC.check(R.Deriv).Ok);
}

TEST(Extensibility, AddedRulesStayInTheirSession) {
  // Sessions share one rule library; a session that adds a rule or picks a
  // dispatch mode changes its own copy, seen by no session opened before or
  // after it.
  DiagnosticEngine Diags;
  auto AP = front::compileSource(BitNotSource, Diags);
  ASSERT_TRUE(AP != nullptr);
  const VerifyOptions Opts;
  Checker Before(*AP, Diags);
  ASSERT_TRUE(Before.buildEnv());
  const uint64_t Fp = Before.sessionFingerprint(Opts);

  Checker Extended(*AP, Diags);
  ASSERT_TRUE(Extended.buildEnv());
  Extended.addRule(bitNotRule());
  Extended.setDispatchMode(RuleRegistry::DispatchMode::CrossCheck);
  FnResult R = Extended.verifyFunction("flip", Opts);
  EXPECT_TRUE(R.Verified) << R.renderError(BitNotSource);
  EXPECT_EQ(Extended.rules().crossCheckMismatches(), 0u);
  EXPECT_NE(Extended.sessionFingerprint(Opts), Fp);

  Checker After(*AP, Diags);
  ASSERT_TRUE(After.buildEnv());
  for (const Checker *C : {&Before, &After}) {
    FnResult Other = C->verifyFunction("flip", Opts);
    EXPECT_FALSE(Other.Verified);
    EXPECT_NE(Other.Error.find("no typing rule"), std::string::npos)
        << Other.Error;
    EXPECT_EQ(C->sessionFingerprint(Opts), Fp);
    EXPECT_EQ(&C->rules(), &standardRules());
    EXPECT_EQ(C->rules().mode(), RuleRegistry::DispatchMode::Indexed);
  }
}

TEST(Extensibility, UserSimplificationRuleDischargesSideConditions) {
  // double(x) is uninterpreted; the spec equates it with x + x via a user
  // rewrite rule added to the solver's simplifier (the paper's autorewrite
  // analogue).
  const char *Src = R"(
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::returns("{double(n)} @ int<size_t>")]]
[[rc::requires("{n <= 1000}")]]
size_t twice(size_t x) {
  return x + x;
}
)";
  DiagnosticEngine Diags;
  auto AP = front::compileSource(Src, Diags);
  ASSERT_TRUE(AP != nullptr);
  {
    Checker C(*AP, Diags);
    ASSERT_TRUE(C.buildEnv());
    FnResult R = C.verifyFunction("twice", {});
    EXPECT_FALSE(R.Verified) << "without the rewrite, double(n) is opaque";
  }
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv());
  C.solver().simplifier().addRule(
      {"unfold-double", true, [](TermRef T) -> TermRef {
         if (T->kind() == TermKind::App && T->name() == "double")
           return mkAdd(T->arg(0), T->arg(0));
         return nullptr;
       }});
  FnResult R = C.verifyFunction("twice", {});
  EXPECT_TRUE(R.Verified) << R.renderError(Src);
}

TEST(Extensibility, ProofCheckerRejectsTamperedDerivations) {
  // u32 arithmetic emits explicit range side conditions (u64 is modeled as
  // unbounded), guaranteeing SideCond steps in the derivation.
  const char *Src = R"(
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<u32>")]]
[[rc::returns("{n + 1} @ int<u32>")]]
[[rc::requires("{n <= 100}")]]
unsigned int inc(unsigned int x) { return x + 1; }
)";
  DiagnosticEngine Diags;
  auto AP = front::compileSource(Src, Diags);
  ASSERT_TRUE(AP != nullptr);
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv());
  FnResult R = C.verifyFunction("inc", {});
  ASSERT_TRUE(R.Verified);

  ProofChecker PC(C.rules());
  ASSERT_TRUE(PC.check(R.Deriv).Ok);

  // Tamper 1: an unknown rule name.
  {
    Derivation D = R.Deriv;
    for (DerivStep &S : D.Steps)
      if (S.K == DerivStep::RuleApp) {
        S.Rule = Label::intern("NOT-A-RULE");
        break;
      }
    EXPECT_FALSE(PC.check(D).Ok);
  }
  // Tamper 2: a side condition weakened to something false. Steps carry no
  // rendered text; the message renders the proposition on demand.
  {
    Derivation D = R.Deriv;
    TermRef False = mkLe(mkNat(5), mkNat(3));
    bool Tampered = false;
    for (DerivStep &S : D.Steps)
      if (S.K == DerivStep::SideCond && S.Prop) {
        S.Prop = False;
        S.Hyps = {};
        Tampered = true;
        break;
      }
    ASSERT_TRUE(Tampered);
    ProofCheckResult Bad = PC.check(D);
    EXPECT_FALSE(Bad.Ok);
    EXPECT_EQ(Bad.Error, "side condition failed to re-check: " + False->str());
  }
  // Tamper 3: an empty derivation claims nothing.
  EXPECT_FALSE(PC.check(Derivation()).Ok);
}

TEST(Extensibility, ProofCheckerNamesTheFailedSideCondition) {
  // A failing search ends its derivation with a "failed" step that keeps
  // the resolved proposition; the checker renders it in its message.
  const char *Src = R"(
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<u32>")]]
[[rc::returns("{n + 1} @ int<u32>")]]
unsigned int inc_unbounded(unsigned int x) { return x + 1; }
)";
  DiagnosticEngine Diags;
  auto AP = front::compileSource(Src, Diags);
  ASSERT_TRUE(AP != nullptr);
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv());
  FnResult R = C.verifyFunction("inc_unbounded", {});
  ASSERT_FALSE(R.Verified);
  ASSERT_FALSE(R.Deriv.Steps.empty());
  const DerivStep &Last = R.Deriv.Steps.back();
  ASSERT_EQ(Last.K, DerivStep::SideCond);
  ASSERT_EQ(Last.Rule, Builtin::Failed);
  ASSERT_TRUE(Last.Prop != nullptr);
  ProofChecker PC(C.rules());
  ProofCheckResult PR = PC.check(R.Deriv);
  EXPECT_FALSE(PR.Ok);
  EXPECT_EQ(PR.Error, "derivation contains a failed side condition: " +
                          Last.Prop->str());
  EXPECT_NE(R.Error.find(Last.Prop->str()), std::string::npos)
      << "the search's own message names the same proposition: " << R.Error;
}

TEST(Extensibility, TrustMeSkipsTheBodyButKeepsTheSpecUsable) {
  const char *Src = R"(
// A trusted primitive with an assumed spec (rc::trust_me), used by a
// verified caller.
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::returns("{n * 2} @ int<size_t>")]]
[[rc::trust_me]]
size_t magic_double(size_t x);

[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::returns("{n * 2 + 1} @ int<size_t>")]]
[[rc::requires("{n <= 10}")]]
size_t odd_double(size_t x) {
  return magic_double(x) + 1;
}
)";
  DiagnosticEngine Diags;
  auto AP = front::compileSource(Src, Diags);
  ASSERT_TRUE(AP != nullptr) << Diags.render(Src);
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv()) << Diags.render(Src);
  FnResult RM = C.verifyFunction("magic_double", {});
  EXPECT_TRUE(RM.Verified);
  EXPECT_TRUE(RM.Trusted);
  FnResult R = C.verifyFunction("odd_double", {});
  EXPECT_TRUE(R.Verified) << R.renderError(Src);
}
