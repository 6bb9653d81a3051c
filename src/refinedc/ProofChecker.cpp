//===- ProofChecker.cpp ---------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "refinedc/ProofChecker.h"

#include "trace/Trace.h"

using namespace rcc;
using namespace rcc::refinedc;
using namespace rcc::lithium;

ProofCheckResult ProofChecker::check(const Derivation &D,
                                     const std::vector<pure::Lemma> &Lemmas) {
  trace::Span ReplaySpan(trace::Category::ProofCheck, "proofcheck.replay");
  trace::count("proofcheck.derivations");
  trace::count("proofcheck.steps", D.Steps.size());
  ProofCheckResult R;

  // A fresh, independent solver: the engine's solver state (enabled
  // tactics) is not trusted; the replay enables everything a Coq-side
  // checker would accept (registered decision procedures and the statements
  // of manually proved lemmas).
  pure::PureSolver Solver;
  Solver.enableSolver("multiset_solver");
  Solver.enableSolver("set_solver");
  for (const pure::Lemma &L : Lemmas)
    Solver.addLemma(L);

  for (const DerivStep &S : D.Steps) {
    switch (S.K) {
    case DerivStep::RuleApp:
      // The rule must exist in the registry; the engine's built-in rule
      // applications (BuiltinSteps) are whitelisted.
      if (!S.Rule.isBuiltinRule() && !Rules.hasRule(S.Rule)) {
        R.Error = "derivation applies unknown rule '" +
                  std::string(S.Rule.name()) + "'";
        return R;
      }
      ++R.RuleSteps;
      break;
    case DerivStep::SideCond: {
      if (S.Rule == Builtin::Failed) {
        R.Error = "derivation contains a failed side condition: " +
                  (S.Prop ? S.Prop->str() : std::string("?"));
        return R;
      }
      if (!S.Prop)
        break;
      pure::EvarEnv Env; // evars in recorded props are already resolved
      pure::SolveResult SR = Solver.prove(S.Hyps, S.Prop, Env);
      if (!SR.Proved) {
        R.Error = "side condition failed to re-check: " + S.Prop->str();
        return R;
      }
      ++R.SideConds;
      break;
    }
    case DerivStep::AtomMatch:
    case DerivStep::Intro:
      break;
    }
  }
  if (D.Steps.empty()) {
    R.Error = "empty derivation";
    return R;
  }
  R.Ok = true;
  return R;
}
