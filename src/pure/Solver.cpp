//===- Solver.cpp ---------------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "pure/Solver.h"

#include "pure/BitVectorSolver.h"
#include "pure/CollectionSolver.h"
#include "pure/LinearSolver.h"
#include "pure/Unify.h"
#include "trace/Trace.h"

#include <algorithm>
#include <chrono>
#include <set>

using namespace rcc::pure;

bool rcc::pure::parsePortfolioMode(const std::string &S, PortfolioMode &M) {
  if (S == "off")
    M = PortfolioMode::Off;
  else if (S == "on")
    M = PortfolioMode::On;
  else
    return false;
  return true;
}

void PureSolver::enableSolver(const std::string &Name) {
  if (!solverEnabled(Name))
    ExtraSolvers.push_back(Name);
}

bool PureSolver::solverEnabled(const std::string &Name) const {
  return std::find(ExtraSolvers.begin(), ExtraSolvers.end(), Name) !=
         ExtraSolvers.end();
}

//===----------------------------------------------------------------------===//
// Hypothesis preprocessing
//===----------------------------------------------------------------------===//

std::vector<TermRef> PureSolver::preprocessHyps(std::vector<TermRef> Hyps,
                                                const EvarEnv &Env,
                                                TermRef &Goal) {
  std::vector<TermRef> Out;
  for (TermRef H : Hyps) {
    TermRef R = Simp.simplify(Env.resolve(H));
    for (TermRef E : Simp.expandHyp(R))
      Out.push_back(E);
  }

  // Equational substitution pass: a hypothesis v = t (v a variable not free
  // in t) rewrites v to t everywhere, modeling the paper's normalization of
  // assumptions (e.g. xs = [] substitutes xs away).
  for (int Iter = 0; Iter < 6; ++Iter) {
    std::string Name;
    TermRef Repl = nullptr, Def = nullptr;
    for (TermRef H : Out) {
      if (H->kind() != TermKind::Eq)
        continue;
      TermRef A = H->arg(0), B = H->arg(1);
      if (A->kind() == TermKind::Var && !containsFreeVar(B, A->name()) &&
          A != B) {
        Name = A->name();
        Repl = B;
        Def = H;
        break;
      }
      if (B->kind() == TermKind::Var && !containsFreeVar(A, B->name()) &&
          A != B && A->kind() != TermKind::Var) {
        Name = B->name();
        Repl = A;
        Def = H;
        break;
      }
    }
    if (!Repl)
      break;
    // A variable free only in its own defining equation rewrites nothing
    // else: the round would drop that equation (it becomes true) and
    // re-simplify every other hypothesis and the goal to themselves, so
    // just move the equation to the back. Once it is there, every later
    // round would pick it again and change nothing.
    if (!containsFreeVar(Goal, Name) &&
        std::none_of(Out.begin(), Out.end(), [&](TermRef H) {
          return H != Def && containsFreeVar(H, Name);
        })) {
      std::vector<TermRef> Next;
      for (TermRef H : Out)
        if (H != Def)
          Next.push_back(H);
      Next.push_back(mkEq(mkVar(Name, Repl->sort()), Repl));
      if (Next == Out)
        break;
      Out = std::move(Next);
      continue;
    }
    std::vector<TermRef> Next;
    for (TermRef H : Out) {
      TermRef S = Simp.simplify(substVar(H, Name, Repl));
      if (S->isTrue())
        continue;
      for (TermRef E : Simp.expandHyp(S))
        Next.push_back(E);
    }
    // Keep the defining equation so other solvers can still see it.
    Next.push_back(mkEq(mkVar(Name, Repl->sort()), Repl));
    Out = std::move(Next);
    Goal = Simp.simplify(substVar(Goal, Name, Repl));
  }

  // Deduplicate.
  std::set<TermRef> Seen;
  std::vector<TermRef> Dedup;
  for (TermRef H : Out)
    if (Seen.insert(H).second)
      Dedup.push_back(H);
  return Dedup;
}

//===----------------------------------------------------------------------===//
// Sub-solvers
//===----------------------------------------------------------------------===//

static bool proveArithCallback(const std::vector<TermRef> &Facts,
                               TermRef Goal) {
  if (Goal->isTrue())
    return true;
  return LinearSolver::prove(Facts, Goal);
}

bool PureSolver::tryDefault(const std::vector<TermRef> &Hyps, TermRef Goal) {
  if (Goal->isTrue())
    return true;
  // Direct hypothesis match.
  for (TermRef H : Hyps)
    if (H == Goal)
      return true;
  // A false hypothesis proves anything.
  for (TermRef H : Hyps)
    if (H->isFalse())
      return true;
  // Linear arithmetic over Nat/Int (incl. equalities and disequalities).
  if (LinearSolver::prove(Hyps, Goal))
    return true;
  // Simple list reasoning is folded into the simplifier; an equality that
  // survives simplification without becoming true is out of scope for the
  // default solver unless arithmetic can close it.
  return false;
}

bool PureSolver::tryCollections(const std::vector<TermRef> &Hyps, TermRef Goal,
                                std::string &EngineOut) {
  bool WantMSet = solverEnabled("multiset_solver");
  bool WantSet = solverEnabled("set_solver");
  if (!WantMSet && !WantSet)
    return false;

  // Derived membership instances may make a previously stuck arithmetic goal
  // provable.
  std::vector<TermRef> Extended = Hyps;
  for (TermRef D : CollectionSolver::instantiateMembershipForalls(Hyps))
    Extended.push_back(Simp.simplify(D));
  if (Extended.size() != Hyps.size() &&
      LinearSolver::prove(Extended, Goal)) {
    EngineOut = WantMSet ? "multiset_solver" : "set_solver";
    return true;
  }
  if (CollectionSolver::prove(Extended, Goal, proveArithCallback)) {
    EngineOut = WantMSet ? "multiset_solver" : "set_solver";
    return true;
  }
  return false;
}

bool PureSolver::tryLemmas(const std::vector<TermRef> &Hyps, TermRef Goal,
                           std::string &EngineOut) {
  if (Lemmas.empty())
    return false;

  // Candidate instantiation terms: subterms of the goal and hypotheses.
  std::vector<TermRef> Candidates;
  std::set<TermRef> Seen;
  auto Collect = [&](TermRef T, auto &&Self) -> void {
    if (!Seen.insert(T).second)
      return;
    Candidates.push_back(T);
    for (TermRef A : T->args())
      Self(A, Self);
  };
  Collect(Goal, Collect);
  for (TermRef H : Hyps)
    Collect(H, Collect);

  // Instantiate each (possibly nested) Forall lemma at matching-sort
  // candidates, bounded.
  std::vector<TermRef> Instances;
  std::string UsedLemma;
  for (const Lemma &L : Lemmas) {
    std::vector<TermRef> Frontier = {L.Prop};
    for (int Level = 0; Level < 3; ++Level) {
      std::vector<TermRef> Next;
      for (TermRef F : Frontier) {
        if (F->kind() != TermKind::Forall) {
          Next.push_back(F);
          continue;
        }
        unsigned Used = 0;
        for (TermRef C : Candidates) {
          if (C->sort() != F->binderSort() || C->kind() == TermKind::EVar)
            continue;
          Next.push_back(substVar(F->arg(0), F->name(), C));
          if (++Used >= 16)
            break;
        }
      }
      Frontier = std::move(Next);
    }
    for (TermRef I : Frontier)
      if (I->kind() != TermKind::Forall)
        Instances.push_back(Simp.simplify(I));
    if (UsedLemma.empty())
      UsedLemma = L.Name;
  }

  std::vector<TermRef> Extended = Hyps;
  for (TermRef I : Instances) {
    // Instances may be implications whose guard is provable; expose both the
    // raw instance and, when the guard holds, its conclusion.
    Extended.push_back(I);
    if (I->kind() == TermKind::Implies &&
        LinearSolver::prove(Hyps, I->arg(0)))
      Extended.push_back(I->arg(1));
    if (I->kind() == TermKind::Eq || I->kind() == TermKind::Le ||
        I->kind() == TermKind::Lt)
      continue;
  }
  for (TermRef I : Extended)
    if (I == Goal) {
      EngineOut = "lemma:" + UsedLemma;
      return true;
    }
  if (LinearSolver::prove(Extended, Goal)) {
    EngineOut = "lemma:" + UsedLemma;
    return true;
  }
  // Lemmas + collection reasoning together.
  if (CollectionSolver::prove(Extended, Goal, proveArithCallback)) {
    EngineOut = "lemma:" + UsedLemma;
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Main proving loop
//===----------------------------------------------------------------------===//

/// Finds the first Ite subterm (for case splitting), preferring the goal.
static TermRef findIte(TermRef T) {
  if (T->kind() == TermKind::Ite)
    return T;
  for (TermRef A : T->args())
    if (TermRef R = findIte(A))
      return R;
  return nullptr;
}

/// Replaces all occurrences of \p Ite (a specific Ite node) by one branch.
static TermRef replaceIte(TermRef T, TermRef Ite, bool Then) {
  if (T == Ite)
    return Then ? Ite->arg(1) : Ite->arg(2);
  return mapArgs(T, [&](TermRef A) { return replaceIte(A, Ite, Then); });
}

SolveResult PureSolver::proveCore(std::vector<TermRef> Hyps, TermRef Goal,
                                  EvarEnv &Env, int Depth) {
  SolveResult Res;
  if (Depth > 24) {
    Res.FailureReason = "solver depth limit reached";
    return Res;
  }

  Goal = Simp.simplify(Env.resolve(Goal));
  Hyps = preprocessHyps(std::move(Hyps), Env, Goal);

  if (Goal->isTrue()) {
    Res.Proved = true;
    Res.Engine = "default";
    return Res;
  }

  // --- Evar heuristics (Section 5) ---
  if (containsEVar(Goal)) {
    // A bare boolean evar as a proposition: commit to true (resp. false
    // under negation). This instantiates the `ok` of optional result types.
    if (Goal->kind() == TermKind::EVar && Goal->sort() == Sort::Bool) {
      Env.unseal(Goal->num());
      if (Env.bind(Goal->num(), mkTrue()))
        return proveCore(std::move(Hyps), mkTrue(), Env, Depth + 1);
    }
    if (Goal->kind() == TermKind::Not &&
        Goal->arg(0)->kind() == TermKind::EVar &&
        Goal->arg(0)->sort() == Sort::Bool) {
      TermRef EV = Goal->arg(0);
      Env.unseal(EV->num());
      if (Env.bind(EV->num(), mkFalse()))
        return proveCore(std::move(Hyps), mkTrue(), Env, Depth + 1);
    }
    if (Goal->kind() == TermKind::Eq) {
      if (unifyTerms(Goal->arg(0), Goal->arg(1), Env))
        return proveCore(std::move(Hyps), mkTrue(), Env, Depth + 1);
      // Unification failed: fall through and let solvers try (they treat
      // unresolved evars as opaque atoms).
    } else if (Goal->kind() == TermKind::Ne) {
      // ?xs != []  ~>  ?xs := y :: ys  (fresh evars), per the paper.
      TermRef A = Env.resolve(Goal->arg(0)), B = Env.resolve(Goal->arg(1));
      if (A->kind() == TermKind::EVar && B->kind() == TermKind::LNil) {
        TermRef H = Env.fresh(Sort::Nat, "hd");
        TermRef T = Env.fresh(Sort::List, "tl");
        Env.unseal(A->num());
        if (Env.bind(A->num(), mkLCons(H, T)))
          return proveCore(std::move(Hyps), mkTrue(), Env, Depth + 1);
      }
      // Note: we deliberately do NOT destructure `?m != {[]}` into a
      // singleton union: the engine postpones such conditions instead, and
      // the evar is determined by a later subsumption (Section 5 discusses
      // exactly this provability trade-off of simplification rules).
    } else if (Goal->kind() == TermKind::And) {
      SolveResult R1 = proveCore(Hyps, Goal->arg(0), Env, Depth + 1);
      if (!R1.Proved)
        return R1;
      SolveResult R2 = proveCore(std::move(Hyps), Goal->arg(1), Env, Depth + 1);
      R2.Manual |= R1.Manual;
      return R2;
    }
  }

  // --- Structural decomposition ---
  switch (Goal->kind()) {
  case TermKind::And: {
    SolveResult R1 = proveCore(Hyps, Goal->arg(0), Env, Depth + 1);
    if (!R1.Proved)
      return R1;
    SolveResult R2 = proveCore(std::move(Hyps), Goal->arg(1), Env, Depth + 1);
    R2.Manual |= R1.Manual;
    if (R1.Manual)
      R2.Engine = R1.Engine;
    return R2;
  }
  case TermKind::Implies: {
    std::vector<TermRef> Extended = Hyps;
    for (TermRef E : Simp.expandHyp(Goal->arg(0)))
      Extended.push_back(E);
    return proveCore(std::move(Extended), Goal->arg(1), Env, Depth + 1);
  }
  case TermKind::Or: {
    SolveResult R1 = proveCore(Hyps, Goal->arg(0), Env, Depth + 1);
    if (R1.Proved)
      return R1;
    return proveCore(std::move(Hyps), Goal->arg(1), Env, Depth + 1);
  }
  case TermKind::Exists: {
    // Introduce a fresh unsealed evar for the witness.
    TermRef W = Env.fresh(Goal->binderSort(), Goal->name());
    Env.unseal(W->num());
    TermRef Body = substVar(Goal->arg(0), Goal->name(), W);
    return proveCore(std::move(Hyps), Body, Env, Depth + 1);
  }
  default:
    break;
  }

  // --- Ite case splitting ---
  TermRef Ite = findIte(Goal);
  if (!Ite) {
    for (TermRef H : Hyps)
      if ((Ite = findIte(H)))
        break;
  }
  if (Ite && !containsEVar(Ite->arg(0))) {
    TermRef Cond = Ite->arg(0);
    bool AllManual = false;
    std::string Engine = "default";
    for (bool Then : {true, false}) {
      std::vector<TermRef> Branch;
      for (TermRef H : Hyps)
        Branch.push_back(Simp.simplify(replaceIte(H, Ite, Then)));
      Branch.push_back(Then ? Cond : Simp.simplify(mkNot(Cond)));
      TermRef BGoal = Simp.simplify(replaceIte(Goal, Ite, Then));
      SolveResult R = proveCore(std::move(Branch), BGoal, Env, Depth + 1);
      if (!R.Proved)
        return R;
      AllManual |= R.Manual;
      if (R.Manual)
        Engine = R.Engine;
    }
    Res.Proved = true;
    Res.Manual = AllManual;
    Res.Engine = Engine;
    return Res;
  }

  // --- Implication hypotheses: expose conclusions with provable guards ---
  {
    std::vector<TermRef> Derived;
    for (TermRef H : Hyps)
      if (H->kind() == TermKind::Implies &&
          LinearSolver::prove(Hyps, H->arg(0)))
        Derived.push_back(H->arg(1));
    for (TermRef D : Derived)
      for (TermRef E : Simp.expandHyp(D))
        Hyps.push_back(E);
  }

  // --- Leaf dispatch: the solver portfolio (DESIGN.md) ---
  Res = dispatchLeaf(Hyps, Goal);
  if (!Res.Proved)
    Res.FailureReason = "cannot prove side condition: " + Goal->str();
  return Res;
}

SolveResult PureSolver::dispatchLeaf(const std::vector<TermRef> &Hyps,
                                     TermRef Goal) {
  // Fixed priority order, automatic engines first: the first backend that
  // proves the goal is its Figure-7 attribution. Collections and lemmas
  // fail fast when nothing is enabled.
  SolveResult Res;
  std::string Engine;
  if (tryDefault(Hyps, Goal)) {
    Res.Engine = "default";
  } else if (Portfolio != PortfolioMode::Off &&
             BitVectorSolver::relevant(Hyps, Goal) &&
             BitVectorSolver::prove(Hyps, Goal)) {
    Res.Engine = "bitvector";
  } else if (tryCollections(Hyps, Goal, Engine) ||
             tryLemmas(Hyps, Goal, Engine)) {
    Res.Manual = true;
    Res.Engine = std::move(Engine);
  } else {
    return Res;
  }
  Res.Proved = true;
  return Res;
}

SolveResult PureSolver::prove(const std::vector<TermRef> &Hyps, TermRef Goal,
                              EvarEnv &Env) {
  trace::TraceSession *TS = trace::current();
  std::chrono::steady_clock::time_point T0;
  if (TS)
    T0 = std::chrono::steady_clock::now();
  trace::Span ProveSpan(trace::Category::Solver, "solver.prove");
  SolveResult R = proveCore(Hyps, Goal, Env, 0);
  if (!R.Proved)
    ++Stats.Failed;
  else if (R.Manual)
    ++Stats.ManualProved;
  else
    ++Stats.AutoProved;
  if (TS) {
    trace::MetricsRegistry &MR = TS->metrics();
    MR.counter("solver.calls").add(1);
    MR.counter(!R.Proved   ? "solver.failed"
               : R.Manual  ? "solver.proved_manual"
                           : "solver.proved_auto")
        .add(1);
    // Per-engine attribution (Figure-7 accounting per backend), fixed by
    // the leaf dispatch's priority order.
    if (R.Proved)
      MR.counter("solver.engine." + R.Engine).add(1);
    MR.duration("solver.time_us").add(std::chrono::steady_clock::now() - T0);
  }
  return R;
}
