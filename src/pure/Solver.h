//===- Solver.h - The pure side-condition solver ---------------*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The orchestrating solver for pure verification conditions (step C of the
/// paper's Figure 2). A goal is first simplified and its evars eliminated via
/// the Section 5 heuristics (equality unification, goal transforms such as
/// `?xs != [] ~> ?xs := y :: ys`); then the leaf backends try it in one fixed
/// priority order (DESIGN.md, "Solver portfolio"): the *default* solver
/// (linear arithmetic and lists), the bit-vector backend, the enabled extra
/// solvers (`multiset_solver`, `set_solver`; counted as manual, matching the
/// Figure 7 accounting), and registered lemmas, which model manual Coq
/// proofs.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_PURE_SOLVER_H
#define RCC_PURE_SOLVER_H

#include "pure/EvarEnv.h"
#include "pure/Simplify.h"
#include "pure/Term.h"

#include <string>
#include <vector>

namespace rcc::pure {

/// Leaf dispatch of the pure solver (VerifyOptions::Portfolio).
enum class PortfolioMode {
  Off, ///< the pre-portfolio dispatch: no bit-vector backend
  On,  ///< every backend, the bit-vector one included (the default)
};

/// Parses "off" / "on". Returns false on anything else.
bool parsePortfolioMode(const std::string &S, PortfolioMode &M);

/// Outcome of a side-condition proof attempt.
struct SolveResult {
  bool Proved = false;
  bool Manual = false;   ///< required an extra solver or a lemma
  std::string Engine;    ///< "default", "multiset_solver", "lemma:<name>", ...
  std::string FailureReason;
};

/// A registered fact modeling a manual Coq proof (e.g. properties of the
/// hashmap's functional probing function). PureLines feeds the Figure 7
/// "Pure" column.
struct Lemma {
  std::string Name;
  TermRef Prop;
  unsigned PureLines = 0;
};

struct SolverStats {
  unsigned AutoProved = 0;
  unsigned ManualProved = 0;
  unsigned Failed = 0;
};

/// Copyable: the parallel driver clones a per-job solver from a session
/// prototype.
class PureSolver {
public:
  /// Enables a named extra solver ("multiset_solver" / "set_solver"),
  /// corresponding to the paper's rc::tactics annotation.
  void enableSolver(const std::string &Name);
  bool solverEnabled(const std::string &Name) const;
  void clearExtraSolvers() { ExtraSolvers.clear(); }

  void addLemma(Lemma L) { Lemmas.push_back(std::move(L)); }
  const std::vector<Lemma> &lemmas() const { return Lemmas; }
  void clearLemmas() { Lemmas.clear(); }

  /// Proves \p Goal under hypotheses \p Hyps, possibly instantiating evars
  /// in \p Env (this is the only place sealed evars get unsealed).
  SolveResult prove(const std::vector<TermRef> &Hyps, TermRef Goal,
                    EvarEnv &Env);

  /// Selects the leaf backends (DESIGN.md, "Solver portfolio"): `Off`
  /// skips the bit-vector backend, restoring the pre-portfolio dispatch.
  void setPortfolioMode(PortfolioMode M) { Portfolio = M; }
  PortfolioMode portfolioMode() const { return Portfolio; }

  Simplifier &simplifier() { return Simp; }
  const Simplifier &simplifier() const { return Simp; }
  SolverStats &stats() { return Stats; }
  const SolverStats &stats() const { return Stats; }
  void resetStats() { Stats = SolverStats(); }

private:
  SolveResult proveCore(std::vector<TermRef> Hyps, TermRef Goal, EvarEnv &Env,
                        int Depth);
  /// Evar-free leaf dispatch: tries the backends in fixed priority order
  /// and attributes the goal to the first that proves it.
  SolveResult dispatchLeaf(const std::vector<TermRef> &Hyps, TermRef Goal);
  bool tryDefault(const std::vector<TermRef> &Hyps, TermRef Goal);
  bool tryCollections(const std::vector<TermRef> &Hyps, TermRef Goal,
                      std::string &EngineOut);
  bool tryLemmas(const std::vector<TermRef> &Hyps, TermRef Goal,
                 std::string &EngineOut);
  std::vector<TermRef> preprocessHyps(std::vector<TermRef> Hyps,
                                      const EvarEnv &Env, TermRef &Goal);

  Simplifier Simp;
  std::vector<std::string> ExtraSolvers;
  std::vector<Lemma> Lemmas;
  SolverStats Stats;
  PortfolioMode Portfolio = PortfolioMode::On;
};

} // namespace rcc::pure

#endif // RCC_PURE_SOLVER_H
