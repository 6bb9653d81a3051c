//===- Evaluate.h - Figure 7 row computation --------------------*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the verifier over a case study and aggregates the measurements the
/// paper reports in Figure 7: distinct typing rules and rule applications,
/// automatically instantiated existentials, side conditions proved
/// automatically vs. manually (extra solvers / lemmas), implementation,
/// specification and annotation line counts, modeled pure-proof lines, and
/// the annotation-overhead ratio.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_CASESTUDIES_EVALUATE_H
#define RCC_CASESTUDIES_EVALUATE_H

#include "casestudies/CaseStudies.h"
#include "pure/Solver.h"
#include "trace/Trace.h"

#include <set>
#include <string>
#include <vector>

namespace rcc::casestudies {

/// One Figure 7 row, measured.
struct Fig7Row {
  std::string Name;
  std::string Class;
  std::string TypesUsed;
  bool Verified = false;
  std::string Error;

  unsigned DistinctRules = 0;
  unsigned RuleApps = 0;
  unsigned EvarsInstantiated = 0;
  unsigned SideCondAuto = 0;
  unsigned SideCondManual = 0;
  unsigned ImplLines = 0;
  unsigned SpecLines = 0;
  unsigned AnnotLines = 0;
  unsigned AnnotStructInv = 0;
  unsigned AnnotLoop = 0;
  unsigned AnnotOther = 0;
  unsigned PureLines = 0;
  double Overhead = 0.0;

  unsigned BacktrackedSteps = 0; ///< ablation runs only
  double VerifyMillis = 0.0;
  bool ProofCheckOk = false;
};

struct EvalOptions {
  bool Backtracking = false; ///< ablation baseline
  bool RunProofCheck = true;
  /// Trace session to record the evaluation into (null: tracing off).
  /// figure7_table uses this to source its BENCH_figure7.json artifact from
  /// the session's MetricsRegistry.
  trace::TraceSession *Trace = nullptr;
  /// Pure-solver leaf dispatch (VerifyOptions::Portfolio). The bench tools
  /// evaluate Off vs. On to measure how many Figure 7 "manual" side
  /// conditions the bit-vector backend discharges automatically.
  pure::PortfolioMode Portfolio = pure::PortfolioMode::On;
};

/// Verifies all annotated functions of \p CS and aggregates the row.
Fig7Row evaluateCaseStudy(const CaseStudy &CS, const EvalOptions &Opts = {});

/// Evaluates the whole suite in Figure 7 order.
std::vector<Fig7Row> evaluateAll(const EvalOptions &Opts = {});

/// Renders rows as the Figure 7 table (ASCII).
std::string renderFig7Table(const std::vector<Fig7Row> &Rows);

/// Executes the case study's driver on \p Seeds interpreter schedules;
/// returns an empty string on success or the first failure description.
std::string runSemantics(const CaseStudy &CS,
                         const std::vector<uint64_t> &Seeds);

} // namespace rcc::casestudies

#endif // RCC_CASESTUDIES_EVALUATE_H
