//===- Evaluate.cpp -------------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "casestudies/Evaluate.h"

#include "caesium/Interp.h"
#include "frontend/Frontend.h"
#include "refinedc/Checker.h"
#include "support/Util.h"

#include <sstream>

using namespace rcc;
using namespace rcc::casestudies;
using namespace rcc::refinedc;

Fig7Row rcc::casestudies::evaluateCaseStudy(const CaseStudy &CS,
                                            const EvalOptions &Opts) {
  // Null-safe: when Opts.Trace is unset, an ambient session installed by a
  // caller stays in effect.
  trace::SessionScope TraceScope(Opts.Trace);
  Fig7Row Row;
  Row.Name = CS.Name;
  Row.Class = CS.Class;
  Row.TypesUsed = CS.TypesUsed;

  DiagnosticEngine Diags;
  auto AP = front::compileSource(CS.Source, Diags);
  if (!AP) {
    Row.Error = "front end: " + Diags.render(CS.Source);
    return Row;
  }
  Checker C(*AP, Diags);
  if (!C.buildEnv()) {
    Row.Error = "spec: " + Diags.render(CS.Source);
    return Row;
  }

  VerifyOptions VO;
  VO.Backtracking = Opts.Backtracking;
  VO.Recheck = Opts.RunProofCheck && !Opts.Backtracking;
  VO.Portfolio = Opts.Portfolio;
  ProgramResult PR = C.verifyFunctions(CS.Functions, VO);

  lithium::LabelSet Rules;
  for (const FnResult &R : PR.Fns) {
    if (!R.Verified && Row.Error.empty())
      Row.Error = R.renderError(CS.Source);
    Row.RuleApps += R.Stats.RuleApps;
    for (lithium::Label L : R.Stats.RulesUsed.byName())
      Rules.insert(L);
    Row.SideCondAuto += R.Stats.SideCondAuto;
    Row.SideCondManual += R.Stats.SideCondManual;
    Row.EvarsInstantiated += R.EvarsInstantiated;
    Row.BacktrackedSteps += R.BacktrackedSteps;
  }
  Row.VerifyMillis = PR.WallMillis;
  Row.Verified = PR.allVerified();
  Row.ProofCheckOk = Row.Verified && PR.allRechecksOk();
  Row.DistinctRules = static_cast<unsigned>(Rules.size());

  SourceLineStats LS = countSourceLines(CS.Source);
  Row.ImplLines = LS.Impl;
  Row.SpecLines = LS.FnSpec;
  Row.AnnotStructInv = LS.StructInv;
  Row.AnnotLoop = LS.Loop;
  Row.AnnotOther = LS.OtherAnnot;
  Row.AnnotLines = LS.annot();
  Row.PureLines = C.pureLines();
  if (Row.ImplLines > 0)
    Row.Overhead =
        static_cast<double>(Row.AnnotLines + Row.PureLines) / Row.ImplLines;
  return Row;
}

std::vector<Fig7Row> rcc::casestudies::evaluateAll(const EvalOptions &Opts) {
  std::vector<Fig7Row> Rows;
  for (const CaseStudy &CS : allCaseStudies())
    Rows.push_back(evaluateCaseStudy(CS, Opts));
  return Rows;
}

std::string
rcc::casestudies::renderFig7Table(const std::vector<Fig7Row> &Rows) {
  std::ostringstream OS;
  char Buf[256];
  snprintf(Buf, sizeof(Buf),
           "%-5s %-28s %-22s %-10s %4s %8s %5s %5s %5s %5s %5s %6s\n",
           "Class", "Test", "Types used", "Rules", "∃", "[phi]", "Impl",
           "Spec", "Annot", "Pure", "Ovh", "ms");
  OS << Buf;
  OS << std::string(120, '-') << "\n";
  for (const Fig7Row &R : Rows) {
    char Rules[32], Phi[32], Annot[32], Ovh[16];
    snprintf(Rules, sizeof(Rules), "%u/%u", R.DistinctRules, R.RuleApps);
    snprintf(Phi, sizeof(Phi), "%u/%u", R.SideCondAuto, R.SideCondManual);
    snprintf(Annot, sizeof(Annot), "%u(%u/%u/%u)", R.AnnotLines,
             R.AnnotStructInv, R.AnnotLoop, R.AnnotOther);
    snprintf(Ovh, sizeof(Ovh), "~%.1f", R.Overhead);
    snprintf(Buf, sizeof(Buf),
             "%-5s %-28s %-22s %-10s %4u %8s %5u %5u %12s %5u %5s %6.1f %s\n",
             R.Class.c_str(), R.Name.c_str(), R.TypesUsed.c_str(), Rules,
             R.EvarsInstantiated, Phi, R.ImplLines, R.SpecLines, Annot,
             R.PureLines, Ovh, R.VerifyMillis,
             R.Verified ? (R.ProofCheckOk ? "[ok]" : "[ok, recheck FAILED]")
                        : "[FAILED]");
    OS << Buf;
  }
  return OS.str();
}

std::string
rcc::casestudies::runSemantics(const CaseStudy &CS,
                               const std::vector<uint64_t> &Seeds) {
  DiagnosticEngine Diags;
  auto AP = front::compileSource(CS.Source, Diags);
  if (!AP)
    return "front end failed";
  if (CS.Driver.empty())
    return "";
  for (uint64_t Seed : Seeds) {
    caesium::Machine M(AP->Prog, Seed);
    caesium::ExecResult R = M.run(CS.Driver, {});
    if (!R.ok())
      return "seed " + std::to_string(Seed) + ": " + R.Message;
  }
  return "";
}
