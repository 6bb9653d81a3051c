//===- ParallelVerifyTest.cpp - Parallel driver determinism & cache -------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contracts of the parallel session driver (DESIGN.md, "Concurrency
/// model"): verifyAll with Jobs=2, 4 or 8 must be byte-identical to Jobs=1 —
/// including error messages, fresh-variable names, and derivation step
/// counts — across the whole case-study suite; and a second verifyAll on an
/// unchanged session must be served entirely from the content-hash cache
/// with identical results.
///
//===----------------------------------------------------------------------===//

#include "DerivTranscript.h"
#include "casestudies/CaseStudies.h"
#include "fleet/Monorepo.h"
#include "frontend/Frontend.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "pure/Term.h"
#include "refinedc/Checker.h"
#include "refinedc/FnHash.h"
#include "support/Arena.h"
#include "support/Util.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <unistd.h>

using namespace rcc;
using namespace rcc::refinedc;

namespace {

/// Serializes every observable field of a FnResult except CacheHit (the one
/// field that legitimately differs between a fresh and a cached run).
std::string serialize(const FnResult &R) {
  std::ostringstream OS;
  OS << R.Name << '\x1f' << R.Verified << '\x1f' << R.Trusted << '\x1f'
     << R.Error << '\x1f' << R.ErrorLoc.Line << ':' << R.ErrorLoc.Col
     << '\x1f';
  for (const std::string &C : R.ErrorContext)
    OS << C << '\x1e';
  OS << '\x1f' << R.Stats.RuleApps << '\x1f' << R.Stats.SideCondAuto << '\x1f'
     << R.Stats.SideCondManual << '\x1f' << R.Stats.GoalSteps << '\x1f';
  for (lithium::Label L : R.Stats.RulesUsed.byName())
    OS << L.name() << '\x1e';
  OS << '\x1f' << R.EvarsInstantiated << '\x1f' << R.BacktrackedSteps
     << '\x1f' << R.Rechecked << '\x1f' << R.RecheckOk << '\x1f'
     << R.Deriv.Steps.size() << '\x1f';
  for (const auto &S : R.Deriv.Steps)
    OS << stepTranscript(S) << '\x1e';
  return OS.str();
}

std::string serialize(const ProgramResult &PR) {
  std::string Out;
  for (const FnResult &R : PR.Fns) {
    Out += serialize(R);
    Out += '\n';
  }
  return Out;
}

} // namespace

TEST(ParallelVerify, JobsTwoFourEightByteIdenticalToJobsOne) {
  // Fresh front end + Checker per job count: the comparison must not be
  // short-circuited by the session cache. Eight jobs oversubscribe a small
  // host and run more workers than most case studies have functions.
  for (const casestudies::CaseStudy &CS : casestudies::allCaseStudies()) {
    std::string Serial;
    for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
      DiagnosticEngine Diags;
      auto AP = front::compileSource(CS.Source, Diags);
      ASSERT_TRUE(AP != nullptr) << CS.Name;
      Checker C(*AP, Diags);
      ASSERT_TRUE(C.buildEnv()) << CS.Name;
      VerifyOptions Opts;
      Opts.Recheck = true;
      Opts.Jobs = Jobs;
      ProgramResult PR = C.verifyFunctions(CS.Functions, Opts);
      EXPECT_EQ(PR.JobsUsed, Jobs);
      EXPECT_TRUE(PR.allVerified() && PR.allRechecksOk()) << CS.Name;
      if (Jobs == 1)
        Serial = serialize(PR);
      else
        EXPECT_EQ(serialize(PR), Serial)
            << CS.Name << ": Jobs=" << Jobs
            << " must be byte-identical to Jobs=1";
    }
  }
}

TEST(ParallelVerify, NegativeResultsAreDeterministicAcrossJobs) {
  // Error messages (including rendered contexts with fresh-variable names)
  // must not depend on scheduling.
  std::string Src = R"(
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::returns("{n} @ int<size_t>")]]
size_t bad1(size_t x) { return x + 1; }

[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::returns("{n + 2} @ int<size_t>")]]
size_t bad2(size_t x) { return x; }

[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::returns("{n} @ int<size_t>")]]
size_t good(size_t x) { return x; }
)";
  std::string Ser[2];
  for (int Run = 0; Run < 2; ++Run) {
    DiagnosticEngine Diags;
    auto AP = front::compileSource(Src, Diags);
    ASSERT_TRUE(AP != nullptr);
    Checker C(*AP, Diags);
    ASSERT_TRUE(C.buildEnv());
    VerifyOptions Opts;
    Opts.Jobs = Run == 0 ? 1 : 4;
    ProgramResult PR = C.verifyAll(Opts);
    ASSERT_EQ(PR.Fns.size(), 3u);
    EXPECT_FALSE(PR.allVerified());
    Ser[Run] = serialize(PR);
  }
  EXPECT_EQ(Ser[0], Ser[1]);
}

TEST(ParallelVerify, SecondRunIsAllCacheHits) {
  const auto &All = casestudies::allCaseStudies();
  ASSERT_FALSE(All.empty());
  const casestudies::CaseStudy &CS = All.front();

  DiagnosticEngine Diags;
  auto AP = front::compileSource(CS.Source, Diags);
  ASSERT_TRUE(AP != nullptr);
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv());

  VerifyOptions Opts;
  Opts.Recheck = true;
  ProgramResult First = C.verifyFunctions(CS.Functions, Opts);
  EXPECT_EQ(First.CacheHits, 0u);
  EXPECT_EQ(First.CacheMisses, (unsigned)CS.Functions.size());
  for (const FnResult &R : First.Fns)
    EXPECT_FALSE(R.CacheHit);

  ProgramResult Second = C.verifyFunctions(CS.Functions, Opts);
  EXPECT_EQ(Second.CacheHits, (unsigned)CS.Functions.size());
  EXPECT_EQ(Second.CacheMisses, 0u);
  for (const FnResult &R : Second.Fns)
    EXPECT_TRUE(R.CacheHit) << R.Name;
  EXPECT_EQ(serialize(First), serialize(Second));
}

TEST(ParallelVerify, OptionChangeMissesCache) {
  const casestudies::CaseStudy &CS = casestudies::allCaseStudies().front();
  DiagnosticEngine Diags;
  auto AP = front::compileSource(CS.Source, Diags);
  ASSERT_TRUE(AP != nullptr);
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv());

  (void)C.verifyFunctions(CS.Functions, {});
  VerifyOptions Recheck;
  Recheck.Recheck = true; // different result contents -> different key
  ProgramResult PR = C.verifyFunctions(CS.Functions, Recheck);
  EXPECT_EQ(PR.CacheHits, 0u);

  // Jobs is NOT part of the key: results are job-count-independent.
  VerifyOptions Par = Recheck;
  Par.Jobs = 4;
  ProgramResult PR2 = C.verifyFunctions(CS.Functions, Par);
  EXPECT_EQ(PR2.CacheMisses, 0u);
}

TEST(ParallelVerify, MutatingTheSessionInvalidatesTheCache) {
  const casestudies::CaseStudy &CS = casestudies::allCaseStudies().front();
  DiagnosticEngine Diags;
  auto AP = front::compileSource(CS.Source, Diags);
  ASSERT_TRUE(AP != nullptr);
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv());

  (void)C.verifyFunctions(CS.Functions, {});
  C.solver(); // non-const access: a user extension could have mutated it
  ProgramResult PR = C.verifyFunctions(CS.Functions, {});
  EXPECT_EQ(PR.CacheHits, 0u) << "mutable access must invalidate";
}

TEST(ParallelVerify, JsonRendering) {
  std::string Src = R"(
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::returns("{n} @ int<size_t>")]]
size_t idf(size_t x) { return x; }
)";
  DiagnosticEngine Diags;
  auto AP = front::compileSource(Src, Diags);
  ASSERT_TRUE(AP != nullptr);
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv());
  VerifyOptions Opts;
  Opts.Recheck = true;
  std::string J = C.verifyAll(Opts).toJson();
  EXPECT_NE(J.find("\"all_verified\": true"), std::string::npos) << J;
  EXPECT_NE(J.find("\"name\": \"idf\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"verified\": true"), std::string::npos) << J;
  EXPECT_NE(J.find("\"recheck_ok\": true"), std::string::npos) << J;
  EXPECT_NE(J.find("\"rule_apps\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"cache_misses\": 1"), std::string::npos) << J;
}

TEST(ParallelVerify, ConcurrentSessionsShareTheRuleLibrary) {
  // Every session dispatches through the one process-wide rule library, so
  // sessions on four threads read it at once; each thread's results must be
  // byte-identical to a serial run's. The threads run first, so when this
  // test runs alone they are also the library's first users.
  auto VerifyCorpus = [] {
    std::vector<std::string> Out;
    for (const casestudies::CaseStudy &CS : casestudies::allCaseStudies()) {
      DiagnosticEngine Diags;
      auto AP = front::compileSource(CS.Source, Diags);
      if (!AP) {
        Out.push_back(CS.Name + ": front end failed");
        continue;
      }
      Checker C(*AP, Diags);
      if (!C.buildEnv()) {
        Out.push_back(CS.Name + ": spec environment failed");
        continue;
      }
      VerifyOptions Opts;
      Opts.Recheck = true;
      Out.push_back(serialize(C.verifyFunctions(CS.Functions, Opts)));
    }
    return Out;
  };
  constexpr unsigned kThreads = 4;
  std::vector<std::vector<std::string>> Concurrent(kThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < kThreads; ++T)
    Threads.emplace_back([&, T] { Concurrent[T] = VerifyCorpus(); });
  for (std::thread &Th : Threads)
    Th.join();
  const std::vector<std::string> Serial = VerifyCorpus();
  ASSERT_EQ(Serial.size(), 12u);
  for (unsigned T = 0; T < kThreads; ++T)
    EXPECT_EQ(Concurrent[T], Serial) << "thread " << T;
}

TEST(ParallelVerify, RegistryNameIndex) {
  lithium::RuleRegistry R;
  registerStandardRules(R);
  ASSERT_GT(R.numRules(), 50u);
  EXPECT_TRUE(R.hasRule(lithium::Label::intern("T-STMT")));
  EXPECT_TRUE(R.hasRule(lithium::Label::intern("READ-INT")));
  EXPECT_FALSE(R.hasRule(lithium::Label::intern("definitely_not_a_rule")));
  // A label resolves to the rule it names.
  const lithium::Rule *Read = R.rule(lithium::Label::intern("READ-INT"));
  ASSERT_NE(Read, nullptr);
  EXPECT_EQ(Read->Name, "READ-INT");
  // Built-in steps are no registry rules.
  EXPECT_FALSE(R.hasRule(lithium::Builtin::UnfoldNamed));
}

//===----------------------------------------------------------------------===//
// Large units: lowering and function specs run per function on a pool
//===----------------------------------------------------------------------===//

namespace {

constexpr unsigned kLargeUnit = 300;
static_assert(kLargeUnit >= front::kPoolMinFunctions,
              "the large-unit tests must exercise the pooled front end");

/// \p Src with the first \p From in the block of monorepo function \p Fn
/// (its annotations and body) replaced by \p To.
std::string editFunction(std::string Src, unsigned Fn, const std::string &From,
                         const std::string &To) {
  size_t At = Src.find(fleet::monorepoFnName(Fn) + "(");
  size_t Begin = Src.rfind("\n\n", At);
  size_t Pos = Src.find(From, Begin);
  EXPECT_LT(Pos, Src.find("\n\n", At)) << From << " not in " << Fn;
  return Src.replace(Pos, From.size(), To);
}

/// The name and bytes of every entry file a run published into \p Dir.
std::map<std::string, std::string> entryFiles(const std::string &Dir) {
  std::map<std::string, std::string> Out;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    std::ifstream In(E.path(), std::ios::binary);
    Out[E.path().filename().string()].assign(
        std::istreambuf_iterator<char>(In), std::istreambuf_iterator<char>());
  }
  return Out;
}

/// The rendered diagnostics of compiling \p Src and building its
/// environment; empty when both succeed.
std::string frontErrors(const std::string &Src) {
  DiagnosticEngine Diags;
  auto AP = front::compileSource(Src, Diags);
  if (AP) {
    Checker C(*AP, Diags);
    C.buildEnv();
  }
  return Diags.render(Src);
}

/// \p Src with \p Text inserted before the block of monorepo function
/// \p Fn.
std::string insertBefore(std::string Src, unsigned Fn,
                         const std::string &Text) {
  size_t At = Src.find(fleet::monorepoFnName(Fn) + "(");
  return Src.insert(Src.rfind("\n\n", At) + 2, Text);
}

/// A function whose parameter is named like the typedef declared after it,
/// so it must not see the typedef; then a function that uses the typedef.
const char *kNameThenTypedef = R"(unsigned int uses_name(unsigned int cnt_t) {
  cnt_t = cnt_t + 1;
  return cnt_t;
}

typedef unsigned int cnt_t;

[[rc::parameters("n: nat")]]
[[rc::args("n @ int<u32>")]]
[[rc::returns("n @ int<u32>")]]
cnt_t uses_type(cnt_t x) {
  cnt_t y = x;
  return y;
}

)";

/// Loops with invariant annotations, and an annotation before a statement
/// that is no loop, which the parser warns about.
const char *kLoops = R"([[rc::parameters("n: nat")]]
[[rc::args("n @ int<u32>")]]
[[rc::returns("n @ int<u32>")]]
unsigned int count_up(unsigned int x) {
  unsigned int i = 0;
  [[rc::exists("k: nat")]]
  [[rc::inv_vars("i: k @ int<u32>")]]
  [[rc::constraints("{k <= n}")]]
  while (i < x) {
    i = i + 1;
  }
  [[rc::constraints("{1 <= 2}")]]
  i = i + 0;
  for (unsigned int j = 0; j < 2; j = j + 1) {
    [[rc::exists("m: nat")]]
    do { j = j + 0; } while (0);
  }
  return i;
}

)";

/// 300 monorepo functions with the front end's corner cases among them:
/// kNameThenTypedef, kLoops, and a prototype after its definition.
std::string cornerUnit() {
  std::string Src = fleet::monorepoSource(kLargeUnit, /*FailEvery=*/7);
  Src = insertBefore(Src, 100, kNameThenTypedef);
  Src = insertBefore(Src, 200, kLoops);
  return Src + "unsigned int " + fleet::monorepoFnName(10) +
         "(unsigned int x);\n";
}

/// What a function's FnInfo says apart from its body's lowering.
std::string metadataRecord(const front::FnInfo &FI) {
  std::ostringstream OS;
  auto Print = [&](const char *What, const std::vector<front::RcAnnot> &As) {
    OS << " " << What;
    for (const front::RcAnnot &A : As) {
      OS << " " << A.Kind << "@" << A.Loc.str() << "(";
      for (const std::string &Arg : A.Args)
        OS << Arg << ";";
      OS << ")";
    }
    OS << "\n";
  };
  OS << FI.Name << ": " << FI.RetTy->str() << " at " << FI.Loc.str()
     << " range " << FI.Range.Begin.str() << "-" << FI.Range.End.str()
     << " name " << FI.NameRange.Begin.str() << "-"
     << FI.NameRange.End.str() << " body " << FI.HasBody << "\n";
  for (const front::CParam &P : FI.Params)
    OS << " param " << P.Name << ": " << P.Ty->str() << "\n";
  Print("annots", FI.Annots);
  for (const auto &As : FI.LoopAnnots)
    Print("loop", As);
  return OS.str();
}

/// One definition as the front end produced it: its FnInfo fields, its
/// locals' types and loop annotations, its printed Caesium body, and its
/// content key, which covers every expression's location as well.
std::string definitionRecord(const front::AnnotatedProgram &AP,
                             const std::string &Name) {
  const front::FnInfo &FI = AP.Fns.at(Name);
  std::ostringstream OS;
  OS << metadataRecord(FI);
  for (const auto &[Slot, Ty] : FI.LocalTypes)
    OS << " local " << Slot << ": " << Ty->str() << "\n";
  const caesium::Function *Fn = AP.Prog.function(Name);
  EXPECT_TRUE(Fn != nullptr) << Name;
  if (Fn) {
    OS << " returns " << Fn->RetSize << " bytes\n";
    for (const auto &[Slot, Size] : Fn->Params)
      OS << " param slot " << Slot << " " << Size << "\n";
    for (const auto &[Slot, Size] : Fn->Locals)
      OS << " slot " << Slot << " " << Size << "\n";
    for (size_t B = 0; B < Fn->Blocks.size(); ++B) {
      OS << " block " << B << " annot " << Fn->Blocks[B].AnnotId << "\n";
      for (const caesium::Stmt &S : Fn->Blocks[B].Stmts)
        OS << "  " << static_cast<int>(S.K) << "@" << S.Loc.str() << " "
           << S.Target1 << " " << S.Target2 << " " << S.Msg << " "
           << (S.E ? S.E->str() : "") << "\n";
    }
  }
  OS << " key " << hashFunctionContent(AP, Name, 0, 0) << "\n";
  return OS.str();
}

/// \p Src with the body of every definition in \p AP but those in \p Keep
/// blanked into a prototype's `;`: the lines and columns stay put, so the
/// definitions kept keep every location.
std::string keepBodies(const std::string &Src,
                       const front::AnnotatedProgram &AP,
                       const std::set<std::string> &Keep) {
  const std::vector<size_t> Starts = lineStarts(Src);
  auto Offset = [&](SourceLoc L) { return Starts[L.Line - 1] + L.Col - 1; };
  std::string Out = Src;
  for (const auto &[Name, FI] : AP.Fns) {
    if (!FI.HasBody || Keep.count(Name))
      continue;
    size_t Begin = Out.find('{', Offset(FI.NameRange.End));
    Out[Begin] = ';';
    for (size_t I = Begin + 1; I < Offset(FI.Range.End); ++I)
      if (Out[I] != '\n')
        Out[I] = ' ';
  }
  return Out;
}

/// The annotation lists of \p S's annotated loops, in the order lowering
/// numbers them.
void loopAnnots(const front::CStmt *S,
                std::vector<std::vector<front::RcAnnot>> &Out) {
  if (!S)
    return;
  if (!S->LoopAnnots.empty())
    Out.push_back(S->LoopAnnots);
  for (const front::CStmtPtr &Sub : S->Body)
    loopAnnots(Sub.get(), Out);
  loopAnnots(S->Then.get(), Out);
  loopAnnots(S->Else.get(), Out);
  loopAnnots(S->ForInit.get(), Out);
  loopAnnots(S->LoopBody.get(), Out);
}

/// Checks that the serial parser, over the tokens of \p Src, which
/// compileSource compiled without an error, reports none either and
/// declares what the compiled unit holds: every function's metadata (the
/// first definition's, else the last prototype's), and the names of its
/// structs, typedefs and globals.
void expectSerialParserAgrees(const std::string &Src) {
  DiagnosticEngine Diags;
  auto AP = front::compileSource(Src, Diags);
  ASSERT_TRUE(AP != nullptr) << Diags.render(Src);
  DiagnosticEngine SerialDiags;
  front::Parser P(front::lexSource(Src, SerialDiags), SerialDiags);
  const front::CTranslationUnit TU = P.parseTranslationUnit();
  EXPECT_FALSE(SerialDiags.hasErrors()) << SerialDiags.render(Src);

  std::map<std::string, std::string> Serial;
  std::set<std::string> Defined;
  for (const front::CFuncDecl &FD : TU.Functions) {
    if (Defined.count(FD.Name))
      continue;
    front::FnInfo FI;
    FI.Name = FD.Name;
    FI.RetTy = FD.RetTy;
    FI.Params = FD.Params;
    FI.Annots = FD.Annots;
    loopAnnots(FD.Body.get(), FI.LoopAnnots);
    FI.Loc = FD.Loc;
    FI.HasBody = FD.Body != nullptr;
    FI.Range = {FD.Loc, FD.EndLoc};
    FI.NameRange = {FD.NameLoc, FD.NameEnd};
    Serial[FD.Name] = metadataRecord(FI);
    if (FD.Body)
      Defined.insert(FD.Name);
  }
  std::map<std::string, std::string> Compiled;
  for (const auto &[Name, FI] : AP->Fns) {
    Compiled[Name] = metadataRecord(FI);
    EXPECT_EQ(AP->Prog.function(Name) != nullptr, FI.HasBody) << Name;
  }
  EXPECT_EQ(Serial, Compiled);

  std::vector<std::string> SerialNames, CompiledNames;
  for (const front::CStructDecl &SD : TU.Structs)
    SerialNames.push_back("struct " + SD.Name);
  for (const front::CTypedef &TD : TU.Typedefs)
    SerialNames.push_back("typedef " + TD.Name + "@" + TD.Loc.str());
  for (const front::CGlobalDecl &GD : TU.Globals)
    SerialNames.push_back("global " + GD.Name);
  for (const auto &[Name, SI] : AP->Structs)
    CompiledNames.push_back("struct " + Name);
  for (const front::CTypedef &TD : AP->Typedefs)
    CompiledNames.push_back("typedef " + TD.Name + "@" + TD.Loc.str());
  for (const auto &[Name, GI] : AP->Globals)
    CompiledNames.push_back("global " + Name);
  std::sort(SerialNames.begin(), SerialNames.end());
  std::sort(CompiledNames.begin(), CompiledNames.end());
  EXPECT_EQ(SerialNames, CompiledNames);
}

/// Units with one front-end error each, named for what is wrong.
std::vector<std::pair<std::string, std::string>> errorUnits() {
  const std::string Base = fleet::monorepoSource(kLargeUnit);
  const std::string Body = editFunction(Base, 250, "return y", "return y y");
  return {
      {"malformed annotation",
       editFunction(Base, 150, "[[rc::args(", "[[rc:args(")},
      {"body syntax error", Body},
      {"both, in source order",
       editFunction(Body, 40, "[[rc::requires(", "[[rc::requires(7")},
      {"typedef used before its declaration",
       insertBefore(Base, 120,
                    "unsigned int early(unsigned int x) {\n"
                    "  cnt_t y = x;\n"
                    "  return y;\n"
                    "}\n\n"
                    "typedef unsigned int cnt_t;\n\n")},
      {"redefinition",
       Base + "unsigned int " + fleet::monorepoFnName(20) +
           "(unsigned int x) { return x; }\n"},
  };
}

} // namespace

TEST(LargeUnit, CompileAndBuildEnvAreDeterministic) {
  const std::string Src = fleet::monorepoSource(kLargeUnit, /*FailEvery=*/7);
  std::vector<std::string> Keys[2], Json;
  for (int Run = 0; Run < 2; ++Run) {
    DiagnosticEngine Diags;
    auto AP = front::compileSource(Src, Diags);
    ASSERT_TRUE(AP != nullptr) << Diags.render(Src);
    Checker C(*AP, Diags);
    ASSERT_TRUE(C.buildEnv()) << Diags.render(Src);
    ASSERT_EQ(AP->Fns.size(), kLargeUnit);
    uint64_t EnvFp = hashSpecEnvironment(*AP);
    for (const auto &[Name, FI] : AP->Fns)
      Keys[Run].push_back(
          Name + " " +
          std::to_string(hashFunctionContent(*AP, Name, EnvFp,
                                             C.rules().fingerprint())));
    VerifyOptions Opts;
    Opts.Jobs = 4;
    Json.push_back(C.verifyAll(Opts).toStableJson());
  }
  EXPECT_EQ(Keys[0], Keys[1]);
  EXPECT_EQ(Json[0], Json[1]);
}

TEST(LargeUnit, LoweringErrorsKeepDeclarationOrder) {
  std::string Src = fleet::monorepoSource(kLargeUnit);
  for (unsigned Fn : {7u, 150u, 299u})
    Src = editFunction(Src, Fn, "x +", "zz +");
  EXPECT_EQ(frontErrors(Src),
            "error: 61:20: use of undeclared identifier 'zz'\n"
            "  |   unsigned int y = zz + 8;\n"
            "  |                    ^\n"
            "error: 1206:50: use of undeclared identifier 'zz'\n"
            "  | unsigned int fn_0000150(unsigned int x) { return zz + 8; }\n"
            "  |                                                  ^\n"
            "error: 2398:23: use of undeclared identifier 'zz'\n"
            "  |   if (x < 1) { return zz + 1; }\n"
            "  |                       ^\n");
}

TEST(LargeUnit, SpecErrorsStopAtTheFirstFunctionInNameOrder) {
  std::string Src = fleet::monorepoSource(kLargeUnit);
  for (unsigned Fn : {120u, 40u})
    Src = editFunction(Src, Fn, "rc::args(\"n @ int<u32>\")",
                       "rc::args(\"n @ int<u32\")");
  EXPECT_EQ(frontErrors(Src),
            "error: 321:3: in spec 'n @ int<u32': expected '>' after "
            "int<...\n"
            "  | [[rc::args(\"n @ int<u32\")]]\n"
            "  |   ^\n");
}

TEST(LargeUnit, PrototypeThenDefinition) {
  const std::string Name = fleet::monorepoFnName(150);
  const std::string Src = fleet::monorepoSource(kLargeUnit);
  const std::string WithPrototype =
      "unsigned int " + Name + "(unsigned int x);\n" + Src;
  DiagnosticEngine Diags;
  auto AP = front::compileSource(WithPrototype, Diags);
  ASSERT_TRUE(AP != nullptr) << Diags.render(WithPrototype);
  const front::FnInfo &FI = AP->Fns.at(Name);
  EXPECT_TRUE(FI.HasBody);
  EXPECT_EQ(FI.Annots.size(), 4u) << "the definition's spec";
  EXPECT_TRUE(AP->Prog.function(Name) != nullptr);
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv()) << Diags.render(WithPrototype);
  FnResult R = C.verifyFunction(Name, {});
  EXPECT_TRUE(R.Verified) << R.Error;
}

TEST(LargeUnit, StoreEntriesDoNotDependOnTheJobCount) {
  // Each job keys its own function, so keys and entries must come out the
  // same whichever job computed them: identical file names (the keys) and
  // identical bytes, failing functions' entries included.
  const std::string Src = fleet::monorepoSource(kLargeUnit, /*FailEvery=*/7);
  struct TempRoot {
    std::filesystem::path Path =
        std::filesystem::temp_directory_path() /
        ("rcc_jobs_keys_" + std::to_string(::getpid()));
    ~TempRoot() { std::filesystem::remove_all(Path); }
  } Root;
  std::map<std::string, std::string> Serial;
  for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
    const std::string Dir =
        (Root.Path / ("j" + std::to_string(Jobs))).string();
    DiagnosticEngine Diags;
    auto AP = front::compileSource(Src, Diags);
    ASSERT_TRUE(AP != nullptr) << Diags.render(Src);
    Checker C(*AP, Diags);
    ASSERT_TRUE(C.buildEnv()) << Diags.render(Src);
    VerifyOptions Opts;
    Opts.Jobs = Jobs;
    Opts.Recheck = true;
    Opts.CacheDir = Dir;
    ProgramResult PR = C.verifyAll(Opts);
    ASSERT_EQ(PR.CacheMisses, kLargeUnit);
    std::map<std::string, std::string> Entries = entryFiles(Dir);
    ASSERT_EQ(Entries.size(), kLargeUnit);
    if (Jobs == 1) {
      Serial = std::move(Entries);
      continue;
    }
    auto Mismatch = std::mismatch(Serial.begin(), Serial.end(),
                                  Entries.begin(), Entries.end());
    EXPECT_TRUE(Mismatch.first == Serial.end())
        << "at " << Jobs << " jobs, entry " << Mismatch.first->first
        << " differs or is missing";
  }
}

TEST(LargeUnit, PooledFrontEndMatchesThePlainLoop) {
  // Each definition is parsed, lowered and freed in its own pool task. A
  // unit that keeps fewer than kPoolMinFunctions definitions runs the same
  // tasks in a plain loop, so every definition is compiled again in such a
  // unit, where the other bodies are blanked out, and must come out the
  // same.
  const std::string Src = cornerUnit();
  DiagnosticEngine Diags;
  auto AP = front::compileSource(Src, Diags);
  ASSERT_TRUE(AP != nullptr) << Diags.render(Src);
  std::vector<std::pair<SourceLoc, std::string>> Defs;
  for (const auto &[Name, FI] : AP->Fns)
    if (FI.HasBody)
      Defs.push_back({FI.Loc, Name});
  ASSERT_EQ(Defs.size(), kLargeUnit + 3);
  std::sort(Defs.begin(), Defs.end(), [](const auto &A, const auto &B) {
    return A.first.Line < B.first.Line;
  });
  constexpr size_t kWindow = front::kPoolMinFunctions - 1;
  std::string LoopDiags;
  for (size_t Lo = 0; Lo < Defs.size(); Lo += kWindow) {
    std::set<std::string> Keep;
    for (size_t I = Lo; I < std::min(Defs.size(), Lo + kWindow); ++I)
      Keep.insert(Defs[I].second);
    const std::string Part = keepBodies(Src, *AP, Keep);
    DiagnosticEngine PartDiags;
    auto Ref = front::compileSource(Part, PartDiags);
    ASSERT_TRUE(Ref != nullptr) << PartDiags.render(Part);
    for (const std::string &Name : Keep)
      EXPECT_EQ(definitionRecord(*AP, Name), definitionRecord(*Ref, Name));
    LoopDiags += PartDiags.render(Part);
  }
  EXPECT_EQ(Diags.render(Src), LoopDiags);
  // Recorded with the serial parser, which parsed every body in turn.
  EXPECT_EQ(Diags.render(Src),
            "warning: 1574:3: annotations are only meaningful before loops "
            "here\n"
            "  |   i = i + 0;\n"
            "  |   ^\n");
  const front::FnInfo &Early = AP->Fns.at(fleet::monorepoFnName(10));
  EXPECT_TRUE(Early.HasBody) << "a prototype after a definition";
  EXPECT_EQ(AP->Fns.at("count_up").LoopAnnots.size(), 2u)
      << "the annotated while and do loops";
}

TEST(LargeUnit, SerialParserAgreesWhereTheOutlineSucceeds) {
  // compileSource runs the serial parser only when the outline or a
  // definition's parse reports an error, so both must accept the same
  // input and declare the same unit.
  for (const casestudies::CaseStudy &CS : casestudies::allCaseStudies()) {
    SCOPED_TRACE(CS.Id);
    expectSerialParserAgrees(CS.Source);
  }
  SCOPED_TRACE("cornerUnit");
  expectSerialParserAgrees(cornerUnit());
}

TEST(LargeUnit, FrontEndErrorsKeepTheSerialParsersText) {
  // Recorded with the serial parser and lowering, which reported each
  // error in source order.
  const std::string BodyError = "error: 2006:12: expected ';' but found "
                                "'y'\n"
                                "  |   return y y + 4;\n"
                                "  |            ^\n";
  const std::map<std::string, std::string> Expected = {
      {"malformed annotation",
       "error: 1203:6: expected ':' but found 'args'\n"
       "  | [[rc:args(\"n @ int<u32>\")]]\n"
       "  |      ^\n"},
      {"body syntax error", BodyError},
      {"both, in source order",
       "error: 323:16: annotation arguments must be string literals\n"
       "  | [[rc::requires(7\"{n <= 940}\")]]\n"
       "  |                ^\n"
       "error: 323:17: expected ')' but found '{n <= 940}'\n"
       "  | [[rc::requires(7\"{n <= 940}\")]]\n"
       "  |                 ^\n"
       "error: 323:17: expected ']]'\n"
       "  | [[rc::requires(7\"{n <= 940}\")]]\n"
       "  |                 ^\n" +
           BodyError},
      {"typedef used before its declaration",
       "error: 963:9: expected ';' but found 'y'\n"
       "  |   cnt_t y = x;\n"
       "  |         ^\n"},
      {"redefinition",
       "error: 2402:14: redefinition of 'fn_0000020'\n"
       "  | unsigned int fn_0000020(unsigned int x) { return x; }\n"
       "  |              ^\n"
       "note: 165:14: previous definition of 'fn_0000020' is here\n"
       "  | unsigned int fn_0000020(unsigned int x) {\n"
       "  |              ^\n"},
  };
  for (const auto &[What, Src] : errorUnits())
    EXPECT_EQ(frontErrors(Src), Expected.at(What)) << What;
}

TEST(LargeUnit, NoSearchNodeOutlivesItsOwner) {
  // Every type, goal and judgment that compile, buildEnv and verify build
  // belongs to the session's arenas or to its job's arena. A builder that
  // ran with neither installed would put its node in the process-lifetime
  // fallback arena, where it would outlive both.
  struct TempRoot {
    std::filesystem::path Path =
        std::filesystem::temp_directory_path() /
        ("rcc_arena_owner_" + std::to_string(::getpid()));
    ~TempRoot() { std::filesystem::remove_all(Path); }
  } Root;
  std::vector<std::pair<std::string, std::string>> Units;
  for (const casestudies::CaseStudy &CS : casestudies::allCaseStudies())
    Units.push_back({CS.Id, CS.Source});
  Units.push_back({"monorepo", fleet::monorepoSource(kLargeUnit, 7)});
  const size_t Before = fallbackArenaNodes();
  for (const auto &[Id, Src] : Units) {
    // Cold, then warm through the L2 the cold run filled.
    for (int Run = 0; Run < 2; ++Run) {
      DiagnosticEngine Diags;
      auto AP = front::compileSource(Src, Diags);
      ASSERT_TRUE(AP != nullptr) << Id << Diags.render(Src);
      Checker C(*AP, Diags);
      ASSERT_TRUE(C.buildEnv()) << Id << Diags.render(Src);
      VerifyOptions Opts;
      Opts.Jobs = 4;
      Opts.Recheck = true;
      Opts.CacheDir = (Root.Path / Id).string();
      ProgramResult PR = C.verifyAll(Opts);
      ASSERT_FALSE(PR.Fns.empty()) << Id;
      EXPECT_EQ(PR.L2Hits > 0, Run == 1) << Id;
    }
  }
  EXPECT_EQ(fallbackArenaNodes(), Before);
}

TEST(LargeUnit, ConcurrentPooledSessionsAgree) {
  // Two sessions, each on a different pooled unit, compile, build their
  // environments and verify at 4 jobs at the same time, so their pools'
  // threads interleave leases of both sessions' arenas and jobs of both
  // sessions. Each must get exactly what it gets alone.
  const std::string Srcs[2] = {fleet::monorepoSource(kLargeUnit, 7),
                               fleet::monorepoSource(kLargeUnit + 1, 5)};
  auto Run = [](const std::string &Src) {
    DiagnosticEngine Diags;
    auto AP = front::compileSource(Src, Diags);
    if (!AP)
      return "front end failed: " + Diags.render(Src);
    Checker C(*AP, Diags);
    if (!C.buildEnv())
      return "spec environment failed: " + Diags.render(Src);
    VerifyOptions Opts;
    Opts.Jobs = 4;
    Opts.Recheck = true;
    ProgramResult PR = C.verifyAll(Opts);
    return serialize(PR) + PR.toStableJson();
  };
  std::string Concurrent[2];
  std::vector<std::thread> Threads;
  for (int I = 0; I < 2; ++I)
    Threads.emplace_back([&, I] { Concurrent[I] = Run(Srcs[I]); });
  for (std::thread &Th : Threads)
    Th.join();
  for (int I = 0; I < 2; ++I) {
    const std::string Alone = Run(Srcs[I]);
    EXPECT_NE(Alone.find(fleet::monorepoFnName(kLargeUnit - 1)),
              std::string::npos);
    EXPECT_EQ(Concurrent[I], Alone) << "unit " << I;
  }
}

TEST(ParallelVerify, ConcurrentMakeInternsEachTermOnce) {
  // Four threads build the same terms, in rotated orders so they race on
  // the same keys. Names are longer than the short-string buffer and the
  // applications take three and four arguments, so every lookup borrows a
  // heap name and an argument list.
  using namespace rcc::pure;
  constexpr unsigned kThreads = 4, kGroups = 64, kTermsPerGroup = 6;
  auto Build = [](unsigned G) {
    const std::string Tag = "concurrent_make_group_" + std::to_string(G);
    TermRef X = mkVar(Tag + "_x", Sort::Nat);
    TermRef Z = mkVar(Tag + "_z", Sort::Nat);
    TermRef L = mkVar(Tag + "_list", Sort::List);
    TermRef F = mkApp("concurrent_make_function", Sort::Nat, {X, Z, X});
    TermRef U = mkLUpdate(L, X, F);
    return mkApp("concurrent_make_function", Sort::Nat, {U, F, Z, X});
  };
  const size_t Before = arena().size();
  std::vector<std::vector<TermRef>> Made(kThreads,
                                         std::vector<TermRef>(kGroups));
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < kThreads; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I < kGroups; ++I) {
        const unsigned G = (I + T * kGroups / kThreads) % kGroups;
        Made[T][G] = Build(G);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_EQ(arena().size() - Before, size_t(kGroups) * kTermsPerGroup);
  for (unsigned T = 1; T < kThreads; ++T)
    EXPECT_EQ(Made[T], Made[0]) << "thread " << T;
  for (unsigned G = 0; G < kGroups; ++G)
    EXPECT_EQ(Build(G), Made[0][G]) << "a later make finds the same term";
  EXPECT_EQ(arena().size() - Before, size_t(kGroups) * kTermsPerGroup);
}
