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
#include "pure/Term.h"
#include "refinedc/Checker.h"
#include "refinedc/FnHash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
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
  for (const std::string &N : R.Stats.RulesUsed)
    OS << N << '\x1e';
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
  EXPECT_TRUE(R.hasRule("T-STMT"));
  EXPECT_TRUE(R.hasRule("READ-INT"));
  EXPECT_FALSE(R.hasRule("definitely_not_a_rule"));
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
