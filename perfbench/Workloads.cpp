//===- Workloads.cpp - The benchmark's workloads --------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Generator.h"

#include "frontend/Frontend.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "refinedc/Checker.h"
#include "refinedc/FnHash.h"
#include "refinedc/ProofChecker.h"
#include "store/ResultStore.h"
#include "store/Serialize.h"
#include "trace/Trace.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <stdexcept>

using namespace perfbench;
using namespace rcc;
using refinedc::FnResult;
using refinedc::ProgramResult;
using refinedc::VerifyOptions;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

/// Functions in the monorepo, and how many one mono_edit edit flips
/// between their two variants.
constexpr unsigned kMonorepoFunctions = 5000;
constexpr size_t kEditFlips = 5;

/// The waterfall of a traced pass: disjoint spans in the order they run.
/// frontend.compile_s covers compileSource, which lexes and parses again
/// before it lowers; frontend.lower_s is derived from the three.
const char *const kSpans[] = {
    "frontend.lex_s",       "frontend.parse_s",    "frontend.compile_s",
    "refinedc.build_env_s", "refinedc.hash_s",     "refinedc.search_s",
    "refinedc.replay_s",    "pure.prove_s",        "store.serialize_s",
    "store.deserialize_s",  "store.put_s",         "store.get_s",
    "driver.verify_functions_s"};

/// Counts that depend only on the inputs: they must repeat exactly in every
/// traced round.
const char *const kStableCounts[] = {
    "frontend.tokens",         "proofcheck.steps",
    "engine.goal_steps",       "engine.rule_apps",
    "engine.rule.matches",     "engine.subsume.memo_hit",
    "engine.subsume.memo_miss", "pure.calls",
    "pure.proved",             "store.entries",
    "store.entry_bytes_total", "store.hits",
    "store.lookups"};

/// Counts that must also repeat exactly between one job and several.
const char *const kJobCounts[] = {"frontend.tokens",  "engine.goal_steps",
                                  "engine.rule_apps", "proofcheck.steps",
                                  "store.hits",       "store.lookups"};

/// Peak resident memory of this process image. VmHWM, unlike ru_maxrss,
/// starts afresh at exec, so a large parent (the Python runner) does not
/// leak into it.
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // the line is in kB
  return 0.0;
}

/// One store directory under the run's temp directory, removed with it.
class StoreDir {
public:
  explicit StoreDir(std::string P) : Path(std::move(P)) {
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  ~StoreDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  StoreDir(const StoreDir &) = delete;
  StoreDir &operator=(const StoreDir &) = delete;

  const std::string &path() const { return Path; }

  /// The entry files now in the directory.
  std::set<std::string> entries() const {
    std::set<std::string> Out;
    for (const auto &E : fs::directory_iterator(Path))
      if (E.path().extension() == ".rcv")
        Out.insert(E.path().filename().string());
    return Out;
  }
  /// Removes every entry file not in \p Keep: the writes of a pass.
  void restore(const std::set<std::string> &Keep) const {
    for (const std::string &F : entries())
      if (!Keep.count(F))
        fs::remove(fs::path(Path) / F);
  }

private:
  std::string Path;
};

/// A compiled unit and its verification session.
struct Session {
  rcc::DiagnosticEngine Diags;
  std::unique_ptr<front::AnnotatedProgram> AP;
  std::unique_ptr<refinedc::Checker> C; ///< refers to AP and Diags
};

std::unique_ptr<Session> openSession(const Unit &U) {
  auto S = std::make_unique<Session>();
  S->AP = front::compileSource(U.Source, S->Diags);
  if (!S->AP)
    throw std::runtime_error(U.Id + ": front end: " +
                             S->Diags.render(U.Source));
  S->C = std::make_unique<refinedc::Checker>(*S->AP, S->Diags);
  if (!S->C->buildEnv())
    throw std::runtime_error(U.Id + ": spec: " + S->Diags.render(U.Source));
  return S;
}

struct Pass {
  double Seconds = 0.0;
  ProgramResult PR;
};

/// One pass over \p U: from the source text to every verdict. With \p TS,
/// the program's own tracing records into it, the front end included.
Pass runPass(const Unit &U, const VerifyOptions &VO,
             trace::TraceSession *TS = nullptr) {
  trace::SessionScope Scope(TS);
  auto T0 = Clock::now();
  std::unique_ptr<Session> S = openSession(U);
  VerifyOptions O = VO;
  O.Trace = TS;
  Pass P;
  P.PR = S->C->verifyFunctions(U.Functions, O);
  P.Seconds = secondsSince(T0);
  return P; // the session is torn down after the clock stopped
}

/// Checks each verdict in \p Fns against the known answers of \p U.
void checkVerdicts(const Unit &U, const std::vector<FnResult> &Fns,
                   bool Recheck, const std::string &What, Ledger &L) {
  L.attempt(U.Functions.size());
  for (size_t I = 0; I < U.Functions.size(); ++I) {
    std::string Where = What + " " + U.Id + "/" + U.Functions[I];
    const FnResult *R = I < Fns.size() ? &Fns[I] : nullptr;
    if (!R || R->Name != U.Functions[I])
      L.failure(Where + ": no result");
    else if (R->Verified != U.Expected[I])
      L.failure(Where + (U.Expected[I] ? ": expected to verify: " + R->Error
                                       : ": expected to fail, verified"));
    else if (Recheck && R->Verified && !(R->Rechecked && R->RecheckOk))
      L.failure(Where + ": verified but its derivation did not re-check");
  }
}

/// Runs \p Fn; an exception fails every function of \p U.
template <typename F>
void guarded(const Unit &U, const std::string &What, Ledger &L, F &&Fn) {
  try {
    Fn();
  } catch (const std::exception &E) {
    L.attempt(U.Functions.size());
    for (size_t I = 0; I < U.Functions.size(); ++I)
      L.failure(What + " " + U.Id + ": exception: " + E.what());
  }
}

std::vector<pure::Lemma> lemmasOf(const refinedc::Checker &C,
                                  const std::string &Name) {
  std::vector<pure::Lemma> Out;
  auto It = C.env().FnSpecs.find(Name);
  if (It != C.env().FnSpecs.end())
    for (const auto &[N, P, Lines] : It->second->Lemmas)
      Out.push_back({N, P, Lines});
  return Out;
}

/// What one traced round measured.
struct Round {
  std::map<std::string, double> Spans; ///< waterfall, summed over units
  double Wall = 0.0;                   ///< wall time of the waterfall
  std::map<std::string, uint64_t> Counts;
  double SolverSeconds = 0.0; ///< the program's own solver.time_us
  double Jobs1 = 0.0, JobsN = 0.0;
  double Overhead = 0.0;
  double Publish = 0.0; ///< a cold pass publishing into an empty store
  uint64_t SourceBytes = 0;
};

class Workload {
public:
  Workload(const Config &C, Ledger &L)
      : Cfg(C), L(L), Fig7(C.Workload == "fig7"),
        Edit(C.Workload == "mono_edit"), EditRng(C.Seed ^ 0xed17ull) {}

  void runUntraced();
  void runTraced();

private:
  /// Generates the inputs and compiles them once; returns its wall time.
  /// The first call also populates mono_edit's persistent store, untimed:
  /// creating 5,000 small files took anywhere from 0.2 s to 2.5 s, from one
  /// minute to the next, on a shared 4-vCPU VM with an ext4 disk, and would
  /// swamp the set-up time.
  double setUp();
  VerifyOptions mainOptions(unsigned Jobs) const;
  unsigned mainJobs() const { return Fig7 ? 1 : Cfg.Jobs; }
  /// The units of one main pass: for mono_edit, the monorepo after \p Flips.
  std::vector<Unit> passUnits(const std::vector<size_t> &Flips) const {
    return Edit ? std::vector<Unit>{Mono->render(Flips)} : Units;
  }
  /// A main pass over \p Us; returns its seconds (the sum over units).
  double mainPass(const std::vector<Unit> &Us, unsigned Jobs,
                  trace::TraceSession *TS, const std::string &What);
  /// A cold pass publishing every entry into an empty store directory.
  /// Returns its seconds; \p BytesPerFn receives the store bytes per entry.
  double publishPass(unsigned Jobs, double &BytesPerFn);
  std::string nextDir(const std::string &Label) {
    return Cfg.TmpDir + "/" + Label + "-" + std::to_string(DirCounter++);
  }

  /// The deterministic counts of one traced main pass at \p Jobs.
  std::map<std::string, uint64_t> tracedCounts(unsigned Jobs);
  void selfCheckJobs();
  /// One traced round: the waterfall of every unit, then the job-scaling
  /// pair and the tracing-overhead pair.
  Round tracedRound(const std::vector<Unit> &Us, bool TracedFirst);
  void layerPass(const Unit &U, Round &R);

  const Config &Cfg;
  Ledger &L;
  const bool Fig7, Edit;
  std::vector<Unit> Units; ///< the unedited inputs
  std::optional<Monorepo> Mono;
  std::unique_ptr<StoreDir> BaseL2; ///< mono_edit's populated store
  std::set<std::string> BaseEntries;
  /// Rule applications of each unit's first pass; every pass must repeat
  /// them.
  std::map<std::string, unsigned> RuleApps;
  Rng EditRng;
  /// The one edit of a traced mono_edit run, so its rounds repeat exactly.
  std::vector<size_t> TraceFlips;
  unsigned DirCounter = 0;
};

VerifyOptions Workload::mainOptions(unsigned Jobs) const {
  VerifyOptions VO;
  VO.Recheck = true;
  VO.Portfolio = pure::PortfolioMode::On;
  VO.Jobs = Jobs;
  if (Cfg.Workload == "mono_cold")
    VO.NoCache = true;
  if (Edit)
    VO.CacheDir = BaseL2->path();
  return VO;
}

double Workload::setUp() {
  Mono.reset();
  Units.clear();
  auto T0 = Clock::now();
  if (Fig7) {
    Units = figure7Corpus(Cfg.Seed);
  } else {
    Mono.emplace(kMonorepoFunctions, Cfg.Seed);
    Units = {Mono->render()};
  }
  for (const Unit &U : Units) {
    rcc::DiagnosticEngine Diags;
    if (!front::compileSource(U.Source, Diags))
      throw std::runtime_error(U.Id + ": front end: " +
                               Diags.render(U.Source));
  }
  const double Seconds = secondsSince(T0);
  if (Edit && !BaseL2) {
    BaseL2 = std::make_unique<StoreDir>(nextDir("l2"));
    Pass P = runPass(Units[0], mainOptions(Cfg.Jobs));
    checkVerdicts(Units[0], P.PR.Fns, true, "populate", L);
    BaseEntries = BaseL2->entries();
  }
  return Seconds;
}

double Workload::mainPass(const std::vector<Unit> &Us, unsigned Jobs,
                          trace::TraceSession *TS, const std::string &What) {
  double Seconds = 0.0;
  for (const Unit &U : Us) {
    guarded(U, What, L, [&] {
      Pass P = runPass(U, mainOptions(Jobs), TS);
      Seconds += P.Seconds;
      checkVerdicts(U, P.PR.Fns, true, What, L);
      if (Edit)
        return; // store hits do no engine work
      unsigned Apps = 0;
      for (const FnResult &R : P.PR.Fns)
        Apps += R.Stats.RuleApps;
      auto [It, First] = RuleApps.emplace(U.Id, Apps);
      if (!First && It->second != Apps)
        L.checkFailed(U.Id + ": rule applications changed between passes: " +
                      std::to_string(It->second) + " vs " +
                      std::to_string(Apps));
    });
    if (Edit)
      BaseL2->restore(BaseEntries); // the next pass sees the same store
  }
  return Seconds;
}

double Workload::publishPass(unsigned Jobs, double &BytesPerFn) {
  StoreDir Dir(nextDir("publish"));
  VerifyOptions VO = mainOptions(Jobs);
  VO.NoCache = false;
  VO.CacheDir = Dir.path();
  double Seconds = 0.0;
  for (const Unit &U : Units)
    guarded(U, "publish", L, [&] {
      Pass P = runPass(U, VO);
      Seconds += P.Seconds;
      checkVerdicts(U, P.PR.Fns, true, "publish", L);
    });
  uint64_t Bytes = store::DiskResultStore(Dir.path()).sizeBytes();
  size_t Entries = Dir.entries().size();
  BytesPerFn = Entries ? static_cast<double>(Bytes) / Entries : 0.0;
  return Seconds;
}

void Workload::runUntraced() {
  // One round: several main passes, then a fresh set-up for the next
  // round. Rounds repeat until the run's time is spent; the last one is
  // always completed. Set-ups are spread over the run like the passes, so
  // a slow phase of the host weighs on both alike.
  constexpr unsigned PassesPerRound = 10;
  std::vector<double> Setups{setUp()};
  std::vector<double> Passes;
  auto T0 = Clock::now();
  do {
    for (unsigned I = 0; I < PassesPerRound; ++I)
      Passes.push_back(
          mainPass(passUnits(Edit ? Mono->pickFlips(EditRng, kEditFlips)
                                  : std::vector<size_t>{}),
                   mainJobs(), nullptr, "pass"));
    Setups.push_back(setUp());
  } while (secondsSince(T0) < Cfg.Seconds);
  const double Elapsed = secondsSince(T0);
  // Entry size is a count, so one untimed publish pass gives it.
  double BytesPerFn = 0.0;
  publishPass(mainJobs(), BytesPerFn);

  std::sort(Passes.begin(), Passes.end());
  fprintf(stderr,
          "perfbench: %zu set-ups, %zu passes in %.2f s; pass min=%.4f "
          "median=%.4f p90=%.4f max=%.4f s\n",
          Setups.size(), Passes.size(), Elapsed, Passes.front(),
          median(Passes), quantile(Passes, 0.9), Passes.back());
  L.metric("setup_s", "s", median(Setups));
  L.metric("verify_s", "s", median(Passes));
  L.metric("verify_s.p90", "s", quantile(Passes, 0.9));
  L.metric("store_bytes_per_fn", "B", BytesPerFn);
  L.metric("peak_rss_mb", "MB", peakRssMb());
}

std::map<std::string, uint64_t> Workload::tracedCounts(unsigned Jobs) {
  trace::TraceSession TS;
  std::map<std::string, uint64_t> Out;
  for (const Unit &U : passUnits(TraceFlips)) {
    guarded(U, "jobs check", L, [&] {
      Pass P = runPass(U, mainOptions(Jobs), &TS);
      checkVerdicts(U, P.PR.Fns, true, "jobs check", L);
      Out["store.hits"] += P.PR.CacheHits;
      Out["store.lookups"] += P.PR.CacheHits + P.PR.CacheMisses;
    });
    if (Edit)
      BaseL2->restore(BaseEntries);
  }
  for (const auto &[Name, V] : TS.metrics().counters())
    if (Name == "frontend.tokens" || Name == "proofcheck.steps" ||
        Name.rfind("engine.", 0) == 0)
      Out[Name] = V;
  return Out;
}

void Workload::selfCheckJobs() {
  double Bytes1 = 0.0, BytesN = 0.0;
  publishPass(1, Bytes1);
  publishPass(Cfg.Jobs, BytesN);
  if (Bytes1 != BytesN)
    L.checkFailed("store_bytes_per_fn differs between 1 and " +
                  std::to_string(Cfg.Jobs) + " jobs");
  auto C1 = tracedCounts(1);
  auto CN = tracedCounts(Cfg.Jobs);
  for (const char *Name : kJobCounts)
    if (C1[Name] != CN[Name])
      L.checkFailed(std::string(Name) + " differs between 1 and " +
                    std::to_string(Cfg.Jobs) + " jobs: " +
                    std::to_string(C1[Name]) + " vs " +
                    std::to_string(CN[Name]));
}

void Workload::layerPass(const Unit &U, Round &R) {
  const size_t N = U.Functions.size();
  auto W0 = Clock::now();
  auto Span = [&](const char *Name, auto &&Fn) {
    auto T = Clock::now();
    Fn();
    R.Spans[Name] += secondsSince(T);
  };

  // Front end: lexing and parsing on their own, then the whole compile.
  rcc::DiagnosticEngine LexDiags;
  std::vector<front::Token> Toks;
  Span("frontend.lex_s", [&] { Toks = front::lexSource(U.Source, LexDiags); });
  R.Counts["frontend.tokens"] += Toks.size();
  R.SourceBytes += U.Source.size();
  std::optional<front::Parser> Parser;
  front::CTranslationUnit TU;
  Span("frontend.parse_s", [&] {
    Parser.emplace(std::move(Toks), LexDiags);
    TU = Parser->parseTranslationUnit();
  });
  if (LexDiags.hasErrors())
    throw std::runtime_error(U.Id + ": front end: " +
                             LexDiags.render(U.Source));
  rcc::DiagnosticEngine Diags;
  std::unique_ptr<front::AnnotatedProgram> AP;
  Span("frontend.compile_s",
       [&] { AP = front::compileSource(U.Source, Diags); });
  if (!AP)
    throw std::runtime_error(U.Id + ": front end: " + Diags.render(U.Source));

  // RefinedC: environment, content hashes, search, derivation replay.
  refinedc::Checker C(*AP, Diags);
  bool EnvOk = false;
  Span("refinedc.build_env_s", [&] { EnvOk = C.buildEnv(); });
  if (!EnvOk)
    throw std::runtime_error(U.Id + ": spec: " + Diags.render(U.Source));
  std::vector<uint64_t> Keys(N);
  Span("refinedc.hash_s", [&] {
    uint64_t EnvFp = refinedc::hashSpecEnvironment(*AP);
    uint64_t SessionFp = C.rules().fingerprint();
    for (size_t I = 0; I < N; ++I)
      Keys[I] = refinedc::hashFunctionContent(*AP, U.Functions[I], EnvFp,
                                              SessionFp);
  });
  std::vector<FnResult> Rs(N);
  VerifyOptions SearchOpts;
  SearchOpts.Recheck = false; // verifyFunction bypasses the store
  Span("refinedc.search_s", [&] {
    for (size_t I = 0; I < N; ++I)
      Rs[I] = C.verifyFunction(U.Functions[I], SearchOpts);
  });
  checkVerdicts(U, Rs, false, "search", L);
  uint64_t Steps = 0, BadReplays = 0;
  Span("refinedc.replay_s", [&] {
    for (size_t I = 0; I < N; ++I) {
      if (!Rs[I].Verified || Rs[I].Trusted)
        continue;
      refinedc::ProofChecker PC(C.rules());
      BadReplays += !PC.check(Rs[I].Deriv, lemmasOf(C, U.Functions[I])).Ok;
      Steps += Rs[I].Deriv.Steps.size();
    }
  });
  R.Counts["proofcheck.steps"] += Steps;
  if (BadReplays)
    L.checkFailed(U.Id + ": " + std::to_string(BadReplays) +
                  " derivations failed to replay");

  // Pure solvers: every recorded side condition, through a fresh solver
  // configured as the proof checker configures its own.
  uint64_t Calls = 0, Proved = 0;
  Span("pure.prove_s", [&] {
    for (size_t I = 0; I < N; ++I) {
      if (!Rs[I].Verified || Rs[I].Trusted)
        continue;
      pure::PureSolver Solver;
      Solver.enableSolver("multiset_solver");
      Solver.enableSolver("set_solver");
      for (pure::Lemma &Lm : lemmasOf(C, U.Functions[I]))
        Solver.addLemma(std::move(Lm));
      for (const lithium::DerivStep &S : Rs[I].Deriv.Steps) {
        if (S.K != lithium::DerivStep::SideCond || !S.Prop)
          continue;
        pure::EvarEnv Evars;
        ++Calls;
        Proved += Solver.prove(S.Hyps, S.Prop, Evars).Proved;
      }
    }
  });
  R.Counts["pure.calls"] += Calls;
  R.Counts["pure.proved"] += Proved;

  // Store: the entry codec, then the on-disk tier.
  std::vector<std::string> Payloads(N);
  Span("store.serialize_s", [&] {
    for (size_t I = 0; I < N; ++I)
      Payloads[I] = store::serializeFnResult(Rs[I]);
  });
  uint64_t BadEntries = 0;
  Span("store.deserialize_s", [&] {
    for (size_t I = 0; I < N; ++I) {
      FnResult Out;
      BadEntries += !store::deserializeFnResult(Payloads[I], Out) ||
                    Out.Verified != Rs[I].Verified;
    }
  });
  StoreDir Dir(nextDir("layer"));
  store::DiskResultStore Disk(Dir.path());
  Span("store.put_s", [&] {
    for (size_t I = 0; I < N; ++I)
      Disk.put(U.Functions[I], Keys[I], Rs[I]);
  });
  Span("store.get_s", [&] {
    for (size_t I = 0; I < N; ++I) {
      FnResult Out;
      BadEntries += !Disk.get(U.Functions[I], Keys[I], Out) ||
                    Out.Verified != Rs[I].Verified;
    }
  });

  // The driver: the workload's own verifyFunctions call, with the
  // program's tracing on so its registry counters can be read.
  trace::TraceSession TS;
  VerifyOptions VO = mainOptions(mainJobs());
  VO.Trace = &TS;
  ProgramResult PR;
  Span("driver.verify_functions_s",
       [&] { PR = C.verifyFunctions(U.Functions, VO); });
  R.Wall += secondsSince(W0);

  if (BadEntries)
    L.checkFailed(U.Id + ": " + std::to_string(BadEntries) +
                  " store entries did not round-trip");
  R.Counts["store.entries"] += Dir.entries().size();
  R.Counts["store.entry_bytes_total"] += Disk.sizeBytes();
  checkVerdicts(U, PR.Fns, true, "traced pass", L);
  if (Edit)
    BaseL2->restore(BaseEntries);
  R.Counts["store.hits"] += PR.CacheHits;
  R.Counts["store.lookups"] += PR.CacheHits + PR.CacheMisses;
  auto Ctrs = TS.metrics().counters();
  for (const char *Name :
       {"engine.goal_steps", "engine.rule_apps", "engine.rule.matches",
        "engine.subsume.memo_hit", "engine.subsume.memo_miss"})
    R.Counts[Name] += Ctrs[Name];
  R.SolverSeconds += Ctrs["solver.time_us"] / 1e6;

  // Job scaling on this one session; NoCache keeps both runs cold.
  for (unsigned Jobs : {1u, Cfg.Jobs}) {
    VerifyOptions JO = mainOptions(Jobs);
    JO.NoCache = true;
    JO.CacheDir.clear();
    auto T0 = Clock::now();
    ProgramResult JR = C.verifyFunctions(U.Functions, JO);
    (Jobs == 1 ? R.Jobs1 : R.JobsN) += secondsSince(T0);
    checkVerdicts(U, JR.Fns, true, "jobs " + std::to_string(Jobs), L);
  }
}

Round Workload::tracedRound(const std::vector<Unit> &Us, bool TracedFirst) {
  Round R;
  for (const Unit &U : Us)
    guarded(U, "layer pass", L, [&] { layerPass(U, R); });
  // Tracing overhead: the same main pass with and without the program's
  // tracing, in alternating order across rounds.
  double Traced = 0.0, Untraced = 0.0;
  for (bool T : {TracedFirst, !TracedFirst}) {
    if (T) {
      trace::TraceSession TS;
      Traced = mainPass(Us, mainJobs(), &TS, "traced pass");
    } else {
      Untraced = mainPass(Us, mainJobs(), nullptr, "untraced pass");
    }
  }
  R.Overhead = Traced - Untraced;
  double BytesPerFn = 0.0;
  R.Publish = publishPass(mainJobs(), BytesPerFn);
  return R;
}

void Workload::runTraced() {
  setUp();
  if (Edit)
    TraceFlips = Mono->pickFlips(EditRng, kEditFlips);
  selfCheckJobs();
  const std::vector<Unit> Us = passUnits(TraceFlips);

  std::vector<Round> Rounds;
  auto T0 = Clock::now();
  do
    Rounds.push_back(tracedRound(Us, Rounds.size() % 2 == 0));
  while (secondsSince(T0) < Cfg.Seconds);
  const Round &First = Rounds.front();
  for (const Round &R : Rounds)
    for (const char *Name : kStableCounts) {
      auto A = First.Counts.find(Name), B = R.Counts.find(Name);
      uint64_t VA = A == First.Counts.end() ? 0 : A->second;
      uint64_t VB = B == R.Counts.end() ? 0 : B->second;
      if (VA != VB) {
        L.checkFailed(std::string(Name) + " changed between traced rounds: " +
                      std::to_string(VA) + " vs " + std::to_string(VB));
        break;
      }
    }

  // Waterfall quantities are means over rounds, which add up: the mean
  // wall time is exactly the mean spans plus the mean remainder.
  const double K = static_cast<double>(Rounds.size());
  auto Mean = [&](auto &&Of) {
    double Sum = 0.0;
    for (const Round &R : Rounds)
      Sum += Of(R);
    return Sum / K;
  };
  auto SpanMean = [&](const std::string &Name) {
    return Mean([&](const Round &R) {
      auto It = R.Spans.find(Name);
      return It == R.Spans.end() ? 0.0 : It->second;
    });
  };
  std::map<std::string, double> Spans;
  double SpanSum = 0.0;
  for (const char *Name : kSpans)
    SpanSum += Spans[Name] = SpanMean(Name);
  const double Wall = Mean([](const Round &R) { return R.Wall; });
  const double Unaccounted = Wall - SpanSum;
  for (const Round &R : Rounds) {
    double Sum = 0.0;
    for (const auto &[Name, V] : R.Spans)
      Sum += V;
    if (Sum > R.Wall)
      L.checkFailed("traced spans overlap: they sum past the pass wall time");
  }

  std::vector<double> Speedups, Overheads, Publishes;
  for (const Round &R : Rounds) {
    Speedups.push_back(R.JobsN > 0 ? R.Jobs1 / R.JobsN : 0.0);
    Overheads.push_back(R.Overhead);
    Publishes.push_back(R.Publish);
  }
  auto Count = [&](const char *Name) {
    auto It = First.Counts.find(Name);
    return It == First.Counts.end() ? 0.0 : static_cast<double>(It->second);
  };
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };

  const double Lex = Spans["frontend.lex_s"];
  L.metric("frontend.lex_s", "s", Lex);
  L.metric("frontend.lex_mb_per_s", "MB/s",
           Ratio(static_cast<double>(First.SourceBytes) / 1e6, Lex));
  L.metric("frontend.tokens", "count", Count("frontend.tokens"));
  L.metric("frontend.parse_s", "s", Spans["frontend.parse_s"]);
  L.metric("frontend.compile_s", "s", Spans["frontend.compile_s"]);
  L.metric("frontend.lower_s", "s",
           Spans["frontend.compile_s"] - Lex - Spans["frontend.parse_s"]);
  L.metric("refinedc.build_env_s", "s", Spans["refinedc.build_env_s"]);
  L.metric("refinedc.hash_s", "s", Spans["refinedc.hash_s"]);
  L.metric("refinedc.search_s", "s", Spans["refinedc.search_s"]);
  L.metric("refinedc.replay_s", "s", Spans["refinedc.replay_s"]);
  L.metric("proofcheck.steps", "count", Count("proofcheck.steps"));
  L.metric("engine.goal_steps", "count", Count("engine.goal_steps"));
  L.metric("engine.rule_apps", "count", Count("engine.rule_apps"));
  L.metric("engine.rule.matches", "count", Count("engine.rule.matches"));
  const double MemoLookups =
      Count("engine.subsume.memo_hit") + Count("engine.subsume.memo_miss");
  L.metric("engine.subsume.memo_hit_ratio", "ratio",
           Ratio(Count("engine.subsume.memo_hit"), MemoLookups));
  L.metric("engine.subsume.memo_lookups", "count", MemoLookups);
  L.metric("pure.prove_s", "s", Spans["pure.prove_s"]);
  L.metric("pure.calls", "count", Count("pure.calls"));
  L.metric("pure.proved_ratio", "ratio",
           Ratio(Count("pure.proved"), Count("pure.calls")));
  L.metric("solver.time_s", "s",
           Mean([](const Round &R) { return R.SolverSeconds; }));
  L.metric("store.serialize_s", "s", Spans["store.serialize_s"]);
  L.metric("store.deserialize_s", "s", Spans["store.deserialize_s"]);
  L.metric("store.put_s", "s", Spans["store.put_s"]);
  L.metric("store.get_s", "s", Spans["store.get_s"]);
  L.metric("store.entry_bytes", "B",
           Ratio(Count("store.entry_bytes_total"), Count("store.entries")));
  L.metric("store.publish_s", "s", median(Publishes));
  L.metric("store.hit_ratio", "ratio",
           Ratio(Count("store.hits"), Count("store.lookups")));
  L.metric("store.lookups", "count", Count("store.lookups"));
  L.metric("driver.verify_functions_s", "s",
           Spans["driver.verify_functions_s"]);
  L.metric("driver.speedup_j4", "x", median(Speedups));
  L.metric("driver.serial_s", "s",
           Spans["frontend.compile_s"] + Spans["refinedc.build_env_s"]);
  L.metric("pass.wall_s", "s", Wall);
  L.metric("pass.unaccounted_s", "s", Unaccounted);
  L.metric("trace.overhead_s", "s", median(Overheads));
  L.metric("error_rate", "ratio",
           Ratio(static_cast<double>(L.failed()),
                 static_cast<double>(L.attempted())));

  // The waterfall, for people: it sums to the pass wall time.
  printf("waterfall of %s, mean of %zu traced rounds:\n",
         Cfg.Workload.c_str(), Rounds.size());
  auto Row = [&](const std::string &Name, double V) {
    printf("  %-28s %12.6f s %6.1f%%\n", Name.c_str(), V,
           Wall > 0 ? 100.0 * V / Wall : 0.0);
  };
  for (const char *Name : kSpans)
    Row(Name, Spans[Name]);
  Row("pass.unaccounted_s", Unaccounted);
  Row("pass.wall_s", Wall);
}

} // namespace

bool perfbench::knownWorkload(const std::string &Name) {
  return Name == "fig7" || Name == "mono_cold" || Name == "mono_edit";
}

void perfbench::runWorkload(const Config &C, Ledger &L) {
  if (!knownWorkload(C.Workload))
    throw std::runtime_error("unknown workload '" + C.Workload + "'");
  Workload W(C, L);
  if (C.Trace)
    W.runTraced();
  else
    W.runUntraced();
}
