//===- verify_time.cpp - Verification latency per case study -------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Supplementary benchmark (the paper reports no timings): wall-clock time
/// to verify each case study end to end (front end + spec environment +
/// Lithium search), via google-benchmark.
///
//===----------------------------------------------------------------------===//

#include "casestudies/Evaluate.h"
#include "support/Util.h"
#include "trace/Trace.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>

using namespace rcc::casestudies;

static void BM_Verify(benchmark::State &State, const std::string &Id,
                      rcc::pure::PortfolioMode Mode =
                          rcc::pure::PortfolioMode::On) {
  const CaseStudy *CS = caseStudy(Id);
  if (!CS) {
    State.SkipWithError("unknown case study");
    return;
  }
  EvalOptions Opts;
  Opts.RunProofCheck = false;
  Opts.Portfolio = Mode;
  for (auto _ : State) {
    Fig7Row Row = evaluateCaseStudy(*CS, Opts);
    if (!Row.Verified)
      State.SkipWithError("verification failed");
    benchmark::DoNotOptimize(Row.RuleApps);
  }
}

static void BM_VerifyAndProofCheck(benchmark::State &State,
                                   const std::string &Id) {
  const CaseStudy *CS = caseStudy(Id);
  if (!CS) {
    State.SkipWithError("unknown case study");
    return;
  }
  EvalOptions Opts;
  Opts.RunProofCheck = true;
  for (auto _ : State) {
    Fig7Row Row = evaluateCaseStudy(*CS, Opts);
    if (!Row.ProofCheckOk)
      State.SkipWithError("proof re-check failed");
    benchmark::DoNotOptimize(Row.RuleApps);
  }
}

namespace {
struct Registrar {
  Registrar() {
    for (const CaseStudy &CS : allCaseStudies()) {
      benchmark::RegisterBenchmark(("BM_Verify/" + CS.Id).c_str(),
                                   [Id = CS.Id](benchmark::State &S) {
                                     BM_Verify(S, Id);
                                   })
          ->Unit(benchmark::kMillisecond);
      benchmark::RegisterBenchmark(
          ("BM_VerifyAndProofCheck/" + CS.Id).c_str(),
          [Id = CS.Id](benchmark::State &S) { BM_VerifyAndProofCheck(S, Id); })
          ->Unit(benchmark::kMillisecond);
    }
    // The portfolio ablation on the row where the backends actually compete
    // (DESIGN.md, "Solver portfolio"): off = lemma fallback.
    benchmark::RegisterBenchmark("BM_Verify/bitmap_portfolio_off",
                                 [](benchmark::State &S) {
                                   BM_Verify(S, "bitmap",
                                             rcc::pure::PortfolioMode::Off);
                                 })
        ->Unit(benchmark::kMillisecond);
  }
} TheRegistrar;
} // namespace

/// Custom main (instead of BENCHMARK_MAIN): after the google-benchmark
/// timings, one traced pass over the suite sources BENCH_verify_time.json —
/// per-case-study wall time and the full session metrics snapshot.
int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  rcc::trace::TraceSession TS;
  EvalOptions Opts;
  Opts.RunProofCheck = false;
  Opts.Trace = &TS;
  std::ofstream OS("BENCH_verify_time.json");
  OS << "{\n  \"bench\": \"verify_time\",\n  \"version\": \""
     << rcc::versionString() << "\",\n  \"cases\": [";
  bool First = true;
  EvalOptions OffOpts = Opts;
  OffOpts.Portfolio = rcc::pure::PortfolioMode::Off;
  OffOpts.Trace = nullptr;
  for (const CaseStudy &CS : allCaseStudies()) {
    Fig7Row Row = evaluateCaseStudy(CS, Opts);
    Fig7Row RowOff = evaluateCaseStudy(CS, OffOpts);
    OS << (First ? "\n    {" : ",\n    {") << "\"id\": \"" << CS.Id
       << "\", \"verified\": " << (Row.Verified ? "true" : "false")
       << ", \"verify_ms\": " << Row.VerifyMillis
       << ", \"verify_ms_portfolio_off\": " << RowOff.VerifyMillis
       << ", \"rule_apps\": " << Row.RuleApps << "}";
    First = false;
  }
  OS << "\n  ],\n  \"metrics\": " << TS.metrics().toJson() << "\n}\n";
  printf("[artifact] wrote BENCH_verify_time.json\n");
  return 0;
}
