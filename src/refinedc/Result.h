//===- Result.h - Verification results and session options ------*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The data half of the driver API: per-function and per-run verification
/// results plus the per-run option set. Split out of Checker.h so that the
/// persistent result store (src/store) can serialize an FnResult without
/// depending on the driver itself — the store sits *below* the checker in
/// the layering (DESIGN.md, "Persistent verification store").
///
//===----------------------------------------------------------------------===//

#ifndef RCC_REFINEDC_RESULT_H
#define RCC_REFINEDC_RESULT_H

#include "lithium/Engine.h"
#include "pure/Solver.h"
#include "support/Diagnostics.h"
#include "support/SourceLoc.h"

#include <string>
#include <vector>

namespace rcc::trace {
class TraceSession;
} // namespace rcc::trace

namespace rcc::refinedc {

/// Per-session verification options (the public knobs of the driver API;
/// everything else about a Checker is fixed once buildEnv() ran).
struct VerifyOptions {
  /// Replay every successful derivation through the independent
  /// ProofChecker and record the outcome in FnResult::RecheckOk. Also
  /// governs trust in the persistent store: a result loaded from disk is
  /// replayed before it is surfaced; without Recheck the content hash
  /// alone is trusted (see DESIGN.md, "Persistent verification store").
  bool Recheck = false;
  /// Ablation: run the engines in naive-backtracking mode (see Engine).
  bool Backtracking = false;
  /// Number of concurrent verification jobs for verifyAll /
  /// verifyFunctions. 1 = serial; 0 = one job per hardware core. Results
  /// are byte-identical regardless of the job count (see DESIGN.md,
  /// "Concurrency model").
  unsigned Jobs = 1;
  /// Engine goal-step budget override (0 = the engine default; the
  /// backtracking baseline defaults to a tight 20k budget).
  unsigned MaxSteps = 0;
  /// Leaf dispatch of the pure solver (DESIGN.md, "Solver portfolio").
  /// `On` (default) includes the bit-vector backend; `Off` restores the
  /// pre-portfolio dispatch without it. Off is hashed separately.
  pure::PortfolioMode Portfolio = pure::PortfolioMode::On;

  // --- Result store (src/store; DESIGN.md "Persistent verification
  // store") ---
  /// Directory of the persistent on-disk result tier (L2). Empty: the
  /// session keeps only its in-memory tier, as before. The directory is
  /// created on demand; entries self-invalidate through their content-hash
  /// keys, and concurrent verify_tool processes may share one directory.
  std::string CacheDir;
  /// Bypass the result store entirely: no probes, no writes, every
  /// function is re-verified.
  bool NoCache = false;

  // --- Observability (src/trace; DESIGN.md "Observability") ---
  /// Trace session to record into. When null but TraceFile/Profile is set,
  /// verifyFunctions creates an internal session for the run. Callers that
  /// want frontend spans too create the session themselves (verify_tool
  /// does) and handle the export.
  trace::TraceSession *Trace = nullptr;
  /// Write the Chrome trace-event JSON here after the run (internal-session
  /// mode; ignored when empty).
  std::string TraceFile;
  /// Fill ProgramResult::ProfileReport with the human-readable profile.
  bool Profile = false;
  /// Internal-session mode: create the session deterministic, so exported
  /// counters and the profile are byte-identical across Jobs (durations
  /// zeroed, rules ranked by application count).
  bool DeterministicTrace = false;
  /// Internal-session mode: cap each thread's trace buffer at this many
  /// events, truncating ring-buffer style (0 = unbounded; see
  /// TraceSession).
  size_t TraceEventCap = 0;
};

/// Result of verifying one function.
struct FnResult {
  std::string Name;
  bool Verified = false;
  bool Trusted = false; ///< rc::trust_me
  std::string Error;
  rcc::SourceLoc ErrorLoc;
  std::vector<std::string> ErrorContext;
  lithium::EngineStats Stats;
  lithium::Derivation Deriv;
  unsigned EvarsInstantiated = 0;
  unsigned BacktrackedSteps = 0; ///< nonzero only in the ablation baseline
  bool Rechecked = false;  ///< the derivation was replayed (Recheck option)
  bool RecheckOk = false;  ///< replay verdict; meaningful when Rechecked
  bool CacheHit = false;   ///< served from the session's result store
  double WallMillis = 0.0; ///< wall time of this function's check (0 when
                           ///< the result came from the store)
  /// Name of the typing rule whose application produced the failure
  /// (Engine::FailureRule; empty for non-engine failures).
  std::string FailedRule;
  /// Structured diagnostics for this function, in the shared wire shape
  /// (rcc::Diagnostic) that verify_tool --format=json, the daemon's
  /// JSON-lines events, and the LSP server all render from. Synthesized by
  /// the checker from Error/ErrorLoc/FailedRule on every failing result, so
  /// transports never re-derive locations; empty when Verified.
  std::vector<rcc::Diagnostic> Diags;

  /// Renders the Section 2.1-style error message.
  std::string renderError(const std::string &Source) const;
};

/// Aggregate result of a whole-program verification run.
struct ProgramResult {
  std::vector<FnResult> Fns;
  double WallMillis = 0.0; ///< wall time of the run (all jobs)
  unsigned JobsUsed = 1;   ///< resolved job count
  unsigned CacheHits = 0;  ///< total store hits (all tiers)
  unsigned CacheMisses = 0;

  // --- Per-tier store accounting (DESIGN.md, "Persistent verification
  // store"); CacheHits == L1Hits + L2Hits.
  unsigned L1Hits = 0;         ///< in-memory (session) tier hits
  unsigned L2Hits = 0;         ///< on-disk tier hits surfaced
  unsigned ReplayedHits = 0;   ///< L2 hits replayed through the ProofChecker
  unsigned ReplayFailures = 0; ///< untrusted entries rejected by the replay
  unsigned CorruptDrops = 0;   ///< corrupt/mismatched entries dropped
  double ReplayMillis = 0.0;   ///< wall time spent replaying untrusted hits

  /// Session metrics snapshot as a JSON object (empty when the run was not
  /// traced). Sourced from the MetricsRegistry; the bench artifacts
  /// (BENCH_*.json) embed it verbatim.
  std::string Metrics;
  /// Human-readable profile (VerifyOptions::Profile; empty otherwise).
  std::string ProfileReport;

  bool allVerified() const {
    for (const FnResult &R : Fns)
      if (!R.Verified)
        return false;
    return true;
  }
  /// True if every function that was rechecked passed the replay.
  bool allRechecksOk() const {
    for (const FnResult &R : Fns)
      if (R.Rechecked && !R.RecheckOk)
        return false;
    return true;
  }
  /// Machine-readable rendering (verify_tool --format=json): per-function
  /// name, verdict, error + location, and engine statistics, plus the
  /// run-level wall time and per-tier store counters. \p ExtraJson, when
  /// non-empty, is a pre-rendered `"key": value` fragment appended as an
  /// additional top-level member (verify_tool injects the `run` object of
  /// `--run` this way, so JSON mode cannot swallow the run outcome).
  std::string toJson(const std::string &ExtraJson = std::string()) const;

  /// Schedule-independent rendering (verify_tool --format=stable-json):
  /// per-function verdicts, errors, diagnostics, and engine statistics only
  /// — no wall times, no store counters, no cache_hit flags. Two runs over
  /// the same source agree byte-for-byte regardless of job count or store
  /// tiers; scripts/check.sh compares a cold and a warm `--cache-dir` run
  /// with cmp(1) on exactly this output.
  std::string toStableJson() const;
};

} // namespace rcc::refinedc

#endif // RCC_REFINEDC_RESULT_H
