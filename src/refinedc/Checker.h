//===- Checker.h - The RefinedC verification driver -------------*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives verification (Figure 2, steps B and C): builds the specification
/// environment from the front end's annotation tables (named types from
/// struct annotations, function specs, loop invariants, lemmas, enabled
/// solvers), seeds the Lithium engine with the function's initial contexts
/// (argument atoms, local slots, requires clause), runs the proof search on
/// the entry block, and then checks each loop-invariant cut point once.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_REFINEDC_CHECKER_H
#define RCC_REFINEDC_CHECKER_H

#include "frontend/Frontend.h"
#include "lithium/Engine.h"
#include "refinedc/Result.h"
#include "refinedc/SpecParser.h"
#include "store/ResultStore.h"
#include "support/Arena.h"

#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <string_view>
#include <unordered_map>

namespace rcc::refinedc {

/// A parsed loop invariant (rc::exists / rc::inv_vars / rc::constraints).
struct LoopInv {
  std::vector<std::pair<std::string, pure::Sort>> ExVars;
  std::vector<std::pair<std::string, TypeRef>> InvVars; ///< slot -> type
  std::vector<TermRef> Constraints;
};

/// Verification context handed to the typing rules through the engine.
struct VerifyCtx : lithium::VerifyCtxBase {
  const front::AnnotatedProgram *AP = nullptr;
  const TypeEnv *Env = nullptr;
  const caesium::Function *Fn = nullptr;
  const front::FnInfo *FI = nullptr;
  const FnSpec *Spec = nullptr;
  std::vector<LoopInv> LoopInvs; ///< indexed by Block::AnnotId

  /// Pure facts available at every cut point (requires + argument-type
  /// constraints). Γ is unrestricted, so these survive loop boundaries.
  std::vector<TermRef> Gamma0;
  /// Atoms of annotated globals (persistent; re-seeded at cut points).
  ResList GlobalAtoms;

  /// Blocks with invariants that still need a separate check.
  std::vector<unsigned> PendingBlocks;
  std::set<unsigned> QueuedBlocks;
  /// Inline-visit counters: re-entering an unannotated block too often means
  /// a loop without an invariant annotation.
  std::map<unsigned, unsigned> InlineCount;

  void queueBlock(unsigned B) {
    if (QueuedBlocks.insert(B).second)
      PendingBlocks.push_back(B);
  }
};

/// Whole-program verification driver.
///
/// Concurrency model (see DESIGN.md for the full discussion): after
/// buildEnv() succeeds, a Checker is an immutable verification *session* —
/// the type environment, rule registry, global atoms, and solver
/// configuration are shared read-only by all verification jobs, which is
/// why verifyFunction is const. The rule registry is the process-wide
/// standard library (standardRules()), shared read-only by every session,
/// until a session changes its rules and takes its own copy. Each job gets
/// its own PureSolver (copied from the session's template so
/// user-registered simplification rules carry over), EvarEnv, Engine, and
/// DiagnosticEngine, so jobs never share mutable state and per-function
/// results are byte-identical regardless of Jobs. Session-level results
/// are memoized in two named store tiers (see src/store and DESIGN.md,
/// "Persistent verification store"): the always-on in-memory L1, keyed by
/// a content hash of the function body, its annotations, its callees'
/// specs, and the spec-environment fingerprint —
/// so re-running verifyAll after nothing changed is O(1) per function —
/// and the optional on-disk L2 that VerifyOptions::CacheDir names, whose
/// entries survive the process and are replayed through the independent
/// ProofChecker before being trusted.
class Checker {
public:
  Checker(const front::AnnotatedProgram &AP, rcc::DiagnosticEngine &Diags);

  /// Builds the type environment from annotations. False on spec errors.
  bool buildEnv();

  /// Adopts externally-owned store tiers in place of the session-owned
  /// ones. This is how the verification daemon (src/daemon) keeps results
  /// warm across *revisions*: each revision compiles a fresh Checker
  /// session, but all sessions share one in-memory L1 (and optionally one
  /// disk L2), and the content-hash keys — which fold in the function
  /// body, callee specs, and the spec-environment fingerprint — guarantee
  /// a stale entry can only miss. \p SharedL1 may be null, which keeps a
  /// fresh private L1; \p SharedL2 may be null. The run's
  /// VerifyOptions::CacheDir still names the disk tier: a run whose
  /// CacheDir is \p SharedL2's directory keeps it, and any other CacheDir
  /// replaces it (configureStore).
  void adoptStoreTiers(std::shared_ptr<store::MemoryResultStore> SharedL1,
                       std::shared_ptr<store::DiskResultStore> SharedL2);

  /// Verifies one function against its annotations. Thread-safe: shares
  /// only immutable session state, and bypasses the result store.
  FnResult verifyFunction(const std::string &Name,
                          const VerifyOptions &Opts) const;

  /// Verifies the named functions (in the given order) with Opts.Jobs
  /// concurrent jobs; each job consults the session result store at job
  /// start and publishes at job end.
  ProgramResult verifyFunctions(const std::vector<std::string> &Names,
                                const VerifyOptions &Opts);

  /// Verifies every annotated function with a body (plus trusted
  /// prototypes' specs); returns the aggregate result.
  ProgramResult verifyAll(const VerifyOptions &Opts);

  const TypeEnv &env() const { return Env; }
  const lithium::RuleRegistry &rules() const { return *Rules; }
  const pure::PureSolver &solver() const { return SolverProto; }

  /// Registers a user typing rule with this session only (Section 5,
  /// "Extensibility"). The rule registry's fingerprint changes with it, so
  /// results stored without the rule miss.
  void addRule(lithium::Rule R) { ownRules().add(std::move(R)); }

  /// Selects how this session's rule lookups assemble candidates (Indexed
  /// by default; see RuleRegistry::DispatchMode). Every mode selects the
  /// same rules — the dispatch-equivalence property test runs the corpus in
  /// CrossCheck to prove it — so no cache invalidation is needed.
  void setDispatchMode(lithium::RuleRegistry::DispatchMode M) {
    ownRules().setMode(M);
  }

  /// Mutable access to the session environment / solver template for
  /// user extensions (ExtensibilityTest registers simplification rules
  /// this way). Mutating either invalidates the in-memory result tier
  /// (persistent entries self-invalidate through their keys).
  TypeEnv &env() {
    invalidateCache();
    return Env;
  }
  pure::PureSolver &solver() {
    invalidateCache();
    return SolverProto;
  }

  /// Registered lemma line counts (Figure 7 "Pure" column).
  unsigned pureLines() const { return PureLines; }

  /// Fingerprint of everything in this session, besides the program, that
  /// a result depends on under \p Opts: the rule registry, the simplifier
  /// rules and the options that change verdicts. Every content key folds it
  /// in (hashFunctionContent).
  uint64_t sessionFingerprint(const VerifyOptions &Opts) const;

private:
  /// What a function name resolves to in this session.
  struct FnRefs {
    const FnSpec *Spec = nullptr;         ///< null without a spec
    const front::FnInfo *Info = nullptr;  ///< null for an unknown name
    const caesium::Function *Fn = nullptr; ///< null without a body
  };
  /// Resolves \p Name through the maps.
  FnRefs resolve(const std::string &Name) const;
  /// Resolves every name in AP.Fns at once, keyed by views of its keys.
  std::unordered_map<std::string_view, FnRefs> indexFunctions() const;
  /// verifyFunction for a resolved name.
  FnResult verify(const std::string &Name, const FnRefs &R,
                  const VerifyOptions &Opts) const;

  bool buildNamedTypes();
  bool buildFnSpecs();
  bool buildGlobals();
  std::optional<LoopInv> parseLoopInv(const std::vector<front::RcAnnot> &As,
                                      const SpecScope &Scope,
                                      rcc::DiagnosticEngine &Diags) const;
  void invalidateCache();
  /// This session's own rule registry, copied from the shared library on
  /// first use.
  lithium::RuleRegistry &ownRules();

  /// Points L2 at the run's Opts.CacheDir: keeps an L2 already on that
  /// directory (from an earlier run or adoptStoreTiers), opens one
  /// otherwise, and drops it when the run names none or sets NoCache.
  void configureStore(const VerifyOptions &Opts);

  /// Where a job's store probe found its function's result.
  enum class StoreHit : uint8_t { Miss, L1, L2 };

  /// Per-run replay accounting of the L2 tier, aggregated across jobs
  /// (the trusted L1 never replays).
  struct RunStoreStats {
    std::atomic<uint64_t> ReplayNs{0};
    std::atomic<uint64_t> Replays{0};
    std::atomic<uint64_t> ReplayFailures{0};
  };

  /// Job-start store probe: L1 first, then L2. An L1 hit is served unless
  /// it is weaker than the run asks for. An L2 hit is replayed through the
  /// ProofChecker before being surfaced (or hash-trusted when Opts.Recheck
  /// is off) and put into L1. Returns the tier that served \p Out, or Miss
  /// when there is no usable entry. Under Opts.Recheck, a failure stored in
  /// L2 is a miss too, to be verified afresh: \p Out then holds it and
  /// \p StoredFailure is set.
  StoreHit probeStore(const std::string &Name, const FnRefs &R, uint64_t Key,
                      const VerifyOptions &Opts, FnResult &Out,
                      bool &StoredFailure, RunStoreStats &RS);

  const front::AnnotatedProgram &AP;
  rcc::DiagnosticEngine &Diags;
  /// The session's arenas: every type buildEnv builds (specs, named-type
  /// bodies, globals) lives here until the session dies. Env and the jobs
  /// refer to these types; a job's own nodes live in its job arena.
  NodeArenaSet Arenas;
  TypeEnv Env;
  /// The rules this session dispatches through: the shared standard
  /// library, or OwnRules once the session changed its rules.
  const lithium::RuleRegistry *Rules;
  std::unique_ptr<lithium::RuleRegistry> OwnRules;
  /// Session solver template: per-job solvers are copies of this, so its
  /// configuration (user simplification rules) is shared read-only.
  pure::PureSolver SolverProto;
  ResList GlobalAtoms;
  unsigned PureLines = 0;

  /// The session's two store tiers. L1 (in-memory, trusted) always
  /// exists; L2 (on-disk, untrusted until replayed) is the directory the
  /// run's VerifyOptions::CacheDir names, or null. adoptStoreTiers
  /// installs shared ones. Jobs only touch the tiers at job start/end; both
  /// are thread-safe.
  std::shared_ptr<store::MemoryResultStore> L1 =
      std::make_shared<store::MemoryResultStore>();
  std::shared_ptr<store::DiskResultStore> L2;
};

/// Registers the RefinedC standard library of typing rules (Section 6 and
/// the supporting rules; the paper's library has ~200 rules, keyed so that
/// at most one applies to any judgment).
void registerStandardRules(lithium::RuleRegistry &R);

/// The standard library, registered once per process into a registry that
/// is never written again; every Checker session starts from it.
const lithium::RuleRegistry &standardRules();

} // namespace rcc::refinedc

#endif // RCC_REFINEDC_CHECKER_H
