//===- Engine.h - The Lithium proof-search engine ---------------*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The goal-directed, non-backtracking proof search of Section 5. The engine
/// maintains the unrestricted context Γ (pure facts and universals) and the
/// resource context Δ (typed-location and typed-value atoms) and processes
/// goals by the seven cases of the paper:
///
///   1. True: succeed          2. G1 ∧ G2: fork Δ and prove both
///   3. ∀x.G: fresh universal  4. ∃x.G: fresh sealed evar
///   5. F: apply the unique matching typing rule (registry lookup)
///   6. H ∗ G: pure parts become side conditions (solver may instantiate
///      evars); atoms find their unique related atom in Δ and reduce to a
///      subsumption judgment
///   7. H -∗ G: pure parts enter Γ (normalized); atoms enter Δ (normalized:
///      existentials open, constraints split, structs split into fields)
///
/// There are no choice points: rule lookup must be unambiguous (ties are an
/// error unless broken by declared priorities, matching footnote 5 of the
/// paper), and a failed subgoal fails the whole search with a located error.
///
/// Every step is recorded in a Derivation, which the independent proof
/// checker replays (the foundational substitute described in DESIGN.md).
///
//===----------------------------------------------------------------------===//

#ifndef RCC_LITHIUM_ENGINE_H
#define RCC_LITHIUM_ENGINE_H

#include "lithium/Goal.h"
#include "lithium/Derivation.h"
#include "pure/Solver.h"
#include "trace/Trace.h"

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <unordered_map>

namespace rcc::lithium {

class Engine;

/// Number of TypeKind constructors, for sizing dispatch dimensions.
/// TypeKind::Any is the last enumerator (Types.h keeps it last).
inline constexpr uint32_t NumTypeKinds =
    static_cast<uint32_t>(refinedc::TypeKind::Any) + 1;

/// Declarative dispatch key: the goal-head discriminators a rule can fire
/// on, declared at registration time so the registry can index rules rather
/// than scanning every Matches lambda (DESIGN.md, "Rule dispatch").
///
/// The discriminator of a judgment depends on its kind:
///  - IfJ/ReadJ/WriteJ/CASJ/CallJ: the TypeKind of the scrutinee T1 after
///    peeling Constraint wrappers (evar resolution never changes a type's
///    constructor, so the peeled kind is stable under resolveTy).
///  - BinOpJ/UnOpJ: the operator code Judgment::Op.
///  - SubsumeV/SubsumeL: the (have, want) pair of peeled TypeKinds.
///  - BlockJ: 1 when the target block carries a loop-invariant annotation.
///  - Stmt/Expr: none — rules for these always live on the wildcard list.
///
/// Head/Want list the accepted values for each dimension; an empty list is
/// a wildcard for that dimension. A rule wildcard in every dimension joins
/// the per-kind wildcard list and is considered for every goal of its kind,
/// which is exactly the pre-index behaviour (and what a default-constructed
/// key gives, so keyless registrations stay valid).
///
/// Contract (checked by the CrossCheck dispatch mode over the case-study
/// corpus): the key must OVER-approximate Matches — whenever Matches(E, J)
/// holds, the key must cover discriminatorOf(J) — and Matches must be PURE
/// (no Engine mutation): the index skips guard evaluations, so an effectful
/// guard would make dispatch observable in the derivation.
struct RuleKey {
  std::vector<uint16_t> Head; ///< accepted first-dimension values ([] = any)
  std::vector<uint16_t> Want; ///< accepted want-TypeKinds (subsume only)
  bool Diagonal = false; ///< subsume only: exactly the (k, k) pairs (S-REFL)

  bool wildcard() const { return Head.empty() && Want.empty() && !Diagonal; }

  static RuleKey any() { return {}; }
  /// Scrutinee-TypeKind key (IfJ/ReadJ/WriteJ/CASJ/CallJ).
  static RuleKey onTy(std::initializer_list<refinedc::TypeKind> Ks);
  /// Complement form, for "anything but ..." rules (WRITE-STRONG).
  static RuleKey onTyNot(std::initializer_list<refinedc::TypeKind> Ks);
  /// Operator key (BinOpJ/UnOpJ); accepts the caesium enum classes.
  template <typename... E> static RuleKey onOp(E... Ops) {
    RuleKey K;
    (K.Head.push_back(static_cast<uint16_t>(Ops)), ...);
    return K;
  }
  /// (have, want) peeled-TypeKind pair key (SubsumeV/SubsumeL); an empty
  /// list leaves that dimension wildcard.
  static RuleKey onPair(std::initializer_list<refinedc::TypeKind> Have,
                        std::initializer_list<refinedc::TypeKind> WantKs);
  /// The diagonal {(k, k)}: rules requiring typeEqual operands (S-REFL).
  static RuleKey diagonal() {
    RuleKey K;
    K.Diagonal = true;
    return K;
  }
  /// Block-annotation flag key (BlockJ).
  static RuleKey onFlag(bool F) {
    RuleKey K;
    K.Head.push_back(F ? 1 : 0);
    return K;
  }
};

/// A typing rule: the unit of extensibility (Section 5, "Extensibility").
/// Apply returns the premise goal, or nullptr when the rule itself detects
/// an error (it must then have called Engine::fail).
struct Rule {
  std::string Name;
  JudgKind Kind;
  int Priority = 0;
  /// Residual applicability guard. May be null for a TOTAL rule — one that
  /// applies to every goal of its kind (T-STMT, T-EXPR) — in which case no
  /// guard runs (and none is counted) on either dispatch path. Only rules
  /// whose guard would literally be `return true` may drop it: in Linear
  /// mode there is no key to narrow dispatch, so a null guard on a partial
  /// rule would break indexed/linear equivalence.
  std::function<bool(Engine &, const Judgment &)> Matches;
  std::function<GoalRef(Engine &, const Judgment &)> Apply;
  /// Dispatch key; default (all-wildcard) reproduces the pre-index scan.
  RuleKey Key = {};
  /// Registration sequence number, assigned by RuleRegistry::add. Candidate
  /// merging replays rules in exactly this order, so indexed dispatch sees
  /// the same rule order the linear scan did.
  unsigned Seq = 0;
  /// The interned Name, assigned by RuleRegistry::add: what a derivation
  /// step and EngineStats::RulesUsed record.
  Label Lbl = {};
};

/// The rule registry: Coq's typeclass database in the paper's implementation.
/// Internally a discrimination index: per judgment kind, a bucket map from
/// head discriminator to the (registration-ordered) rules keyed on it, plus
/// the list of wildcard rules. A lookup merges bucket + wildcards by Seq.
///
/// A registry holds no lazily filled state: add() hashes the dispatch schema
/// as it registers, so a registry that no one adds to (the process-wide
/// standard library) is read-only and may be shared between threads.
class RuleRegistry {
public:
  /// How lookups assemble their candidate set. Indexed is the production
  /// path; Linear is the pre-index full scan (kept as the measurement
  /// baseline and the equivalence oracle); CrossCheck runs both per lookup
  /// and counts disagreements (test-only — guards run twice).
  enum class DispatchMode : uint8_t { Indexed, Linear, CrossCheck };

  RuleRegistry() = default;
  /// Registers every rule of \p O again, in registration order, so the
  /// copy's index points into its own storage. Sessions copy the shared
  /// library before they change their rules.
  RuleRegistry(const RuleRegistry &O);
  RuleRegistry &operator=(const RuleRegistry &) = delete;

  /// Registers rules in order, then hashes the dispatch schema once. A
  /// duplicate rule name is a hard error (diagnosed abort): names key
  /// derivation replay and profile attribution, and a collision would
  /// silently shadow one rule in both.
  void add(std::vector<Rule> Rs);
  void add(Rule R);

  /// Finds the unique applicable rule (highest priority wins; an unresolved
  /// tie is an ambiguity error — Lithium must never need to choose).
  const Rule *lookup(Engine &E, const Judgment &J, std::string &Err) const;

  /// All applicable rules (for the backtracking baseline of the ablation
  /// study), in the given priority order. Equal-priority rules keep their
  /// registration order (stable sort), so the baseline is deterministic.
  std::vector<const Rule *> lookupAll(Engine &E, const Judgment &J,
                                      bool Ascending) const;

  size_t numRules() const { return NumRulesTotal; }

  /// The registered rule a label names, or null: one index into a vector
  /// kept by add(). The proof checker's replay asks once per recorded
  /// rule application.
  const Rule *rule(Label L) const {
    return L.id() < ByLabel.size() ? ByLabel[L.id()] : nullptr;
  }
  bool hasRule(Label L) const { return rule(L) != nullptr; }

  /// Hash of the full dispatch schema (rule names, kinds, priorities, keys,
  /// plus a dispatch-format salt), as of the last add(). Folded into session
  /// fingerprints so persisted results self-invalidate across any rule-set
  /// or dispatch change.
  uint64_t fingerprint() const { return Fp; }

  void setMode(DispatchMode M) { Mode = M; }
  DispatchMode mode() const { return Mode; }
  /// Lookups where CrossCheck saw indexed and linear dispatch disagree
  /// (selected rule, ambiguity, or lookupAll sequence). Must stay 0.
  uint64_t crossCheckMismatches() const {
    return XMismatch.load(std::memory_order_relaxed);
  }

private:
  struct KindTable {
    /// All rules of the kind in registration order. A deque: addresses
    /// stay stable under growth, so buckets can hold plain pointers.
    std::deque<Rule> All;
    /// Discriminator → rules keyed on it, each in registration order.
    std::unordered_map<uint32_t, std::vector<const Rule *>> Buckets;
    /// Rules with an all-wildcard key, in registration order.
    std::vector<const Rule *> Wildcards;
    bool AnyIndexed = false;
  };

  /// Indexes one rule (add() without the schema hash).
  void insert(Rule R);
  uint64_t hashSchema() const;
  /// The dispatch discriminator of a judgment (see RuleKey).
  static uint32_t discriminatorOf(const Judgment &J);
  /// Calls Fn on each candidate for discriminator D — the D-bucket merged
  /// with the wildcard list in registration (Seq) order.
  template <typename F>
  static void forEachCandidate(const KindTable &T, uint32_t D, F &&Fn);

  std::map<JudgKind, KindTable> Kinds;
  /// Label id -> registered rule (null where a label names no rule here).
  std::vector<const Rule *> ByLabel;
  size_t NumRulesTotal = 0;
  unsigned NextSeq = 0;
  DispatchMode Mode = DispatchMode::Indexed;
  mutable std::atomic<uint64_t> XMismatch{0};
  uint64_t Fp = hashSchema();
};

struct EngineStats {
  unsigned RuleApps = 0;
  LabelSet RulesUsed;
  unsigned SideCondAuto = 0;
  unsigned SideCondManual = 0;
  unsigned GoalSteps = 0;
  // --- Dispatch accounting (PR 6). Not persisted: a stored FnResult skips
  // the engine entirely, so zeros are accurate for cache hits. ---
  uint64_t IndexHits = 0;      ///< lookups served from the discrimination index
  uint64_t ScanFallbacks = 0;  ///< multi-rule lookups the index could not prune
  uint64_t MatchesEvals = 0;   ///< Matches-guard invocations
};

/// Opaque verification context: the checker derives from this so that rules
/// (registered by the RefinedC layer) can reach function-level information
/// (postconditions, loop invariants, the type environment).
struct VerifyCtxBase {
  virtual ~VerifyCtxBase() = default;
};

class Engine {
public:
  Engine(const RuleRegistry &Rules, pure::PureSolver &Solver,
         pure::EvarEnv &Evars, EngineStats &Stats, Derivation *Deriv)
      : Rules(Rules), Solver(Solver), Evars(Evars), Stats(Stats),
        Deriv(Deriv) {
    // Resolve trace counters once (null when tracing is disabled): the goal
    // loop then pays one pointer test per bump instead of a registry lookup.
    // EngineStats-covered quantities are NOT live-bumped; the checker folds
    // them into the session registry deterministically after the run.
    static constexpr const char *GoalCtNames[] = {
        "engine.goal.true", "engine.goal.judg", "engine.goal.star",
        "engine.goal.wand", "engine.goal.conj", "engine.goal.all",
        "engine.goal.ex"};
    for (size_t I = 0; I < 7; ++I)
      CtGoal[I] = trace::counterOrNull(GoalCtNames[I]);
    CtSubsumePop = trace::counterOrNull("engine.subsume.pop");
    CtSubsumeReshape = trace::counterOrNull("engine.subsume.reshape");
  }

  std::vector<TermRef> Gamma;
  std::vector<ResAtom> Delta;
  VerifyCtxBase *Ctx = nullptr;
  /// Set when a literal False entered Γ: the branch holds vacuously
  /// (Section 6: "one holds vacuously by virtue of the new assumption
  /// False").
  bool Vacuous = false;

  /// Ablation baseline: when set, rule selection is NOT syntax-directed —
  /// every matching rule is tried in ascending priority order (i.e. worst
  /// first) with full state rollback between attempts, the way a naive
  /// backtracking separation-logic prover would search. Section 5's claim
  /// is that the typing rules make this unnecessary; the bench quantifies
  /// the cost of doing it anyway.
  bool BacktrackMode = false;
  unsigned BacktrackedSteps = 0; ///< rule attempts undone by backtracking
  unsigned BtDepth = 0;          ///< recursion depth of the baseline search
  /// Goal-step budget override (0 = the default 400k). The ablation gives
  /// the baseline a tight budget: exceeding it is the measured outcome.
  unsigned MaxStepsOverride = 0;

  /// Runs the search. Returns false with Failure/FailureLoc set on error.
  bool prove(GoalRef G);

  // --- Failure reporting ---
  std::string Failure;
  rcc::SourceLoc FailureLoc;
  /// The source location of the judgment most recently processed, used when
  /// a side condition without its own location fails (Section 2.1's located
  /// error messages).
  rcc::SourceLoc CurrentLoc;
  std::vector<std::string> FailureContext;
  /// The rule whose application produced the recorded failure, and the
  /// rule currently being applied (maintained around Apply calls so fail()
  /// can attribute side-condition failures to a rule).
  Label FailureRule;
  Label CurrentRule;
  void fail(const std::string &Msg, rcc::SourceLoc Loc = {});

  // --- Utilities for rules ---
  TermRef freshUniversal(const std::string &Hint, pure::Sort S);
  TermRef freshEvar(const std::string &Hint, pure::Sort S);
  void addFact(TermRef Phi);
  /// Adds an atom to Δ with case-7 normalization.
  void pushAtom(ResAtom A);
  /// Removes and returns the atom covering \p Size bytes at location \p L,
  /// performing uninit splitting and ownership focusing as needed.
  bool popLocAtom(TermRef L, uint64_t Size, ResAtom &Out, rcc::SourceLoc Loc);
  /// Removes and returns the value atom for \p V.
  bool popValAtom(TermRef V, ResAtom &Out, rcc::SourceLoc Loc);
  /// Proves a pure side condition under Γ (may instantiate evars). A side
  /// condition that still contains unbound evars after the solver's
  /// instantiation heuristics fail is postponed: later subsumptions usually
  /// determine the evars (the paper's left-to-right processing guarantee),
  /// and all postponed conditions are re-checked before the goal closes.
  bool solveSideCond(TermRef Phi, rcc::SourceLoc Loc);

  /// Pending (postponed) side conditions of the current branch.
  std::vector<std::pair<TermRef, rcc::SourceLoc>> Pending;
  /// Re-attempts pending conditions; when \p Final, all must prove.
  bool flushPending(bool Final);

  pure::EvarEnv &evars() { return Evars; }
  pure::PureSolver &solver() { return Solver; }
  EngineStats &stats() { return Stats; }

  TermRef resolve(TermRef T) { return Solver.simplifier().simplify(Evars.resolve(T)); }
  TypeRef resolveTy(TypeRef T) { return refinedc::resolveType(T, Evars); }

  /// Renders Γ and Δ (for error messages, per Section 2.1's example).
  std::vector<std::string> renderContext() const;

  /// Records a step that carries no hypotheses; side conditions that were
  /// proved go through recordSideCond.
  void record(DerivStep::SKind K, Label Rule, TermRef Prop = nullptr) {
    if (Deriv)
      Deriv->Steps.push_back({K, false, Rule, Prop});
  }
  /// Records a rule application that no registry rule performs (a Builtin
  /// the RefinedC layer applies itself, like O-ARRAY-READ), counting it as
  /// a registry rule application is counted.
  void recordRuleApp(Builtin B) {
    ++Stats.RuleApps;
    Stats.RulesUsed.insert(B);
    record(DerivStep::RuleApp, B);
  }
  /// Counts a proved side condition as automatic or manual and records it
  /// with its *resolved* proposition and hypotheses, so the proof checker
  /// can replay it without the (since-instantiated) evars.
  void recordSideCond(TermRef Phi, const pure::SolveResult &R);

private:
  bool proveStar(const ResList &H, GoalRef Next, GoalRef &Out);

  const RuleRegistry &Rules;
  pure::PureSolver &Solver;
  pure::EvarEnv &Evars;
  EngineStats &Stats;
  Derivation *Deriv;
  unsigned FreshCounter = 0;

  /// Cached trace counters (see the constructor); indexed by GoalKind.
  trace::Counter *CtGoal[7] = {};
  trace::Counter *CtSubsumePop = nullptr;
  trace::Counter *CtSubsumeReshape = nullptr;
};

} // namespace rcc::lithium

#endif // RCC_LITHIUM_ENGINE_H
