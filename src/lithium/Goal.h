//===- Goal.h - Lithium goals and judgments ---------------------*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The goal language of Lithium (Section 5):
///
///   G ::= True | F | H ∗ G | H -∗ G | G ∧ G | ∀x.G | ∃x.G
///   H ::= ⌜φ⌝ | A | H ∗ H | ∃x.H
///
/// Left goals H are kept flattened as ResLists (existentials in H positions
/// are expressed with ∃ at the goal level). Basic goals F are RefinedC
/// typing judgments, represented by a single Judgment struct with a kind tag
/// so the rule registry can dispatch without backtracking. Binders use HOAS
/// (a C++ function from the introduced term to the goal body), which is what
/// lets judgment continuations be ordinary closures — the paper's
/// continuation-passing premises (T-BINOP et al.) map to `KVal` directly.
///
/// Goals and judgments are immutable nodes, referred to by plain `const`
/// pointer and owned by the arena that built them (support/Arena.h), and so
/// are the closures of their continuations (NodeFn): while a function is
/// verified, that is its job's arena, which runs their destructors when the
/// job returns. `gTrue()` is a static node.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_LITHIUM_GOAL_H
#define RCC_LITHIUM_GOAL_H

#include "refinedc/Types.h"
#include "support/Arena.h"

namespace rcc::caesium {
struct Expr;
struct Function;
} // namespace rcc::caesium

namespace rcc::lithium {

using pure::TermRef;
using refinedc::ResAtom;
using refinedc::ResList;
using refinedc::TypeRef;

struct Judgment;
using JudgPtr = const Judgment *;
struct Goal;
using GoalRef = const Goal *;
/// Continuations: their closures are nodes of the job's arena too.
using ValueCont = NodeFn<GoalRef(TermRef, TypeRef)>;
using BinderCont = NodeFn<GoalRef(TermRef)>;

/// Kinds of RefinedC typing judgments (the basic goals F). Each kind has a
/// dedicated set of typing rules keyed additionally on the operand types, so
/// at most one rule applies (Section 5, "no backtracking").
enum class JudgKind : uint8_t {
  Stmt,     ///< ⊢STMT: Fn, BlockId, StmtIdx
  Expr,     ///< ⊢EXPR e {v, τ. K}: E, KVal
  IfJ,      ///< ⊢IF: condition (V1, T1), GThen, GElse
  BinOpJ,   ///< ⊢BINOP: Op, (V1,T1) ⊙ (V2,T2), KVal
  UnOpJ,    ///< ⊢UNOP
  ReadJ,    ///< typed read at place V1 with popped location type T1
  WriteJ,   ///< typed write: place V1 (popped type T1), value (V2, T2)
  CASJ,     ///< CAS: (V1,T1) atom place, (V2,T2) expected place, (V3,T3) new
  CallJ,    ///< call: callee (V1, T1), Args, KVal
  SubsumeV, ///< V1 ◁ᵥ T1 <: V1 ◁ᵥ T2 {KGoal}
  SubsumeL, ///< V1 ◁ₗ T1 <: V1 ◁ₗ T2 {KGoal} (location subsumption)
  BlockJ,   ///< jump to block BlockId (loop-invariant cut points)
};

const char *judgKindName(JudgKind K);

/// One RefinedC typing judgment.
struct Judgment {
  JudgKind K;
  rcc::SourceLoc Loc;

  const caesium::Function *Fn = nullptr;
  unsigned BlockId = 0;
  unsigned StmtIdx = 0;
  const caesium::Expr *E = nullptr;

  TermRef V1 = nullptr, V2 = nullptr, V3 = nullptr;
  TypeRef T1 = nullptr, T2 = nullptr, T3 = nullptr;

  // Operator payloads (mirroring the Caesium expression fields).
  int Op = 0;              ///< caesium::BinOpKind / UnOpKind as int
  caesium::IntType Ity;    ///< operating type
  caesium::IntType ToIty;  ///< cast target
  uint64_t ElemSize = 1;
  uint64_t AccessSize = 0;
  bool Atomic = false;

  /// Value continuation for expression-style judgments.
  ValueCont KVal;
  /// Goal continuation for subsumptions and writes.
  GoalRef KGoal = nullptr;
  GoalRef GThen = nullptr, GElse = nullptr;

  /// Call payload: the typed argument values.
  std::vector<std::pair<TermRef, TypeRef>> Args;

  std::string str() const;
};

enum class GoalKind : uint8_t { True, Judg, StarH, WandH, Conj, All, Ex };

/// A Lithium goal.
struct Goal {
  GoalKind K = GoalKind::True;
  ResList H;                        ///< StarH / WandH
  GoalRef Next = nullptr;           ///< StarH / WandH (unused otherwise)
  GoalRef A = nullptr, B = nullptr; ///< Conj
  std::string Binder;
  pure::Sort BSort = pure::Sort::Nat;
  BinderCont Body; ///< All / Ex (HOAS)
  JudgPtr J = nullptr;
};

GoalRef gTrue();
GoalRef gJudg(Judgment J);
/// H ∗ G: prove/consume the atoms of H, then continue with G.
GoalRef gStar(ResList H, GoalRef G);
/// H -∗ G: assume the atoms of H, then continue with G.
GoalRef gWand(ResList H, GoalRef G);
GoalRef gConj(GoalRef A, GoalRef B);
GoalRef gAll(const std::string &Binder, pure::Sort S, BinderCont Body);
GoalRef gEx(const std::string &Binder, pure::Sort S, BinderCont Body);

} // namespace rcc::lithium

#endif // RCC_LITHIUM_GOAL_H
