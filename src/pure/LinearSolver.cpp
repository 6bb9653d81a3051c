//===- LinearSolver.cpp ---------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "pure/LinearSolver.h"

#include "trace/Trace.h"

#include <algorithm>
#include <span>
#include <unordered_map>

using namespace rcc::pure;

namespace {

using Wide = __int128;

/// Sticky per-thread overflow witness. Solver verdicts are trusted leaves of
/// the proof: ProofChecker::check re-proves every side condition, but with a
/// fresh PureSolver running this same code, so a wrap here would discharge a
/// false VC in the search and again in the replay. Every arithmetic step
/// routes through the *Chk helpers below; the flag is cleared only at the
/// public entry points (prove / inconsistent), which AND their result with
/// !Overflowed. Internal probes (tightenNatSubs, addCongruences, Ne splits)
/// deliberately do NOT save/restore it: wrapped intermediates can leak into
/// shared state (Lin.Side), so once anything wraps the only sound answer for
/// the whole call is Unknown.
thread_local bool Overflowed = false;

inline Wide addChk(Wide A, Wide B) {
  Wide R;
  if (__builtin_add_overflow(A, B, &R))
    Overflowed = true;
  return R;
}
inline Wide mulChk(Wide A, Wide B) {
  Wide R;
  if (__builtin_mul_overflow(A, B, &R))
    Overflowed = true;
  return R;
}
inline Wide negChk(Wide A) {
  Wide R;
  if (__builtin_sub_overflow(Wide(0), A, &R))
    Overflowed = true;
  return R;
}

/// One term of a linear expression: an atom and its nonzero coefficient.
using Coeff = std::pair<unsigned, Wide>;
/// Orders sorted terms against an atom, for std::lower_bound.
constexpr auto BelowAtom = [](const Coeff &T, unsigned A) {
  return T.first < A;
};

/// A linear expression: sum of Coeff * Atom plus a constant. Atoms are
/// arbitrary (nonlinear) terms treated opaquely, named by their index in
/// the Linearizer's atom table, which numbers them in the order it first
/// meets them. Indices, unlike addresses, are the same in every process.
struct LinExpr {
  std::vector<Coeff> Coeffs; ///< sorted by atom; no zero coefficient
  Wide Const = 0;

  void add(unsigned Atom, Wide C) {
    auto It = std::lower_bound(Coeffs.begin(), Coeffs.end(), Atom, BelowAtom);
    if (It == Coeffs.end() || It->first != Atom)
      It = Coeffs.insert(It, {Atom, 0});
    It->second = addChk(It->second, C);
    if (It->second == 0)
      Coeffs.erase(It);
  }
  void addExpr(const LinExpr &O, Wide Scale) {
    Const = addChk(Const, mulChk(O.Const, Scale));
    for (const auto &[A, C] : O.Coeffs)
      add(A, mulChk(C, Scale));
  }
  bool isConst() const { return Coeffs.empty(); }
};

/// A constraint: Expr <= 0.
struct Constraint {
  LinExpr E;
};

/// Collects the linearization of a term. Out-of-language subterms become
/// atoms; side constraints about atoms (non-negativity, truncated
/// subtraction bounds) are appended to \p Side.
class Linearizer {
public:
  std::vector<Constraint> Side;
  /// Nat-subtraction atoms discovered during linearization, for the
  /// exactness round: if `b <= a` is derivable, `T = a - b` exactly.
  std::vector<TermRef> NatSubs;
  /// Mod atoms with symbolic moduli: if `1 <= m` is derivable, the bound
  /// `x % m <= m - 1` is added in the tightening round.
  std::vector<TermRef> SymMods;

  LinExpr run(TermRef T) {
    LinExpr E;
    visit(T, E, 1);
    return E;
  }

  /// The index of an atom this linearizer has met.
  unsigned atomId(TermRef T) const { return AtomIds.at(T); }

private:
  std::unordered_map<TermRef, unsigned> AtomIds;

  void atom(TermRef T, LinExpr &E, Wide Sign) {
    auto [It, New] = AtomIds.try_emplace(T, unsigned(AtomIds.size()));
    const unsigned Id = It->second; // the visits below may rehash AtomIds
    E.add(Id, Sign);
    if (!New)
      return;
    // Nat-sorted atoms are non-negative; so are lengths and sizes.
    if (T->sort() == Sort::Nat || T->kind() == TermKind::LLen ||
        T->kind() == TermKind::MSize) {
      Constraint C;
      C.E.add(Id, -1); // -T <= 0 i.e. T >= 0
      Side.push_back(std::move(C));
    }
    // Truncated Nat subtraction: T = a - b contributes T >= a - b, T <= a.
    if (T->kind() == TermKind::Sub && T->sort() == Sort::Nat) {
      NatSubs.push_back(T);
      LinExpr A, B;
      visit(T->arg(0), A, 1);
      visit(T->arg(1), B, 1);
      // a - b - T <= 0
      Constraint Lo;
      Lo.E.addExpr(A, 1);
      Lo.E.addExpr(B, -1);
      Lo.E.add(Id, -1);
      Side.push_back(std::move(Lo));
      // T - a <= 0
      Constraint Hi;
      Hi.E.add(Id, 1);
      Hi.E.addExpr(A, -1);
      Side.push_back(std::move(Hi));
    }
    // Mod with positive constant modulus: 0 <= T < m.
    if (T->kind() == TermKind::Mod && T->arg(1)->isConst() &&
        T->arg(1)->num() > 0) {
      Constraint Hi;
      Hi.E.add(Id, 1);
      Hi.E.Const = 1 - Wide(T->arg(1)->num()); // T <= m-1
      Side.push_back(std::move(Hi));
    }
    if (T->kind() == TermKind::Mod && !T->arg(1)->isConst())
      SymMods.push_back(T);
    // Division by a positive constant: c*q <= x <= c*q + (c-1).
    if (T->kind() == TermKind::Div && T->arg(1)->isConst() &&
        T->arg(1)->num() > 0) {
      Wide C = T->arg(1)->num();
      LinExpr X;
      visit(T->arg(0), X, 1);
      Constraint Lo; // c*q - x <= 0
      Lo.E.add(Id, C);
      Lo.E.addExpr(X, -1);
      Side.push_back(std::move(Lo));
      Constraint Hi; // x - c*q - (c-1) <= 0
      Hi.E.addExpr(X, 1);
      Hi.E.add(Id, -C);
      Hi.E.Const = 1 - C;
      Side.push_back(std::move(Hi));
    }
    // min/max bounds.
    if (T->kind() == TermKind::Min2 || T->kind() == TermKind::Max2) {
      LinExpr A, B;
      visit(T->arg(0), A, 1);
      visit(T->arg(1), B, 1);
      for (const LinExpr *Branch : {&A, &B}) {
        Constraint C;
        if (T->kind() == TermKind::Min2) {
          C.E.add(Id, 1);
          C.E.addExpr(*Branch, -1); // min <= branch
        } else {
          C.E.addExpr(*Branch, 1);
          C.E.add(Id, -1); // branch <= max
        }
        Side.push_back(std::move(C));
      }
    }
  }

  void visit(TermRef T, LinExpr &E, Wide Sign) {
    switch (T->kind()) {
    case TermKind::NatConst:
    case TermKind::IntConst:
      E.Const = addChk(E.Const, mulChk(Sign, T->num()));
      return;
    case TermKind::Add:
      visit(T->arg(0), E, Sign);
      visit(T->arg(1), E, Sign);
      return;
    case TermKind::Sub:
      if (T->sort() == Sort::Int) {
        visit(T->arg(0), E, Sign);
        visit(T->arg(1), E, negChk(Sign));
        return;
      }
      // Nat subtraction truncates; treat as atom with side bounds.
      atom(T, E, Sign);
      return;
    case TermKind::Mul: {
      TermRef A = T->arg(0), B = T->arg(1);
      if (A->isConst()) {
        visit(B, E, mulChk(Sign, A->num()));
        return;
      }
      if (B->isConst()) {
        visit(A, E, mulChk(Sign, B->num()));
        return;
      }
      atom(T, E, Sign);
      return;
    }
    default:
      atom(T, E, Sign);
      return;
    }
  }
};

/// Fourier–Motzkin's system of rows E <= 0. Each row's terms sit in one
/// shared buffer, sorted by atom, so a round copies and merges flat runs
/// and two systems alternate as the rounds' buffers.
struct RowSystem {
  struct Row {
    uint32_t Begin, End; ///< the row's terms in Terms
    Wide Const;
  };
  std::vector<Coeff> Terms;
  std::vector<Row> Rows;

  std::span<const Coeff> terms(const Row &R) const {
    return {Terms.data() + R.Begin, Terms.data() + R.End};
  }
  void push(std::span<const Coeff> Ts, Wide Const) {
    const auto Begin = static_cast<uint32_t>(Terms.size());
    Terms.insert(Terms.end(), Ts.begin(), Ts.end());
    Rows.push_back({Begin, static_cast<uint32_t>(Terms.size()), Const});
  }
  /// Appends CL * U + CU * L, with every zero coefficient dropped.
  void pushCombination(std::span<const Coeff> U, Wide CL, Wide UConst,
                       std::span<const Coeff> L, Wide CU, Wide LConst) {
    const auto Begin = static_cast<uint32_t>(Terms.size());
    auto I = U.begin(), J = L.begin();
    while (I != U.end() || J != L.end()) {
      Coeff T;
      if (J == L.end() || (I != U.end() && I->first < J->first)) {
        T = {I->first, mulChk(I->second, CL)};
        ++I;
      } else if (I == U.end() || J->first < I->first) {
        T = {J->first, mulChk(J->second, CU)};
        ++J;
      } else {
        T = {I->first,
             addChk(mulChk(I->second, CL), mulChk(J->second, CU))};
        ++I;
        ++J;
      }
      if (T.second != 0)
        Terms.push_back(T);
    }
    Rows.push_back({Begin, static_cast<uint32_t>(Terms.size()),
                    addChk(mulChk(UConst, CL), mulChk(LConst, CU))});
  }
};

/// The coefficient of \p Atom in the sorted terms \p Ts (0 if absent).
Wide coeffOf(std::span<const Coeff> Ts, unsigned Atom) {
  auto It = std::lower_bound(Ts.begin(), Ts.end(), Atom, BelowAtom);
  return It != Ts.end() && It->first == Atom ? It->second : 0;
}

/// Fourier–Motzkin infeasibility test for the system of constraints E <= 0
/// formed by \p Parts, one after another.
bool infeasible(std::initializer_list<std::span<const Constraint>> Parts) {
  constexpr size_t MaxConstraints = 4000;

  // Constant-only constraints: check satisfiability; drop satisfied ones.
  // Every row a round adds has an atom, so this is needed only once.
  RowSystem Cs, Next;
  for (std::span<const Constraint> P : Parts)
    for (const Constraint &C : P) {
      if (!C.E.isConst())
        Cs.push(C.E.Coeffs, C.E.Const);
      else if (C.E.Const > 0)
        return true; // c <= 0 with c > 0: contradiction
    }
  Next.Rows.reserve(Cs.Rows.size());
  Next.Terms.reserve(Cs.Terms.size());

  // Each round eliminates one atom and elimination never introduces new
  // atoms, so #atoms rounds always suffice to decide the system. A fixed
  // small round cap is incomplete the moment lemma instantiation inflates
  // the atom count (dozens of cheap one-sided atoms starve the atom that
  // carries the contradiction); MaxConstraints bounds the blowup instead.
  unsigned NumIds = 0;
  for (const RowSystem::Row &R : Cs.Rows)
    NumIds = std::max(NumIds, Cs.Terms[R.End - 1].first + 1);
  struct Tally {
    int Up = 0, Lo = 0;
    bool Listed = false;
  };
  std::vector<Tally> Counts(NumIds);
  std::vector<unsigned> Order; // atoms by first appearance in Cs
  auto tally = [&] {
    for (unsigned A : Order)
      Counts[A] = Tally();
    Order.clear();
    for (const auto &[A, Co] : Cs.Terms) {
      Tally &T = Counts[A];
      if (!T.Listed) {
        T.Listed = true;
        Order.push_back(A);
      }
      if (Co > 0)
        T.Up++; // appears as upper bound on A
      else
        T.Lo++;
    }
  };
  tally();
  const int MaxRounds =
      std::min<int>(512, static_cast<int>(Order.size()) + 1);

  // The rows holding the eliminated atom, with its coefficient there.
  std::vector<std::pair<uint32_t, Wide>> Upper, Lower;
  for (int Round = 0; Round < MaxRounds; ++Round) {
    if (Cs.Rows.empty())
      return false;

    // Pick the atom minimizing (#upper * #lower) to eliminate. Ties go to
    // the atom that appears first in the constraint list, so a call that
    // hits MaxConstraints answers the same in every process.
    if (Round > 0)
      tally();
    unsigned Best = 0;
    long BestCost = -1;
    for (unsigned A : Order) {
      long Cost = static_cast<long>(Counts[A].Up) * Counts[A].Lo;
      if (BestCost < 0 || Cost < BestCost) {
        Best = A;
        BestCost = Cost;
      }
    }

    // Partition on Best's coefficient sign: the rows without Best carry
    // over in order, ahead of the combinations.
    Upper.clear();
    Lower.clear();
    Next.Terms.clear();
    Next.Rows.clear();
    for (uint32_t I = 0; I < Cs.Rows.size(); ++I) {
      const RowSystem::Row &R = Cs.Rows[I];
      Wide C = coeffOf(Cs.terms(R), Best);
      if (C == 0)
        Next.push(Cs.terms(R), R.Const);
      else
        (C > 0 ? Upper : Lower).push_back({I, C});
    }

    // Combine every (upper, lower) pair.
    for (const auto &[UI, CU] : Upper) { // CU > 0
      const RowSystem::Row &U = Cs.Rows[UI];
      for (const auto &[LI, LC] : Lower) {
        const RowSystem::Row &L = Cs.Rows[LI];
        Next.pushCombination(Cs.terms(U), negChk(LC), U.Const, Cs.terms(L),
                             CU, L.Const);
        const RowSystem::Row &Comb = Next.Rows.back();
        assert(coeffOf(Next.terms(Comb), Best) == 0 &&
               "eliminated atom still present");
        if (Comb.Begin == Comb.End) {
          if (Comb.Const > 0)
            return true;
          Next.Rows.pop_back();
          continue;
        }
        if (Next.Rows.size() > MaxConstraints)
          return false; // give up rather than blow up
      }
    }
    std::swap(Cs, Next);
  }
  return false;
}

/// Turns a comparison hypothesis into constraints (E <= 0 form). Integer
/// tightening: a < b becomes a - b + 1 <= 0 (all our numeric sorts are
/// integral). Returns false if the term is not a usable hypothesis.
bool factToConstraints(TermRef F, Linearizer &Lin,
                       std::vector<Constraint> &Out) {
  auto numericSort = [](TermRef T) {
    return T->sort() == Sort::Nat || T->sort() == Sort::Int;
  };
  switch (F->kind()) {
  case TermKind::Le: {
    Constraint C;
    C.E.addExpr(Lin.run(F->arg(0)), 1);
    C.E.addExpr(Lin.run(F->arg(1)), -1);
    Out.push_back(std::move(C));
    return true;
  }
  case TermKind::Lt: {
    Constraint C;
    C.E.addExpr(Lin.run(F->arg(0)), 1);
    C.E.addExpr(Lin.run(F->arg(1)), -1);
    C.E.Const = addChk(C.E.Const, 1);
    Out.push_back(std::move(C));
    return true;
  }
  case TermKind::Eq:
    if (!numericSort(F->arg(0)) && !numericSort(F->arg(1)))
      return false;
    for (int Dir = 0; Dir < 2; ++Dir) {
      Constraint C;
      C.E.addExpr(Lin.run(F->arg(Dir)), 1);
      C.E.addExpr(Lin.run(F->arg(1 - Dir)), -1);
      Out.push_back(std::move(C));
    }
    return true;
  default:
    return false;
  }
}

/// Collects all constraints derivable from \p Facts.
std::vector<Constraint> collectFacts(const std::vector<TermRef> &Facts,
                                     Linearizer &Lin) {
  std::vector<Constraint> Cs;
  for (TermRef F : Facts)
    factToConstraints(F, Lin, Cs);
  return Cs;
}

/// Exactness round for truncated Nat subtraction: for each Sub atom
/// `t = a - b`, if `b <= a` follows from the base system (without the goal
/// negation it might justify), add the equality `t = a - b`.
void tightenNatSubs(Linearizer &Lin, std::vector<Constraint> &Base) {
  for (int Round = 0; Round < 2; ++Round) {
    bool Any = false;
    // Symbolic moduli: if 1 <= m, add  x % m <= m - 1.
    std::vector<TermRef> Mods = Lin.SymMods;
    for (TermRef T : Mods) {
      LinExpr M = Lin.run(T->arg(1));
      Constraint Neg; // m <= 0
      Neg.E.addExpr(M, 1);
      if (!infeasible({Base, {&Neg, 1}, Lin.Side}))
        continue;
      Constraint Hi; // T - m + 1 <= 0
      Hi.E.add(Lin.atomId(T), 1);
      Hi.E.addExpr(M, -1);
      Hi.E.Const = addChk(Hi.E.Const, 1);
      Base.push_back(std::move(Hi));
      Any = true;
    }
    Lin.SymMods.clear();
    // Snapshot: NatSubs may grow while linearizing a/b.
    std::vector<TermRef> Subs = Lin.NatSubs;
    for (TermRef T : Subs) {
      // Reuse Lin so shared atoms coincide.
      LinExpr A = Lin.run(T->arg(0));
      LinExpr B = Lin.run(T->arg(1));
      // Test: Base /\ (b - a >= 1) infeasible  ==>  b <= a derivable.
      Constraint Neg;
      Neg.E.addExpr(A, 1);
      Neg.E.addExpr(B, -1);
      // a - b + 1 <= 0 i.e. a < b, the negation of b <= a
      Neg.E.Const = addChk(Neg.E.Const, 1);
      if (!infeasible({Base, {&Neg, 1}, Lin.Side}))
        continue;
      // Add t >= a - b is already present; add t <= a - b to make it exact.
      Constraint Eq;
      Eq.E.add(Lin.atomId(T), 1);
      Eq.E.addExpr(A, -1);
      Eq.E.addExpr(B, 1);
      Base.push_back(std::move(Eq));
      Any = true;
    }
    if (!Any)
      break;
  }
}

/// Core entailment over a linearized, tightened system: is
/// Cs /\ not(A <= B) (Strict = 0) or Cs /\ not(A < B) (Strict = 1)
/// infeasible? not(a <= b) over integers is b + 1 <= a, i.e.
/// b - a + 1 <= 0.
bool refutesNegation(const Linearizer &Lin, const std::vector<Constraint> &Cs,
                     const LinExpr &A, const LinExpr &B, Wide Strict) {
  Constraint Neg;
  Neg.E.addExpr(B, 1);
  Neg.E.addExpr(A, -1);
  Neg.E.Const = addChk(Neg.E.Const, 1 - Strict);
  return infeasible({Cs, {&Neg, 1}, Lin.Side});
}

/// Proves a comparison goal by refuting its negation against the facts'
/// system \p Cs, linearizing the goal into \p Lin once for both
/// directions an (in)equality needs. False for any other goal.
bool refutesNegatedGoal(Linearizer &Lin, std::vector<Constraint> &Cs,
                        TermRef Goal) {
  TermKind K = Goal->kind();
  if (K != TermKind::Le && K != TermKind::Lt && K != TermKind::Eq &&
      K != TermKind::Ne)
    return false;
  TermRef A = Goal->arg(0), B = Goal->arg(1);
  bool Num = A->sort() == Sort::Nat || A->sort() == Sort::Int ||
             B->sort() == Sort::Nat || B->sort() == Sort::Int;
  if ((K == TermKind::Eq || K == TermKind::Ne) && !Num)
    return false;
  LinExpr LB = Lin.run(B);
  LinExpr LA = Lin.run(A);
  tightenNatSubs(Lin, Cs);
  switch (K) {
  case TermKind::Le:
    return refutesNegation(Lin, Cs, LA, LB, 0);
  case TermKind::Lt:
    return refutesNegation(Lin, Cs, LA, LB, 1);
  case TermKind::Eq:
    return refutesNegation(Lin, Cs, LA, LB, 0) &&
           refutesNegation(Lin, Cs, LB, LA, 0);
  default: // Ne
    return refutesNegation(Lin, Cs, LA, LB, 1) ||
           refutesNegation(Lin, Cs, LB, LA, 1);
  }
}

} // namespace

bool LinearSolver::inconsistent(const std::vector<TermRef> &Facts) {
  Overflowed = false;
  Linearizer Lin;
  std::vector<Constraint> Cs = collectFacts(Facts, Lin);
  bool R = infeasible({Cs, Lin.Side});
  if (Overflowed) {
    trace::count("solver.linear.overflow_bailouts");
    return false;
  }
  return R;
}

static bool proveWithNeSplits(const std::vector<TermRef> &Facts,
                              TermRef Goal, int Depth);

bool LinearSolver::prove(const std::vector<TermRef> &Facts, TermRef Goal) {
  trace::count("solver.linear.calls");
  Overflowed = false;
  bool R = proveWithNeSplits(Facts, Goal, 0);
  if (Overflowed) {
    trace::count("solver.linear.overflow_bailouts");
    return false;
  }
  return R;
}

/// Disequality hypotheses over integers split into the two strict orders;
/// the goal must hold in both branches (bounded depth).
static bool proveNoSplit(const std::vector<TermRef> &Facts, TermRef Goal);

static bool containsSubterm(TermRef T, TermRef Sub) {
  if (T == Sub)
    return true;
  for (TermRef A : T->args())
    if (containsSubterm(A, Sub))
      return true;
  return false;
}

/// Bounded congruence: for pairs of uninterpreted applications f(x̄), f(ȳ)
/// occurring in the problem, if every argument pair is derivably equal, add
/// f(x̄) = f(ȳ). One round; keeps `hmval(k)` and `hmval(ks !! i)` connected
/// after the hypothesis-substitution pass rewrote one of them.
static void addCongruences(std::vector<TermRef> &Facts, TermRef Goal) {
  std::vector<TermRef> Apps;
  auto Collect = [&](TermRef T, auto &&Self) -> void {
    if (T->kind() == TermKind::App && T->numArgs() > 0 &&
        std::find(Apps.begin(), Apps.end(), T) == Apps.end())
      Apps.push_back(T);
    for (TermRef A : T->args())
      Self(A, Self);
  };
  Collect(Goal, Collect);
  for (TermRef F : Facts)
    Collect(F, Collect);
  if (Apps.size() > 8)
    return; // keep the pre-pass cheap
  for (size_t I = 0; I < Apps.size(); ++I) {
    for (size_t J = I + 1; J < Apps.size(); ++J) {
      TermRef A = Apps[I], B = Apps[J];
      if (A->name() != B->name() || A->numArgs() != B->numArgs())
        continue;
      bool AllEq = true;
      for (unsigned K = 0; K < A->numArgs() && AllEq; ++K)
        if (A->arg(K) != B->arg(K) &&
            !proveNoSplit(Facts, mkEq(A->arg(K), B->arg(K))))
          AllEq = false;
      if (AllEq)
        Facts.push_back(mkEq(A, B));
    }
  }
}

static bool proveWithNeSplits(const std::vector<TermRef> &Facts0,
                              TermRef Goal, int Depth) {
  std::vector<TermRef> Facts = Facts0;
  if (Depth == 0)
    addCongruences(Facts, Goal);
  if (proveNoSplit(Facts, Goal))
    return true;
  if (Depth >= 1)
    return false;
  // Only split disequalities whose operands actually occur in the goal
  // (cheap relevance filter; splitting is quadratic in FM calls).
  bool Cmp = Goal->kind() == TermKind::Le || Goal->kind() == TermKind::Lt ||
             Goal->kind() == TermKind::Eq;
  if (!Cmp)
    return false;
  unsigned Tried = 0;
  for (size_t I = 0; I < Facts.size() && Tried < 4; ++I) {
    TermRef F = Facts[I];
    if (F->kind() != TermKind::Ne)
      continue;
    Sort SA = F->arg(0)->sort(), SB = F->arg(1)->sort();
    bool Num = SA == Sort::Nat || SA == Sort::Int || SB == Sort::Nat ||
               SB == Sort::Int;
    if (!Num)
      continue;
    if (!containsSubterm(Goal, F->arg(0)) &&
        !containsSubterm(Goal, F->arg(1)))
      continue;
    ++Tried;
    std::vector<TermRef> Lo = Facts, Hi = Facts;
    Lo[I] = mkLt(F->arg(0), F->arg(1));
    Hi[I] = mkLt(F->arg(1), F->arg(0));
    if (proveNoSplit(Lo, Goal) && proveNoSplit(Hi, Goal))
      return true;
  }
  return false;
}

static bool proveNoSplit(const std::vector<TermRef> &Facts, TermRef Goal) {
  if (Goal->isTrue())
    return true;
  // The facts are linearized once; the goal's refutation extends their
  // system, so remember where the facts' own constraints end.
  Linearizer Lin;
  std::vector<Constraint> Cs = collectFacts(Facts, Lin);
  const size_t NumFactCs = Cs.size(), NumFactSide = Lin.Side.size();
  if (refutesNegatedGoal(Lin, Cs, Goal))
    return true;
  // A contradictory context proves anything. Contradictory facts also
  // refute every negated goal (barring FM's caps), so this facts-only
  // check runs last, on exactly the facts' own constraints.
  return infeasible({std::span(Cs).first(NumFactCs),
                     std::span(Lin.Side).first(NumFactSide)});
}
