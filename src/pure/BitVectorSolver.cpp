//===- BitVectorSolver.cpp - Word-level bit-blasting backend --------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "pure/BitVectorSolver.h"

#include "trace/Trace.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

using namespace rcc::pure;

namespace {

//===----------------------------------------------------------------------===//
// A small ROBDD engine
//===----------------------------------------------------------------------===//

/// Reduced ordered BDDs with a unique table and an ite cache. Refs are
/// indices into the node vector; 0 and 1 are the false/true terminals.
/// Variable order is the integer order of variable ids (the blaster assigns
/// ids bit-position-major so vectors compared bit-by-bit interleave).
///
/// Both tables are flat open-addressing arrays with linear probing: the
/// unique table holds node indices (the node vector holds the keys), the
/// ite cache holds (cond, then, else, result) rows. Each starts at a few KB
/// and doubles once half full, so a small problem allocates little and a
/// lookup touches one or two cache lines.
///
/// The engine is budgeted: once the node count passes the budget, `Exhausted`
/// latches and every result is garbage — callers must check `exhausted()`
/// before trusting any ref. That keeps the hot loop free of error plumbing
/// while staying sound.
class Bdd {
public:
  static constexpr uint32_t F = 0, T = 1;

  explicit Bdd(size_t NodeBudget)
      : Unique(1024, Free), Cache(256, IteRow{Free, 0, 0, 0}),
        Budget(NodeBudget) {
    Nodes.push_back({Terminal, 0, 0}); // F
    Nodes.push_back({Terminal, 1, 1}); // T
  }

  bool exhausted() const { return Exhausted; }

  uint32_t var(int32_t V) { return mk(V, F, T); }
  uint32_t notOp(uint32_t A) { return ite(A, F, T); }
  uint32_t andOp(uint32_t A, uint32_t B) { return ite(A, B, F); }
  uint32_t orOp(uint32_t A, uint32_t B) { return ite(A, T, B); }
  uint32_t xorOp(uint32_t A, uint32_t B) { return ite(A, notOp(B), B); }
  uint32_t xnorOp(uint32_t A, uint32_t B) { return ite(A, B, notOp(B)); }

  uint32_t ite(uint32_t Cond, uint32_t Then, uint32_t Else) {
    if (Exhausted)
      return F;
    if (Cond == T)
      return Then;
    if (Cond == F)
      return Else;
    if (Then == Else)
      return Then;
    if (Then == T && Else == F)
      return Cond;
    const size_t Mask = Cache.size() - 1;
    for (size_t I = hash(Cond, Then, Else) & Mask;
         Cache[I].C != Free; I = (I + 1) & Mask)
      if (Cache[I].C == Cond && Cache[I].G == Then && Cache[I].H == Else)
        return Cache[I].R;
    int32_t V = std::min({topVar(Cond), topVar(Then), topVar(Else)});
    uint32_t Lo = ite(cof(Cond, V, false), cof(Then, V, false),
                      cof(Else, V, false));
    uint32_t Hi =
        ite(cof(Cond, V, true), cof(Then, V, true), cof(Else, V, true));
    uint32_t R = mk(V, Lo, Hi);
    // The recursion may have grown the cache: probe again to insert.
    insertRow(IteRow{Cond, Then, Else, R});
    if (++CacheUsed * 2 > Cache.size()) {
      std::vector<IteRow> Old = std::move(Cache);
      Cache.assign(Old.size() * 2, IteRow{Free, 0, 0, 0});
      for (const IteRow &Row : Old)
        if (Row.C != Free)
          insertRow(Row);
    }
    return R;
  }

private:
  static constexpr int32_t Terminal = INT32_MAX;
  static constexpr uint32_t Free = UINT32_MAX;

  struct Node {
    int32_t Var;
    uint32_t Lo, Hi;
  };
  struct IteRow {
    uint32_t C, G, H, R;
  };

  static size_t hash(uint32_t A, uint32_t B, uint32_t C) {
    uint64_t X = (((uint64_t(A) << 32) | B) * 0x9e3779b97f4a7c15ULL) ^ C;
    X ^= X >> 29;
    X *= 0xbf58476d1ce4e5b9ULL;
    X ^= X >> 32;
    return size_t(X);
  }

  /// Puts \p Row in the first free ite-cache slot of its probe run.
  void insertRow(const IteRow &Row) {
    const size_t Mask = Cache.size() - 1;
    size_t I = hash(Row.C, Row.G, Row.H) & Mask;
    while (Cache[I].C != Free)
      I = (I + 1) & Mask;
    Cache[I] = Row;
  }

  /// Puts node \p N in the first free unique-table slot of its probe run.
  void insertNode(uint32_t N) {
    const Node &Nd = Nodes[N];
    const size_t Mask = Unique.size() - 1;
    size_t I = hash(uint32_t(Nd.Var), Nd.Lo, Nd.Hi) & Mask;
    while (Unique[I] != Free)
      I = (I + 1) & Mask;
    Unique[I] = N;
  }

  int32_t topVar(uint32_t N) const { return Nodes[N].Var; }

  uint32_t cof(uint32_t N, int32_t V, bool Side) const {
    const Node &Nd = Nodes[N];
    if (Nd.Var != V)
      return N; // V is above N's top variable
    return Side ? Nd.Hi : Nd.Lo;
  }

  uint32_t mk(int32_t V, uint32_t Lo, uint32_t Hi) {
    if (Lo == Hi)
      return Lo;
    const size_t Mask = Unique.size() - 1;
    size_t I = hash(uint32_t(V), Lo, Hi) & Mask;
    for (; Unique[I] != Free; I = (I + 1) & Mask) {
      const Node &Nd = Nodes[Unique[I]];
      if (Nd.Var == V && Nd.Lo == Lo && Nd.Hi == Hi)
        return Unique[I];
    }
    if (Nodes.size() >= Budget) {
      Exhausted = true;
      return F;
    }
    Nodes.push_back({V, Lo, Hi});
    uint32_t R = uint32_t(Nodes.size() - 1);
    Unique[I] = R;
    if ((Nodes.size() - 2) * 2 > Unique.size()) {
      Unique.assign(Unique.size() * 2, Free);
      for (uint32_t N = 2; N < Nodes.size(); ++N)
        insertNode(N);
    }
    return R;
  }

  std::vector<Node> Nodes;
  std::vector<uint32_t> Unique; ///< node index per slot, Free if empty
  std::vector<IteRow> Cache;    ///< C == Free marks an empty row
  size_t CacheUsed = 0;
  size_t Budget;
  bool Exhausted = false;
};

//===----------------------------------------------------------------------===//
// Bound scraping
//===----------------------------------------------------------------------===//

/// Per-atom interval knowledge scraped from the hypotheses. `Upper` is the
/// tightest constant upper bound seen; `NonNeg` records that some hypothesis
/// (or the Nat sort) forces the atom >= 0 — required before an Int-sorted
/// atom may be finitely encoded.
struct AtomBound {
  int64_t Upper = -1;
  bool HasUpper = false;
  bool NonNeg = false;
};

class Bounds {
public:
  explicit Bounds(const std::vector<TermRef> &Facts) {
    for (TermRef F : Facts)
      scrape(F);
  }

  /// The inclusive upper bound for \p T, or false if unknown / possibly
  /// negative. Nat-sorted terms are implicitly non-negative.
  bool boundOf(TermRef T, int64_t &U) const {
    auto It = Map.find(T);
    if (It == Map.end() || !It->second.HasUpper)
      return false;
    if (!(T->sort() == Sort::Nat || It->second.NonNeg))
      return false;
    U = It->second.Upper;
    return U >= 0;
  }

private:
  void upper(TermRef T, int64_t U) {
    AtomBound &B = Map[T];
    if (!B.HasUpper || U < B.Upper) {
      B.Upper = U;
      B.HasUpper = true;
    }
  }
  void lower(TermRef T, int64_t L) {
    if (L >= 0)
      Map[T].NonNeg = true;
  }

  void scrape(TermRef F) {
    switch (F->kind()) {
    case TermKind::Le:
      if (F->arg(1)->isConst())
        upper(F->arg(0), F->arg(1)->num());
      if (F->arg(0)->isConst())
        lower(F->arg(1), F->arg(0)->num());
      return;
    case TermKind::Lt:
      if (F->arg(1)->isConst())
        upper(F->arg(0), F->arg(1)->num() - 1);
      if (F->arg(0)->isConst())
        lower(F->arg(1), F->arg(0)->num() + 1);
      return;
    case TermKind::Eq:
      for (int Dir = 0; Dir < 2; ++Dir)
        if (F->arg(Dir)->isConst()) {
          upper(F->arg(1 - Dir), F->arg(Dir)->num());
          lower(F->arg(1 - Dir), F->arg(Dir)->num());
        }
      return;
    case TermKind::And:
      scrape(F->arg(0));
      scrape(F->arg(1));
      return;
    default:
      return;
    }
  }

  std::map<TermRef, AtomBound> Map;
};

//===----------------------------------------------------------------------===//
// The bit blaster
//===----------------------------------------------------------------------===//

bool isWordApp(TermRef T, const char *Name, unsigned Arity) {
  return T->kind() == TermKind::App && T->numArgs() == Arity &&
         T->name() == Name;
}

/// Translates terms into little-endian vectors of BDD refs and propositions
/// into single refs. Translation failure (unsupported shape, unbounded
/// atom) sets `Fail`; partially-registered atoms and their domain
/// constraints survive a failed attempt — they only ever encode scraped
/// hypothesis bounds, so conjoining them stays sound.
class Blaster {
public:
  /// Vectors stay small: an atom is at most 63 bits (int64 bounds) and a
  /// shift widens by at most MaxExp.
  static constexpr int64_t MaxExp = 63;
  static constexpr size_t MaxAtoms = 48;

  Blaster(Bdd &B, const Bounds &Bnds) : B(B), Bnds(Bnds) {}

  bool Fail = false;

  /// Domain constraints (atom <= bound), to conjoin with the hypotheses.
  std::vector<uint32_t> Domain;

  using Vec = std::vector<uint32_t>; // LSB first

  /// Propositional translation.
  uint32_t prop(TermRef P) {
    switch (P->kind()) {
    case TermKind::BoolConst:
      return P->num() ? Bdd::T : Bdd::F;
    case TermKind::Not:
      return B.notOp(prop(P->arg(0)));
    case TermKind::And:
      return B.andOp(prop(P->arg(0)), prop(P->arg(1)));
    case TermKind::Or:
      return B.orOp(prop(P->arg(0)), prop(P->arg(1)));
    case TermKind::Implies:
      return B.ite(prop(P->arg(0)), prop(P->arg(1)), Bdd::T);
    case TermKind::Le:
      return le(vec(P->arg(0)), vec(P->arg(1)), false);
    case TermKind::Lt:
      return le(vec(P->arg(0)), vec(P->arg(1)), true);
    case TermKind::Eq:
      if (!numeric(P->arg(0)) || !numeric(P->arg(1)))
        return fail();
      return eq(vec(P->arg(0)), vec(P->arg(1)));
    case TermKind::Ne:
      if (!numeric(P->arg(0)) || !numeric(P->arg(1)))
        return fail();
      return B.notOp(eq(vec(P->arg(0)), vec(P->arg(1))));
    default:
      return fail();
    }
  }

private:
  Bdd &B;
  const Bounds &Bnds;
  std::map<TermRef, Vec> Atoms;

  static bool numeric(TermRef T) {
    return T->sort() == Sort::Nat || T->sort() == Sort::Int;
  }

  uint32_t fail() {
    Fail = true;
    return Bdd::F;
  }
  Vec failVec() {
    Fail = true;
    return {};
  }

  static Vec constVec(int64_t V) {
    Vec Out;
    for (uint64_t U = uint64_t(V); U; U >>= 1)
      Out.push_back((U & 1) ? Bdd::T : Bdd::F);
    return Out;
  }

  uint32_t bit(const Vec &V, size_t I) const {
    return I < V.size() ? V[I] : Bdd::F;
  }

  /// a <= b (or a < b when \p Strict), zero-extended to a common width.
  uint32_t le(const Vec &A, const Vec &Bv, bool Strict) {
    if (Fail)
      return Bdd::F;
    size_t W = std::max(A.size(), Bv.size());
    uint32_t Acc = Strict ? Bdd::F : Bdd::T;
    for (size_t I = 0; I < W; ++I) {
      uint32_t Ai = bit(A, I), Bi = bit(Bv, I);
      uint32_t LtI = B.andOp(B.notOp(Ai), Bi);
      uint32_t EqI = B.xnorOp(Ai, Bi);
      Acc = B.orOp(LtI, B.andOp(EqI, Acc));
    }
    return Acc;
  }

  uint32_t eq(const Vec &A, const Vec &Bv) {
    if (Fail)
      return Bdd::F;
    size_t W = std::max(A.size(), Bv.size());
    uint32_t Acc = Bdd::T;
    for (size_t I = 0; I < W; ++I)
      Acc = B.andOp(Acc, B.xnorOp(bit(A, I), bit(Bv, I)));
    return Acc;
  }

  Vec add(const Vec &A, const Vec &Bv) {
    size_t W = std::max(A.size(), Bv.size()) + 1;
    Vec Out(W);
    uint32_t Carry = Bdd::F;
    for (size_t I = 0; I < W; ++I) {
      uint32_t Ai = bit(A, I), Bi = bit(Bv, I);
      uint32_t AxB = B.xorOp(Ai, Bi);
      Out[I] = B.xorOp(AxB, Carry);
      Carry = B.orOp(B.andOp(Ai, Bi), B.andOp(AxB, Carry));
    }
    return Out;
  }

  Vec shl(const Vec &A, size_t K) {
    Vec Out(A.size() + K, Bdd::F);
    for (size_t I = 0; I < A.size(); ++I)
      Out[I + K] = A[I];
    return Out;
  }

  Vec constMul(const Vec &A, int64_t C) {
    if (C < 0)
      return failVec();
    Vec Out; // zero
    for (int K = 0; K < 63; ++K)
      if (C & (int64_t(1) << K))
        Out = add(Out, shl(A, size_t(K)));
    return Out;
  }

  /// (e == k) for a blasted exponent vector.
  uint32_t eqConst(const Vec &E, int64_t K) {
    if (K < 0)
      return Bdd::F;
    size_t W = E.size();
    if (W < 63 && (uint64_t(K) >> W))
      return Bdd::F; // k does not fit in e's width
    uint32_t Acc = Bdd::T;
    for (size_t I = 0; I < W; ++I) {
      bool KBit = (uint64_t(K) >> I) & 1;
      Acc = B.andOp(Acc, KBit ? E[I] : B.notOp(E[I]));
    }
    return Acc;
  }

  /// Blasts a pow2 exponent: returns its vector and inclusive max value.
  bool exponent(TermRef E, Vec &EV, int64_t &MaxE) {
    if (E->isConst()) {
      MaxE = E->num();
      if (MaxE < 0 || MaxE > MaxExp)
        return false;
      EV = constVec(MaxE);
      return true;
    }
    if (!Bnds.boundOf(E, MaxE) || MaxE > MaxExp)
      return false;
    EV = vec(E);
    return !Fail;
  }

  /// x * 2^e as a variable left shift: one multiplexer stage per exponent
  /// bit, stage i shifting by 2^i when bit i is set. The output is x
  /// widened by MaxE bits, exact for every e <= MaxE; the exponent's bound
  /// is part of the formula, so larger e never reach the verdict.
  Vec varShl(const Vec &A, const Vec &E, int64_t MaxE) {
    Vec Out(A.size() + size_t(MaxE), Bdd::F);
    std::copy(A.begin(), A.end(), Out.begin());
    for (size_t S = 0; S < E.size(); ++S) {
      const size_t Amt = size_t(1) << S;
      for (size_t I = Out.size(); I-- > 0;)
        Out[I] = B.ite(E[S], I >= Amt ? Out[I - Amt] : Bdd::F, Out[I]);
    }
    return Out;
  }

  /// x / 2^e as a variable right shift, one stage per exponent bit.
  Vec varShr(const Vec &A, const Vec &E) {
    Vec Out = A;
    for (size_t S = 0; S < E.size(); ++S) {
      const size_t Amt = size_t(1) << S;
      for (size_t I = 0; I < Out.size(); ++I)
        Out[I] = B.ite(E[S], Amt < Out.size() - I ? Out[I + Amt] : Bdd::F,
                       Out[I]);
    }
    return Out;
  }

  /// An opaque term becomes a fresh bounded variable vector. Variable ids
  /// are bit-position-major (bit * MaxAtoms + atom) so the vectors of
  /// different atoms interleave — the order that keeps comparison and adder
  /// BDDs linear.
  Vec atom(TermRef T) {
    auto It = Atoms.find(T);
    if (It != Atoms.end())
      return It->second;
    int64_t U;
    if (!Bnds.boundOf(T, U) || Atoms.size() >= MaxAtoms)
      return failVec();
    size_t W = 0;
    while (W < 63 && (uint64_t(U) >> W))
      ++W;
    Vec V(W);
    int32_t Idx = int32_t(Atoms.size());
    for (size_t I = 0; I < W; ++I)
      V[I] = B.var(int32_t(I) * int32_t(MaxAtoms) + Idx);
    Atoms.emplace(T, V);
    Domain.push_back(le(V, constVec(U), false));
    return V;
  }

  Vec vec(TermRef T) {
    if (Fail)
      return {};
    if (!numeric(T))
      return failVec();
    switch (T->kind()) {
    case TermKind::NatConst:
    case TermKind::IntConst:
      if (T->num() < 0)
        return failVec();
      return constVec(T->num());
    case TermKind::EVar:
      return failVec();
    case TermKind::Add:
      return add(vec(T->arg(0)), vec(T->arg(1)));
    case TermKind::Mul: {
      TermRef A = T->arg(0), C = T->arg(1);
      // x << e arrives as x * pow2(e).
      for (int Dir = 0; Dir < 2; ++Dir, std::swap(A, C))
        if (isWordApp(C, "pow2", 1)) {
          Vec EV;
          int64_t MaxE;
          if (!exponent(C->arg(0), EV, MaxE))
            return failVec();
          return varShl(vec(A), EV, MaxE);
        }
      for (int Dir = 0; Dir < 2; ++Dir, std::swap(A, C))
        if (C->isConst())
          return constMul(vec(A), C->num());
      return atom(T); // nonlinear: opaque, usable only if bounded
    }
    case TermKind::Div: {
      // x >> e arrives as x / pow2(e); constant power-of-two divisors are
      // fixed shifts.
      TermRef A = T->arg(0), D = T->arg(1);
      if (isWordApp(D, "pow2", 1)) {
        Vec EV;
        int64_t MaxE;
        if (!exponent(D->arg(0), EV, MaxE))
          return failVec();
        return varShr(vec(A), EV);
      }
      if (D->isConst() && D->num() > 0 && (D->num() & (D->num() - 1)) == 0) {
        Vec AV = vec(A);
        size_t K = 0;
        while ((int64_t(1) << K) != D->num())
          ++K;
        Vec Out;
        for (size_t I = K; I < AV.size(); ++I)
          Out.push_back(AV[I]);
        return Out;
      }
      return atom(T);
    }
    case TermKind::Mod: {
      // x mod 2^k keeps the low k bits.
      TermRef A = T->arg(0), D = T->arg(1);
      if (D->isConst() && D->num() > 0 && (D->num() & (D->num() - 1)) == 0) {
        Vec AV = vec(A);
        size_t K = 0;
        while ((int64_t(1) << K) != D->num())
          ++K;
        if (AV.size() > K)
          AV.resize(K);
        return AV;
      }
      return atom(T);
    }
    case TermKind::App: {
      if (isWordApp(T, "pow2", 1)) {
        Vec EV;
        int64_t MaxE;
        if (!exponent(T->arg(0), EV, MaxE))
          return failVec();
        Vec Out(size_t(MaxE) + 1);
        for (int64_t K = 0; K <= MaxE; ++K)
          Out[size_t(K)] = eqConst(EV, K);
        return Out;
      }
      bool Land = isWordApp(T, "land", 2), Lor = isWordApp(T, "lor", 2),
           Lxor = isWordApp(T, "lxor", 2);
      if (Land || Lor || Lxor) {
        Vec A = vec(T->arg(0)), C = vec(T->arg(1));
        if (Fail)
          return {};
        size_t W = Land ? std::min(A.size(), C.size())
                        : std::max(A.size(), C.size());
        Vec Out(W);
        for (size_t I = 0; I < W; ++I)
          Out[I] = Land ? B.andOp(bit(A, I), bit(C, I))
                 : Lor  ? B.orOp(bit(A, I), bit(C, I))
                        : B.xorOp(bit(A, I), bit(C, I));
        return Out;
      }
      return atom(T); // uninterpreted application: opaque
    }
    default:
      return atom(T); // Var, Sub, Min2, ... : opaque, needs a bound
    }
  }
};

bool containsWordOp(TermRef T) {
  if (isWordApp(T, "land", 2) || isWordApp(T, "lor", 2) ||
      isWordApp(T, "lxor", 2) || isWordApp(T, "pow2", 1))
    return true;
  for (TermRef A : T->args())
    if (containsWordOp(A))
      return true;
  return false;
}

} // namespace

bool BitVectorSolver::relevant(const std::vector<TermRef> &Facts,
                               TermRef Goal) {
  switch (Goal->kind()) {
  case TermKind::Le:
  case TermKind::Lt:
  case TermKind::Eq:
  case TermKind::Ne:
  case TermKind::And:
  case TermKind::Or:
  case TermKind::Not:
  case TermKind::Implies:
    break;
  default:
    return false;
  }
  if (containsWordOp(Goal))
    return true;
  for (TermRef F : Facts)
    if (containsWordOp(F))
      return true;
  return false;
}

bool BitVectorSolver::prove(const std::vector<TermRef> &Facts, TermRef Goal) {
  trace::count("solver.bitvector.calls");
  if (containsEVar(Goal))
    return false;

  constexpr size_t NodeBudget = 1 << 20;
  Bdd B(NodeBudget);
  Bounds Bnds(Facts);
  Blaster BB(B, Bnds);

  uint32_t G = BB.prop(Goal);
  if (BB.Fail || B.exhausted())
    return false;

  uint32_t H = Bdd::T;
  for (TermRef F : Facts) {
    if (containsEVar(F))
      continue;
    BB.Fail = false;
    uint32_t FB = BB.prop(F);
    if (!BB.Fail)
      H = B.andOp(H, FB); // untranslatable hypotheses are skipped (sound)
  }
  for (uint32_t D : BB.Domain)
    H = B.andOp(H, D);

  uint32_t Bad = B.andOp(H, B.notOp(G));
  if (B.exhausted())
    return false; // budget blown: verdict untrustworthy
  if (Bad != Bdd::F)
    return false;
  trace::count("solver.bitvector.proved");
  return true;
}
