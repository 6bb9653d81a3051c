//===- CollectionSolver.cpp -----------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "pure/CollectionSolver.h"

#include "pure/Simplify.h"
#include "trace/Trace.h"

using namespace rcc::pure;

bool CollectionNF::provablyNonEmpty() const {
  for (const auto &[E, C] : Elems)
    if (C > 0)
      return true;
  return false;
}

CollectionNF rcc::pure::normalizeCollection(TermRef T, bool IsSet) {
  CollectionNF NF;
  switch (T->kind()) {
  case TermKind::MEmpty:
  case TermKind::SEmpty:
    return NF;
  case TermKind::MSingle:
  case TermKind::SSingle:
    NF.Elems[T->arg(0)] = 1;
    return NF;
  case TermKind::MUnion:
  case TermKind::SUnion: {
    CollectionNF A = normalizeCollection(T->arg(0), IsSet);
    CollectionNF B = normalizeCollection(T->arg(1), IsSet);
    for (const auto &[E, C] : B.Elems)
      A.Elems[E] += C;
    for (const auto &[At, C] : B.Atoms)
      A.Atoms[At] += C;
    if (IsSet) {
      for (auto &[E, C] : A.Elems)
        C = C > 0 ? 1 : 0;
      for (auto &[At, C] : A.Atoms)
        C = C > 0 ? 1 : 0;
    }
    return A;
  }
  case TermKind::MDiff: {
    CollectionNF A = normalizeCollection(T->arg(0), IsSet);
    CollectionNF B = normalizeCollection(T->arg(1), IsSet);
    // Only sound when B is syntactically contained in A; otherwise opaque.
    bool Contained = true;
    for (const auto &[E, C] : B.Elems) {
      auto It = A.Elems.find(E);
      if (It == A.Elems.end() || It->second < C)
        Contained = false;
    }
    for (const auto &[At, C] : B.Atoms) {
      auto It = A.Atoms.find(At);
      if (It == A.Atoms.end() || It->second < C)
        Contained = false;
    }
    if (!Contained) {
      CollectionNF Opaque;
      Opaque.Atoms[T] = 1;
      return Opaque;
    }
    for (const auto &[E, C] : B.Elems) {
      A.Elems[E] -= C;
      if (A.Elems[E] == 0)
        A.Elems.erase(E);
    }
    for (const auto &[At, C] : B.Atoms) {
      A.Atoms[At] -= C;
      if (A.Atoms[At] == 0)
        A.Atoms.erase(At);
    }
    return A;
  }
  default:
    NF.Atoms[T] = 1;
    return NF;
  }
}

namespace {

bool isCollectionSort(TermRef T) {
  return T->sort() == Sort::MSet || T->sort() == Sort::Set;
}

/// Builds a rewriting map from hypothesis equalities whose one side is an
/// opaque collection variable: v = t (or t = v).
std::map<TermRef, TermRef>
collectionRewrites(const std::vector<TermRef> &Facts) {
  std::map<TermRef, TermRef> Map;
  for (TermRef F : Facts) {
    if (F->kind() != TermKind::Eq)
      continue;
    TermRef A = F->arg(0), B = F->arg(1);
    if (!isCollectionSort(A))
      continue;
    if (A->kind() == TermKind::Var && !containsFreeVar(B, A->name()))
      Map[A] = B;
    else if (B->kind() == TermKind::Var && !containsFreeVar(A, B->name()))
      Map[B] = A;
    // Uninterpreted applications may also act as rewrite keys (lemmas about
    // functional abstractions, e.g. tinsert(s, v) = {[v]} ⊎ s).
    else if (A->kind() == TermKind::App)
      Map[A] = B;
    else if (B->kind() == TermKind::App)
      Map[B] = A;
  }
  return Map;
}

TermRef applyRewrites(TermRef T, const std::map<TermRef, TermRef> &Map,
                      int Depth = 0) {
  if (Depth > 8)
    return T;
  auto It = Map.find(T);
  if (It != Map.end())
    return applyRewrites(It->second, Map, Depth + 1);
  return mapArgs(T, [&](TermRef A) { return applyRewrites(A, Map, Depth); });
}

/// Membership cases of element \p X in normal form \p NF: either X equals an
/// explicit element, or X is a member of one of the atoms.
struct MembershipCases {
  std::vector<TermRef> ElemEqualities; ///< X = e for explicit elements e
  std::vector<TermRef> AtomMemberships; ///< X ∈ atom
};

MembershipCases membershipCases(TermRef X, const CollectionNF &NF,
                                bool IsSet) {
  MembershipCases MC;
  for (const auto &[E, C] : NF.Elems)
    if (C > 0)
      MC.ElemEqualities.push_back(mkEq(X, E));
  for (const auto &[At, C] : NF.Atoms)
    if (C > 0)
      MC.AtomMemberships.push_back(IsSet ? mkSElem(X, At) : mkMElem(X, At));
  return MC;
}

} // namespace

std::vector<TermRef> CollectionSolver::instantiateMembershipForalls(
    const std::vector<TermRef> &Facts) {
  std::vector<TermRef> Derived;
  std::map<TermRef, TermRef> Rewrites = collectionRewrites(Facts);

  for (TermRef F : Facts) {
    if (F->kind() != TermKind::Forall)
      continue;
    TermRef Body = F->arg(0);
    if (Body->kind() != TermKind::Implies)
      continue;
    TermRef Guard = Body->arg(0);
    if (Guard->kind() != TermKind::MElem && Guard->kind() != TermKind::SElem)
      continue;
    bool IsSet = Guard->kind() == TermKind::SElem;
    TermRef BVar = Guard->arg(0);
    if (BVar->kind() != TermKind::Var || BVar->name() != F->name())
      continue;
    TermRef Domain = applyRewrites(Guard->arg(1), Rewrites);
    CollectionNF DomNF = normalizeCollection(Domain, IsSet);

    // Instantiate at explicit elements of the domain.
    for (const auto &[E, C] : DomNF.Elems)
      if (C > 0)
        Derived.push_back(substVar(Body->arg(1), F->name(), E));

    // Instantiate at terms known to be members: a hypothesis `t ∈ M` where
    // the domain covers M entirely (every part of M's NF appears in the
    // domain's NF).
    for (TermRef G : Facts) {
      if (G->kind() != TermKind::MElem && G->kind() != TermKind::SElem)
        continue;
      TermRef MT = applyRewrites(G->arg(1), Rewrites);
      CollectionNF MNF = normalizeCollection(MT, IsSet);
      bool Covered = true;
      for (const auto &[E, C] : MNF.Elems)
        if (C > 0 && (!DomNF.Elems.count(E) || DomNF.Elems.at(E) < C))
          Covered = false;
      for (const auto &[At, C] : MNF.Atoms)
        if (C > 0 && (!DomNF.Atoms.count(At) || DomNF.Atoms.at(At) < C))
          Covered = false;
      if (Covered)
        Derived.push_back(substVar(Body->arg(1), F->name(), G->arg(0)));
    }
  }
  return Derived;
}

bool CollectionSolver::prove(
    const std::vector<TermRef> &Facts, TermRef Goal,
    bool (*ProveArith)(const std::vector<TermRef> &, TermRef)) {
  trace::count("solver.collection.calls");
  std::map<TermRef, TermRef> Rewrites = collectionRewrites(Facts);
  Goal = applyRewrites(Goal, Rewrites);
  Simplifier Simp;
  Goal = Simp.simplify(Goal);

  switch (Goal->kind()) {
  case TermKind::BoolConst:
    return Goal->isTrue();
  case TermKind::And:
    return prove(Facts, Goal->arg(0), ProveArith) &&
           prove(Facts, Goal->arg(1), ProveArith);
  case TermKind::Or:
    return prove(Facts, Goal->arg(0), ProveArith) ||
           prove(Facts, Goal->arg(1), ProveArith);
  case TermKind::Eq: {
    if (!isCollectionSort(Goal->arg(0)))
      return false;
    bool IsSet = Goal->arg(0)->sort() == Sort::Set;
    CollectionNF A = normalizeCollection(Goal->arg(0), IsSet);
    CollectionNF B = normalizeCollection(Goal->arg(1), IsSet);
    if (A == B)
      return true;
    // Element-wise: if atom parts agree and element multiplicities match up
    // to provable element equalities, accept. We keep it syntactic here.
    return false;
  }
  case TermKind::Ne: {
    if (!isCollectionSort(Goal->arg(0)))
      return false;
    bool IsSet = Goal->arg(0)->sort() == Sort::Set;
    CollectionNF A = normalizeCollection(Goal->arg(0), IsSet);
    CollectionNF B = normalizeCollection(Goal->arg(1), IsSet);
    // Provably nonempty vs empty.
    if (A.provablyNonEmpty() && B.empty())
      return true;
    if (B.provablyNonEmpty() && A.empty())
      return true;
    return false;
  }
  case TermKind::MElem:
  case TermKind::SElem: {
    bool IsSet = Goal->kind() == TermKind::SElem;
    CollectionNF NF = normalizeCollection(Goal->arg(1), IsSet);
    MembershipCases MC = membershipCases(Goal->arg(0), NF, IsSet);
    for (TermRef EqCase : MC.ElemEqualities)
      if (Simp.simplify(EqCase)->isTrue() || ProveArith(Facts, EqCase))
        return true;
    // X ∈ atom holds if the facts contain it directly.
    for (TermRef Mem : MC.AtomMemberships)
      for (TermRef F : Facts)
        if (applyRewrites(F, Rewrites) == Mem || F == Mem)
          return true;
    return false;
  }
  case TermKind::Not: {
    // Non-membership: x ∉ M needs x to differ from every explicit element
    // and x ∉ A for every atom part (from the facts).
    TermRef Inner = Goal->arg(0);
    if (Inner->kind() != TermKind::MElem && Inner->kind() != TermKind::SElem)
      return false;
    bool IsSet = Inner->kind() == TermKind::SElem;
    TermRef X = Inner->arg(0);
    CollectionNF NF = normalizeCollection(
        applyRewrites(Inner->arg(1), Rewrites), IsSet);
    for (const auto &[E, C] : NF.Elems) {
      if (C <= 0)
        continue;
      if (!ProveArith(Facts, mkNe(X, E)))
        return false;
    }
    for (const auto &[At, C] : NF.Atoms) {
      if (C <= 0)
        continue;
      TermRef Want = Simp.simplify(
          mkNot(IsSet ? mkSElem(X, At) : mkMElem(X, At)));
      bool Found = false;
      for (TermRef F : Facts)
        if (F == Want || applyRewrites(F, Rewrites) == Want)
          Found = true;
      if (!Found)
        return false;
    }
    return true;
  }
  case TermKind::Forall: {
    // Goal: forall k, guard(k) -> body(k) where the guard is a disjunction
    // of membership atoms `k ∈ M` and equalities `k = e` (the simplifier may
    // already have expanded `k ∈ {[n]} (+) tail` into such a disjunction).
    // Introduce a fresh k and case split over the guard structure.
    TermRef Body = Goal->arg(0);
    if (Body->kind() != TermKind::Implies)
      return false;
    TermRef Concl = Body->arg(1);

    // The fresh name must be deterministic for a given goal (a global
    // counter would make proof output depend on how many goals other
    // verification jobs processed first): derive it from the binder and
    // disambiguate against the body's free variables. '!' cannot appear in
    // user-written identifiers, so only our own nested introductions can
    // collide, and appending another '!' resolves that.
    std::string FreshName = Goal->name() + "!";
    while (containsFreeVar(Body, FreshName))
      FreshName += "!";
    Sort BSort = static_cast<Sort>(Goal->binderSort());
    TermRef K = mkVar(FreshName, BSort);
    TermRef Guard = substVar(Body->arg(0), Goal->name(), K);
    TermRef ConclK = substVar(Concl, Goal->name(), K);

    // Decompose the guard into element-equality cases and membership cases.
    std::vector<TermRef> ElemCases;   // terms e such that k = e
    std::vector<TermRef> MemberCases; // collections M such that k ∈ M
    bool IsSet = false;
    auto Decompose = [&](TermRef G, auto &&Self) -> bool {
      switch (G->kind()) {
      case TermKind::Or:
        return Self(G->arg(0), Self) && Self(G->arg(1), Self);
      case TermKind::Eq:
        if (G->arg(0) == K) {
          ElemCases.push_back(G->arg(1));
          return true;
        }
        if (G->arg(1) == K) {
          ElemCases.push_back(G->arg(0));
          return true;
        }
        return false;
      case TermKind::MElem:
      case TermKind::SElem: {
        if (G->arg(0) != K)
          return false;
        IsSet = G->kind() == TermKind::SElem;
        TermRef Domain = applyRewrites(G->arg(1), Rewrites);
        CollectionNF NF = normalizeCollection(Domain, IsSet);
        for (const auto &[E, C] : NF.Elems)
          if (C > 0)
            ElemCases.push_back(E);
        for (const auto &[At, C] : NF.Atoms)
          if (C > 0)
            MemberCases.push_back(At);
        return true;
      }
      default:
        return false;
      }
    };
    if (!Decompose(Guard, Decompose))
      return false;

    std::vector<TermRef> Extended = Facts;
    for (TermRef D : instantiateMembershipForalls(Facts))
      Extended.push_back(D);

    // k = e cases: prove the conclusion at e.
    for (TermRef E : ElemCases) {
      TermRef Inst = Simp.simplify(substVar(Concl, Goal->name(), E));
      if (!ProveArith(Extended, Inst) && !prove(Facts, Inst, ProveArith))
        return false;
    }
    // k ∈ atom cases: add the membership fact, instantiate covering
    // forall hypotheses, and prove pointwise.
    for (TermRef At : MemberCases) {
      TermRef Membership = IsSet ? mkSElem(K, At) : mkMElem(K, At);
      std::vector<TermRef> Branch = Extended;
      Branch.push_back(Membership);
      for (TermRef D : instantiateMembershipForalls(Branch))
        Branch.push_back(D);
      if (!ProveArith(Branch, Simp.simplify(ConclK)))
        return false;
    }
    return true;
  }
  default:
    return false;
  }
}
