//===- Simplify.cpp -------------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "pure/Simplify.h"

using namespace rcc::pure;

Simplifier::Simplifier() = default;

namespace {
bool bothConst(TermRef T) { return T->arg(0)->isConst() && T->arg(1)->isConst(); }

int64_t cval(TermRef T) { return T->num(); }

TermRef numConst(Sort S, int64_t V) {
  if (S == Sort::Nat)
    return mkNat(V < 0 ? 0 : V);
  return mkInt(V);
}

/// Checked constant folds: constants are stored as int64_t, so a fold whose
/// mathematical result does not fit must be left unfolded (return nullptr)
/// rather than wrapped — a wrapped constant fed to the linear solver would
/// be a soundness hole the overflow guard there cannot see.
TermRef foldAdd(Sort S, int64_t A, int64_t B) {
  int64_t R;
  return __builtin_add_overflow(A, B, &R) ? nullptr : numConst(S, R);
}
TermRef foldSub(Sort S, int64_t A, int64_t B) {
  int64_t R;
  return __builtin_sub_overflow(A, B, &R) ? nullptr : numConst(S, R);
}
TermRef foldMul(Sort S, int64_t A, int64_t B) {
  int64_t R;
  return __builtin_mul_overflow(A, B, &R) ? nullptr : numConst(S, R);
}
} // namespace

/// One local simplification step at the root of \p T (children already
/// simplified). Returns nullptr when nothing applies.
static TermRef simplifyRoot(TermRef T) {
  switch (T->kind()) {
  case TermKind::Add: {
    TermRef A = T->arg(0), B = T->arg(1);
    if (bothConst(T))
      return foldAdd(T->sort(), cval(A), cval(B));
    if (A->isConst() && cval(A) == 0)
      return B;
    if (B->isConst() && cval(B) == 0)
      return A;
    // (x - c) + c => x for nat only when c <= x; keep conservative: only for
    // Int sort. For Nat, (x - y) + y is max(x, y); simplify when y syntactic
    // equal and we cannot prove y <= x — leave to the solver.
    if (T->sort() == Sort::Int && A->kind() == TermKind::Sub &&
        A->arg(1) == B)
      return A->arg(0);
    return nullptr;
  }
  case TermKind::Sub: {
    TermRef A = T->arg(0), B = T->arg(1);
    if (bothConst(T)) {
      if (TermRef R = foldSub(T->sort(), cval(A), cval(B)))
        return R;
      // Fall through to the structural rules below on overflow.
    }
    if (B->isConst() && cval(B) == 0)
      return A;
    if (A == B)
      return numConst(T->sort(), 0);
    // (a + b) - b => a (valid for nat and int).
    if (A->kind() == TermKind::Add) {
      if (A->arg(1) == B)
        return A->arg(0);
      if (A->arg(0) == B)
        return A->arg(1);
    }
    return nullptr;
  }
  case TermKind::Mul: {
    TermRef A = T->arg(0), B = T->arg(1);
    if (bothConst(T))
      return foldMul(T->sort(), cval(A), cval(B));
    if ((A->isConst() && cval(A) == 0) || (B->isConst() && cval(B) == 0))
      return numConst(T->sort(), 0);
    if (A->isConst() && cval(A) == 1)
      return B;
    if (B->isConst() && cval(B) == 1)
      return A;
    return nullptr;
  }
  case TermKind::Div:
    // INT64_MIN / -1 overflows (and is UB); leave it symbolic.
    if (bothConst(T) && cval(T->arg(1)) != 0 &&
        !(cval(T->arg(0)) == INT64_MIN && cval(T->arg(1)) == -1))
      return numConst(T->sort(), cval(T->arg(0)) / cval(T->arg(1)));
    if (T->arg(1)->isConst() && cval(T->arg(1)) == 1)
      return T->arg(0);
    return nullptr;
  case TermKind::Mod:
    if (bothConst(T) && cval(T->arg(1)) != 0 &&
        !(cval(T->arg(0)) == INT64_MIN && cval(T->arg(1)) == -1))
      return numConst(T->sort(), cval(T->arg(0)) % cval(T->arg(1)));
    return nullptr;
  case TermKind::Min2:
    if (bothConst(T))
      return numConst(T->sort(), std::min(cval(T->arg(0)), cval(T->arg(1))));
    if (T->arg(0) == T->arg(1))
      return T->arg(0);
    return nullptr;
  case TermKind::Max2:
    if (bothConst(T))
      return numConst(T->sort(), std::max(cval(T->arg(0)), cval(T->arg(1))));
    if (T->arg(0) == T->arg(1))
      return T->arg(0);
    return nullptr;
  case TermKind::Eq: {
    TermRef A = T->arg(0), B = T->arg(1);
    if (A == B)
      return mkTrue();
    if (A->isConst() && B->isConst())
      return mkBool(cval(A) == cval(B));
    // Distinct list constructors.
    if ((A->kind() == TermKind::LNil && B->kind() == TermKind::LCons) ||
        (A->kind() == TermKind::LCons && B->kind() == TermKind::LNil))
      return mkFalse();
    if (A->kind() == TermKind::LCons && B->kind() == TermKind::LCons)
      return mkAnd(mkEq(A->arg(0), B->arg(0)), mkEq(A->arg(1), B->arg(1)));
    return nullptr;
  }
  case TermKind::Ne: {
    TermRef A = T->arg(0), B = T->arg(1);
    if (A == B)
      return mkFalse();
    if (A->isConst() && B->isConst())
      return mkBool(cval(A) != cval(B));
    return nullptr;
  }
  case TermKind::Lt:
    if (bothConst(T))
      return mkBool(cval(T->arg(0)) < cval(T->arg(1)));
    if (T->arg(0) == T->arg(1))
      return mkFalse();
    return nullptr;
  case TermKind::Le:
    if (bothConst(T))
      return mkBool(cval(T->arg(0)) <= cval(T->arg(1)));
    if (T->arg(0) == T->arg(1))
      return mkTrue();
    return nullptr;
  case TermKind::Not: {
    TermRef A = T->arg(0);
    if (A->isConst())
      return mkBool(cval(A) == 0);
    if (A->kind() == TermKind::Not)
      return A->arg(0);
    if (A->kind() == TermKind::Eq)
      return mkNe(A->arg(0), A->arg(1));
    if (A->kind() == TermKind::Ne)
      return mkEq(A->arg(0), A->arg(1));
    if (A->kind() == TermKind::Le)
      return mkLt(A->arg(1), A->arg(0));
    if (A->kind() == TermKind::Lt)
      return mkLe(A->arg(1), A->arg(0));
    // De Morgan (the Or direction only; it splits into usable facts).
    if (A->kind() == TermKind::Or)
      return mkAnd(mkNot(A->arg(0)), mkNot(A->arg(1)));
    return nullptr;
  }
  case TermKind::And: {
    TermRef A = T->arg(0), B = T->arg(1);
    if (A->isTrue())
      return B;
    if (B->isTrue())
      return A;
    if (A->isFalse() || B->isFalse())
      return mkFalse();
    return nullptr;
  }
  case TermKind::Or: {
    TermRef A = T->arg(0), B = T->arg(1);
    if (A->isFalse())
      return B;
    if (B->isFalse())
      return A;
    if (A->isTrue() || B->isTrue())
      return mkTrue();
    return nullptr;
  }
  case TermKind::Implies: {
    TermRef A = T->arg(0), B = T->arg(1);
    if (A->isTrue())
      return B;
    if (A->isFalse() || B->isTrue())
      return mkTrue();
    if (B->isFalse())
      return mkNot(A);
    return nullptr;
  }
  case TermKind::Ite: {
    TermRef C = T->arg(0);
    if (C->isTrue())
      return T->arg(1);
    if (C->isFalse())
      return T->arg(2);
    if (T->arg(1) == T->arg(2))
      return T->arg(1);
    return nullptr;
  }
  case TermKind::MUnion: {
    TermRef A = T->arg(0), B = T->arg(1);
    if (A->kind() == TermKind::MEmpty)
      return B;
    if (B->kind() == TermKind::MEmpty)
      return A;
    return nullptr;
  }
  case TermKind::MSize: {
    TermRef M = T->arg(0);
    if (M->kind() == TermKind::MEmpty)
      return mkNat(0);
    if (M->kind() == TermKind::MSingle)
      return mkNat(1);
    if (M->kind() == TermKind::MUnion)
      return mkAdd(mkMSize(M->arg(0)), mkMSize(M->arg(1)));
    return nullptr;
  }
  case TermKind::MElem: {
    TermRef X = T->arg(0), M = T->arg(1);
    if (M->kind() == TermKind::MEmpty)
      return mkFalse();
    if (M->kind() == TermKind::MSingle)
      return mkEq(X, M->arg(0));
    if (M->kind() == TermKind::MUnion)
      return mkOr(mkMElem(X, M->arg(0)), mkMElem(X, M->arg(1)));
    return nullptr;
  }
  case TermKind::SUnion: {
    TermRef A = T->arg(0), B = T->arg(1);
    if (A->kind() == TermKind::SEmpty)
      return B;
    if (B->kind() == TermKind::SEmpty)
      return A;
    if (A == B)
      return A;
    return nullptr;
  }
  case TermKind::SElem: {
    TermRef X = T->arg(0), S = T->arg(1);
    if (S->kind() == TermKind::SEmpty)
      return mkFalse();
    if (S->kind() == TermKind::SSingle)
      return mkEq(X, S->arg(0));
    if (S->kind() == TermKind::SUnion)
      return mkOr(mkSElem(X, S->arg(0)), mkSElem(X, S->arg(1)));
    return nullptr;
  }
  case TermKind::LApp: {
    TermRef A = T->arg(0), B = T->arg(1);
    if (A->kind() == TermKind::LNil)
      return B;
    if (B->kind() == TermKind::LNil)
      return A;
    if (A->kind() == TermKind::LCons)
      return mkLCons(A->arg(0), mkLApp(A->arg(1), B));
    return nullptr;
  }
  case TermKind::LLen: {
    TermRef L = T->arg(0);
    if (L->kind() == TermKind::LNil)
      return mkNat(0);
    if (L->kind() == TermKind::LCons)
      return mkAdd(mkNat(1), mkLLen(L->arg(1)));
    if (L->kind() == TermKind::LApp)
      return mkAdd(mkLLen(L->arg(0)), mkLLen(L->arg(1)));
    if (L->kind() == TermKind::LRepeat)
      return L->arg(1);
    if (L->kind() == TermKind::LUpdate)
      return mkLLen(L->arg(0));
    return nullptr;
  }
  case TermKind::LNth: {
    TermRef L = T->arg(0), I = T->arg(1);
    if (L->kind() == TermKind::LCons && I->isConst()) {
      if (cval(I) == 0)
        return L->arg(0);
      return mkLNth(L->arg(1), mkNat(cval(I) - 1));
    }
    if (L->kind() == TermKind::LUpdate) {
      // (<[j := v]> l) !! i  =  v        when i = j (syntactically)
      //                      =  l !! i   when i != j (constants)
      TermRef J = L->arg(1);
      if (I == J)
        return L->arg(2);
      if (I->isConst() && J->isConst() && cval(I) != cval(J))
        return mkLNth(L->arg(0), I);
    }
    return nullptr;
  }
  case TermKind::LUpdate: {
    TermRef L = T->arg(0), I = T->arg(1), V = T->arg(2);
    if (L->kind() == TermKind::LCons && I->isConst()) {
      if (cval(I) == 0)
        return mkLCons(V, L->arg(1));
      return mkLCons(L->arg(0),
                     mkLUpdate(L->arg(1), mkNat(cval(I) - 1), V));
    }
    // Collapse consecutive updates at the same (syntactic) index.
    if (L->kind() == TermKind::LUpdate && L->arg(1) == I)
      return mkLUpdate(L->arg(0), I, V);
    return nullptr;
  }
  default:
    return nullptr;
  }
}

TermRef Simplifier::simplifyNode(TermRef T) const {
  // Iterate root simplification + user rules to a small fixpoint.
  for (int Iter = 0; Iter < 8; ++Iter) {
    TermRef R = simplifyRoot(T);
    if (!R) {
      for (const RewriteRule &Rule : Rules) {
        R = Rule.Apply(T);
        if (R && R != T)
          break;
        R = nullptr;
      }
    }
    if (!R || R == T)
      return T;
    // The rewrite may expose further root simplifications; but its children
    // are already simplified only if the rule keeps them. Re-simplify fully.
    T = simplify(R);
  }
  return T;
}

TermRef Simplifier::simplify(TermRef T) const {
  if (T->numArgs() == 0)
    return simplifyNode(T);
  if (T->isBinder()) {
    TermRef Body = simplify(T->arg(0));
    TermRef R = (Body == T->arg(0))
                    ? T
                    : arena().make(T->kind(), T->sort(), T->name(), T->num(),
                                   {Body});
    // Trivial binder bodies.
    if (R->arg(0)->isTrue())
      return mkTrue();
    return R;
  }
  return simplifyNode(mapArgs(T, [this](TermRef A) { return simplify(A); }));
}

std::vector<TermRef> Simplifier::expandHyp(TermRef H) const {
  H = simplify(H);
  std::vector<TermRef> Out;
  if (H->isTrue())
    return Out;
  if (H->kind() == TermKind::And) {
    for (TermRef Part : {H->arg(0), H->arg(1)})
      for (TermRef E : expandHyp(Part))
        Out.push_back(E);
    return Out;
  }
  if (H->kind() == TermKind::Eq) {
    TermRef A = H->arg(0), B = H->arg(1);
    // xs ++ ys = []  =>  xs = [] /\ ys = []
    if (B->kind() == TermKind::LNil && A->kind() == TermKind::LApp) {
      for (TermRef E : expandHyp(mkEq(A->arg(0), mkLNil())))
        Out.push_back(E);
      for (TermRef E : expandHyp(mkEq(A->arg(1), mkLNil())))
        Out.push_back(E);
      return Out;
    }
    // m1 (+) m2 = {[]}  =>  both empty.
    if (B->kind() == TermKind::MEmpty && A->kind() == TermKind::MUnion) {
      for (TermRef E : expandHyp(mkEq(A->arg(0), mkMEmpty())))
        Out.push_back(E);
      for (TermRef E : expandHyp(mkEq(A->arg(1), mkMEmpty())))
        Out.push_back(E);
      return Out;
    }
  }
  Out.push_back(H);
  return Out;
}
