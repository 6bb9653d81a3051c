//===- RulesOps.cpp - Operator and call typing rules ----------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Typing rules for binary/unary operators (including Figure 6's
/// O-ADD-UNINIT and O-OPTIONAL-EQ and the ownership-splitting pointer
/// arithmetic of Section 6) and for function calls against RefinedC function
/// types (first-class function pointers, Section 4).
///
//===----------------------------------------------------------------------===//

#include "refinedc/RulesCommon.h"

#include "caesium/Ast.h"

using namespace rcc;
using namespace rcc::refinedc;
using namespace rcc::refinedc::rules;
using namespace rcc::lithium;
using namespace rcc::pure;
using caesium::BinOpKind;
using caesium::UnOpKind;

//===----------------------------------------------------------------------===//
// Common helper implementations
//===----------------------------------------------------------------------===//

GoalRef rcc::refinedc::rules::mkSubsumeV(TermRef V, TypeRef T1, TypeRef T2,
                                         GoalRef K, rcc::SourceLoc Loc) {
  Judgment J;
  J.K = JudgKind::SubsumeV;
  J.V1 = V;
  J.T1 = std::move(T1);
  J.T2 = std::move(T2);
  J.KGoal = std::move(K);
  J.Loc = Loc;
  return gJudg(std::move(J));
}

GoalRef rcc::refinedc::rules::mkSubsumeL(TermRef L, TypeRef T1, TypeRef T2,
                                         GoalRef K, rcc::SourceLoc Loc) {
  Judgment J;
  J.K = JudgKind::SubsumeL;
  J.V1 = L;
  J.T1 = std::move(T1);
  J.T2 = std::move(T2);
  J.KGoal = std::move(K);
  J.Loc = Loc;
  return gJudg(std::move(J));
}

TypeRef rcc::refinedc::rules::substTypeMap(
    TypeRef T, const std::map<std::string, TermRef> &Subst) {
  for (const auto &[N, R] : Subst)
    T = substTypeVar(T, N, R);
  return T;
}

ResList rcc::refinedc::rules::substResMap(
    ResList H, const std::map<std::string, TermRef> &Subst) {
  for (const auto &[N, R] : Subst)
    H = substResVar(H, N, R);
  return H;
}

const ResAtom *rcc::refinedc::rules::findValAtom(Engine &E, TermRef V) {
  V = E.resolve(V);
  for (const ResAtom &A : E.Delta)
    if (A.K == ResAtom::ValType && E.resolve(A.Subject) == V)
      return &A;
  return nullptr;
}

bool rcc::refinedc::rules::trySideCond(Engine &E, TermRef Phi) {
  pure::SolveResult R = E.solver().prove(E.Gamma, Phi, E.evars());
  if (!R.Proved)
    return false;
  E.recordSideCond(Phi, R);
  return true;
}

//===----------------------------------------------------------------------===//
// Integer operator helpers
//===----------------------------------------------------------------------===//

namespace {

/// The refinement term of an Int/Bool-typed operand (bools coerce to 0/1).
TermRef intTermOf(Engine &E, TypeRef T) {
  T = stripC(E, T);
  if (T->K == TypeKind::Int)
    return T->Refn;
  if (T->K == TypeKind::Bool && T->Refn)
    return mkIte(T->Refn, mkNat(1), mkNat(0));
  return nullptr;
}

/// Emits the no-overflow side conditions for a result of type \p Ity.
/// The value term is mathematical; 8-byte unsigned results are modeled as
/// unbounded naturals (see DESIGN.md).
ResList rangeConds(caesium::IntType Ity, TermRef V) {
  ResList Out;
  if (!Ity.Signed) {
    // Nat-sorted terms are >= 0 by construction; check the upper bound when
    // it is representable.
    if (Ity.ByteSize < 8)
      Out.push_back(ResAtom::pure(
          mkLe(V, mkNat(static_cast<int64_t>(Ity.maxVal())))));
    return Out;
  }
  Out.push_back(ResAtom::pure(mkLe(mkInt(Ity.minVal()), V)));
  if (Ity.ByteSize <= 8)
    Out.push_back(ResAtom::pure(
        mkLe(V, mkInt(static_cast<int64_t>(Ity.maxVal())))));
  return Out;
}

bool isIntLike(TypeRef T) {
  T = peel(T);
  return T->K == TypeKind::Int || T->K == TypeKind::Bool;
}

bool isPlaceLike(TypeRef T) {
  T = peel(T);
  return T->K == TypeKind::Place || T->K == TypeKind::ValueOf;
}

TermRef placeLoc(TypeRef T) {
  return peel(T)->Refn;
}

} // namespace

//===----------------------------------------------------------------------===//
// BinOp rules
//===----------------------------------------------------------------------===//

static void registerBinOpRules(std::vector<Rule> &R) {
  auto OpIs = [](const Judgment &J, BinOpKind K) {
    return static_cast<BinOpKind>(J.Op) == K;
  };
  auto IsCmp = [OpIs](const Judgment &J) {
    return OpIs(J, BinOpKind::EqOp) || OpIs(J, BinOpKind::NeOp) ||
           OpIs(J, BinOpKind::LtOp) || OpIs(J, BinOpKind::LeOp) ||
           OpIs(J, BinOpKind::GtOp) || OpIs(J, BinOpKind::GeOp);
  };
  auto IsArith = [OpIs](const Judgment &J) {
    return OpIs(J, BinOpKind::Add) || OpIs(J, BinOpKind::Sub) ||
           OpIs(J, BinOpKind::Mul) || OpIs(J, BinOpKind::Div) ||
           OpIs(J, BinOpKind::Mod) || OpIs(J, BinOpKind::Shl) ||
           OpIs(J, BinOpKind::Shr) || OpIs(J, BinOpKind::BitAnd) ||
           OpIs(J, BinOpKind::BitOr) || OpIs(J, BinOpKind::BitXor);
  };
  auto IsPtrCmp = [OpIs](const Judgment &J) {
    return OpIs(J, BinOpKind::PtrEq) || OpIs(J, BinOpKind::PtrNe);
  };

  // Unfold valueOf operands whose ownership is parked in Δ (moved pointers
  // circulating through slots).
  R.push_back({"BINOP-UNFOLD-VALUEOF", JudgKind::BinOpJ, 90,
         [](Engine &E, const Judgment &J) {
           return (peel(E.resolveTy(J.T1))->K == TypeKind::ValueOf &&
                   findValAtom(E, peel(E.resolveTy(J.T1))->Refn)) ||
                  (peel(E.resolveTy(J.T2))->K == TypeKind::ValueOf &&
                   findValAtom(E, peel(E.resolveTy(J.T2))->Refn));
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           Judgment J2 = J;
           TypeRef T1 = peel(E.resolveTy(J.T1));
           if (T1->K == TypeKind::ValueOf && findValAtom(E, T1->Refn)) {
             ResAtom A;
             if (!E.popValAtom(T1->Refn, A, J.Loc))
               return nullptr;
             J2.V1 = T1->Refn;
             J2.T1 = A.Ty;
           } else {
             TypeRef T2 = peel(E.resolveTy(J.T2));
             ResAtom A;
             if (!E.popValAtom(T2->Refn, A, J.Loc))
               return nullptr;
             J2.V2 = T2->Refn;
             J2.T2 = A.Ty;
           }
           return gJudg(std::move(J2));
         }});

  // Unfold named operand types (e.g. chunks_t compared against NULL).
  R.push_back({"BINOP-UNFOLD-NAMED", JudgKind::BinOpJ, 85,
         [](Engine &E, const Judgment &J) {
           return peel(E.resolveTy(J.T1))->K == TypeKind::Named ||
                  peel(E.resolveTy(J.T2))->K == TypeKind::Named;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           Judgment J2 = J;
           TypeRef T1 = stripC(E, J.T1);
           TypeRef T2 = stripC(E, J.T2);
           if (T1->K == TypeKind::Named)
             T1 = stripC(E, unfoldNamed(*T1));
           if (T2->K == TypeKind::Named)
             T2 = stripC(E, unfoldNamed(*T2));
           J2.T1 = T1;
           J2.T2 = T2;
           return gJudg(std::move(J2));
         }});

  // Integer arithmetic: compute the mathematical result and emit the
  // in-range side conditions that make the C operation defined.
  R.push_back({"BINOP-INT-ARITH", JudgKind::BinOpJ, 0,
         [IsArith](Engine &E, const Judgment &J) {
           return IsArith(J) && isIntLike(E.resolveTy(J.T1)) &&
                  isIntLike(E.resolveTy(J.T2));
         },
         [OpIs](Engine &E, const Judgment &J) -> GoalRef {
           TermRef N1 = intTermOf(E, J.T1);
           TermRef N2 = intTermOf(E, J.T2);
           if (!N1 || !N2) {
             E.fail("arithmetic on an integer without a known value", J.Loc);
             return nullptr;
           }
           ResList Conds;
           TermRef V = nullptr;
           switch (static_cast<BinOpKind>(J.Op)) {
           case BinOpKind::Add:
             V = mkAdd(N1, N2);
             break;
           case BinOpKind::Sub:
             V = mkSub(N1, N2);
             if (!J.Ity.Signed)
               Conds.push_back(ResAtom::pure(mkLe(N2, N1)));
             break;
           case BinOpKind::Mul:
             V = mkMul(N1, N2);
             break;
           case BinOpKind::Div:
             V = mkDiv(N1, N2);
             Conds.push_back(ResAtom::pure(mkNe(N2, mkNat(0))));
             break;
           case BinOpKind::Mod:
             V = mkMod(N1, N2);
             Conds.push_back(ResAtom::pure(mkNe(N2, mkNat(0))));
             break;
           case BinOpKind::Shl:
             V = mkMul(N1, mkApp("pow2", Sort::Nat, {N2}));
             Conds.push_back(ResAtom::pure(
                 mkLt(N2, mkNat(static_cast<int64_t>(J.Ity.bits())))));
             break;
           case BinOpKind::Shr:
             V = mkDiv(N1, mkApp("pow2", Sort::Nat, {N2}));
             Conds.push_back(ResAtom::pure(
                 mkLt(N2, mkNat(static_cast<int64_t>(J.Ity.bits())))));
             break;
           case BinOpKind::BitAnd:
             V = mkApp("land", sortOfIntType(J.Ity), {N1, N2});
             break;
           case BinOpKind::BitOr:
             V = mkApp("lor", sortOfIntType(J.Ity), {N1, N2});
             break;
           case BinOpKind::BitXor:
             V = mkApp("lxor", sortOfIntType(J.Ity), {N1, N2});
             break;
           default:
             return nullptr;
           }
           V = E.resolve(V);
           bool Bitwise = OpIs(J, BinOpKind::BitAnd) ||
                          OpIs(J, BinOpKind::BitOr) ||
                          OpIs(J, BinOpKind::BitXor);
           if (!Bitwise)
             for (ResAtom A : rangeConds(J.Ity, V))
               Conds.push_back(A);
           return gStar(std::move(Conds), J.KVal(V, tyInt(J.Ity, V)));
         },
         RuleKey::onOp(BinOpKind::Add, BinOpKind::Sub, BinOpKind::Mul,
                       BinOpKind::Div, BinOpKind::Mod,
                       BinOpKind::Shl, BinOpKind::Shr,
                       BinOpKind::BitAnd, BinOpKind::BitOr,
                       BinOpKind::BitXor)});

  // Integer comparisons yield refined booleans.
  R.push_back({"BINOP-INT-CMP", JudgKind::BinOpJ, 0,
         [IsCmp](Engine &E, const Judgment &J) {
           return IsCmp(J) && isIntLike(E.resolveTy(J.T1)) &&
                  isIntLike(E.resolveTy(J.T2));
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TermRef N1 = intTermOf(E, J.T1);
           TermRef N2 = intTermOf(E, J.T2);
           if (!N1 || !N2) {
             E.fail("comparison of an integer without a known value", J.Loc);
             return nullptr;
           }
           TermRef Phi = nullptr;
           switch (static_cast<BinOpKind>(J.Op)) {
           case BinOpKind::EqOp:
             Phi = mkEq(N1, N2);
             break;
           case BinOpKind::NeOp:
             Phi = mkNe(N1, N2);
             break;
           case BinOpKind::LtOp:
             Phi = mkLt(N1, N2);
             break;
           case BinOpKind::LeOp:
             Phi = mkLe(N1, N2);
             break;
           case BinOpKind::GtOp:
             Phi = mkGt(N1, N2);
             break;
           case BinOpKind::GeOp:
             Phi = mkGe(N1, N2);
             break;
           default:
             return nullptr;
           }
           Phi = E.resolve(Phi);
           return J.KVal(mkIte(Phi, mkNat(1), mkNat(0)),
                         tyBool(caesium::intI32(), Phi));
         },
         RuleKey::onOp(BinOpKind::EqOp, BinOpKind::NeOp,
                       BinOpKind::LtOp, BinOpKind::LeOp,
                       BinOpKind::GtOp, BinOpKind::GeOp)});

  // O-ADD-UNINIT (Figure 6): splitting uninitialized blocks via pointer
  // arithmetic.
  R.push_back({"O-ADD-UNINIT", JudgKind::BinOpJ, 10,
         [OpIs](Engine &E, const Judgment &J) {
           if (!OpIs(J, BinOpKind::PtrAdd))
             return false;
           TypeRef T1 = peel(E.resolveTy(J.T1));
           return T1->K == TypeKind::Own &&
                  peel(T1->Children[0])->K == TypeKind::Uninit &&
                  isIntLike(E.resolveTy(J.T2));
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef T1 = stripC(E, J.T1);
           TypeRef U = stripC(E, T1->Children[0]);
           TermRef N1 = U->Size;
           TermRef N2 = intTermOf(E, J.T2);
           if (!N2) {
             E.fail("pointer arithmetic with an unknown index", J.Loc);
             return nullptr;
           }
           TermRef Bytes =
               J.ElemSize == 1
                   ? N2
                   : mkMul(N2, mkNat(static_cast<int64_t>(J.ElemSize)));
           Bytes = E.resolve(Bytes);
           TermRef Ptr = T1->Refn ? T1->Refn : J.V1;
           // Adding zero (a field at offset 0) is the identity.
           if (Bytes->isConst() && Bytes->num() == 0)
             return J.KVal(Ptr, withRefn(T1, Ptr));
           // ⌜bytes <= n1⌝ ∗ (v1 ◁ &own(uninit(bytes)) -∗
           //                   G(v1 + bytes, &own(uninit(n1 - bytes))))
           TermRef Rest = E.resolve(mkSub(N1, Bytes));
           ResAtom Keep = ResAtom::val(Ptr, tyOwn(tyUninit(Bytes), Ptr));
           TermRef NewPtr = locOffset(Ptr, Bytes);
           return gStar(
               {ResAtom::pure(mkLe(Bytes, N1))},
               gWand({Keep},
                     J.KVal(NewPtr, tyOwn(tyUninit(Rest), NewPtr))));
         },
         RuleKey::onOp(BinOpKind::PtrAdd)});

  // Pointer arithmetic on an optional whose refinement is provable (e.g.
  // under a requires clause excluding NULL): act on the pointer branch.
  R.push_back({"PTRADD-OPTIONAL", JudgKind::BinOpJ, 6,
         [OpIs](Engine &E, const Judgment &J) {
           return OpIs(J, BinOpKind::PtrAdd) &&
                  peel(E.resolveTy(J.T1))->K == TypeKind::Optional &&
                  isIntLike(E.resolveTy(J.T2));
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef T1 = stripC(E, J.T1);
           TermRef Phi = T1->Refn ? T1->Refn : mkTrue();
           if (!trySideCond(E, Phi)) {
             E.fail("pointer arithmetic on a possibly-NULL value (type " +
                        T1->str() + "); test it against NULL first",
                    J.Loc);
             return nullptr;
           }
           Judgment J2 = J;
           TypeRef Child = peel(T1->Children[0]);
           if (Child->K == TypeKind::Own && !Child->Refn)
             Child = withRefn(Child, J.V1);
           J2.T1 = Child;
           return gJudg(std::move(J2));
         },
         RuleKey::onOp(BinOpKind::PtrAdd)});

  // Pointer + constant into an owned composite: focus the pointee into Δ
  // and yield a place (field access through &own).
  R.push_back({"PTRADD-OWN-FOCUS", JudgKind::BinOpJ, 5,
         [OpIs](Engine &E, const Judgment &J) {
           if (!OpIs(J, BinOpKind::PtrAdd))
             return false;
           TypeRef T1 = peel(E.resolveTy(J.T1));
           return T1->K == TypeKind::Own &&
                  peel(T1->Children[0])->K != TypeKind::Uninit &&
                  isIntLike(E.resolveTy(J.T2));
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef T1 = stripC(E, J.T1);
           TermRef Ptr = T1->Refn ? E.resolve(T1->Refn) : E.resolve(J.V1);
           TermRef N2 = intTermOf(E, J.T2);
           if (!N2)
             return nullptr;
           TermRef Bytes =
               J.ElemSize == 1
                   ? N2
                   : mkMul(N2, mkNat(static_cast<int64_t>(J.ElemSize)));
           E.pushAtom(ResAtom::loc(Ptr, T1->Children[0]));
           TermRef L = locOffset(Ptr, E.resolve(Bytes));
           return J.KVal(L, tyPlace(L));
         },
         RuleKey::onOp(BinOpKind::PtrAdd)});

  // Pointer arithmetic on places/valueOf values: pure address computation.
  R.push_back({"PTRADD-PLACE", JudgKind::BinOpJ, 0,
         [OpIs](Engine &E, const Judgment &J) {
           return (OpIs(J, BinOpKind::PtrAdd) ||
                   OpIs(J, BinOpKind::PtrSub)) &&
                  isPlaceLike(E.resolveTy(J.T1)) &&
                  isIntLike(E.resolveTy(J.T2));
         },
         [OpIs](Engine &E, const Judgment &J) -> GoalRef {
           TermRef Base = placeLoc(stripC(E, J.T1));
           TermRef N2 = intTermOf(E, J.T2);
           if (!N2) {
             E.fail("pointer arithmetic with an unknown index", J.Loc);
             return nullptr;
           }
           TermRef Bytes =
               J.ElemSize == 1
                   ? N2
                   : mkMul(N2, mkNat(static_cast<int64_t>(J.ElemSize)));
           if (OpIs(J, BinOpKind::PtrSub))
             Bytes = mkSub(mkNat(0), Bytes);
           TermRef L = locOffset(Base, E.resolve(Bytes));
           return J.KVal(L, tyPlace(L));
         },
         RuleKey::onOp(BinOpKind::PtrAdd, BinOpKind::PtrSub)});

  // O-OPTIONAL-EQ (Figure 6): comparing an optional against NULL.
  auto OptNullRule = [](bool OptionalOnLeft) {
    return [OptionalOnLeft](Engine &E, const Judgment &J) -> GoalRef {
      TypeRef TOpt = stripC(E, OptionalOnLeft ? J.T1 : J.T2);
      TermRef VOpt = OptionalOnLeft ? J.V1 : J.V2;
      TermRef Phi = TOpt->Refn ? TOpt->Refn : mkTrue();
      bool IsEq = static_cast<BinOpKind>(J.Op) == BinOpKind::PtrEq;
      // φ branch: the value is a non-null pointer (first child).
      TypeRef Child = TOpt->Children[0];
      if (peel(Child)->K == TypeKind::Own && !peel(Child)->Refn)
        Child = withRefn(peel(Child), VOpt);
      TermRef EqRes = IsEq ? mkFalse() : mkTrue();
      TermRef NeRes = IsEq ? mkTrue() : mkFalse();
      GoalRef G1 = gWand({ResAtom::pure(Phi), ResAtom::val(VOpt, Child)},
                         J.KVal(mkIte(EqRes, mkNat(1), mkNat(0)),
                                tyBool(caesium::intI32(), EqRes)));
      // In the negative branch the value is known NULL (second child).
      GoalRef G2 = gWand({ResAtom::pure(mkNot(Phi)),
                          ResAtom::val(VOpt, TOpt->Children[1])},
                         J.KVal(mkIte(NeRes, mkNat(1), mkNat(0)),
                                tyBool(caesium::intI32(), NeRes)));
      return gConj(G1, G2);
    };
  };
  R.push_back({"O-OPTIONAL-EQ", JudgKind::BinOpJ, 20,
         [IsPtrCmp](Engine &E, const Judgment &J) {
           return IsPtrCmp(J) &&
                  peel(E.resolveTy(J.T1))->K == TypeKind::Optional &&
                  peel(E.resolveTy(J.T2))->K == TypeKind::Null;
         },
         OptNullRule(true),
         RuleKey::onOp(BinOpKind::PtrEq, BinOpKind::PtrNe)});
  R.push_back({"O-OPTIONAL-EQ-SYM", JudgKind::BinOpJ, 19,
         [IsPtrCmp](Engine &E, const Judgment &J) {
           return IsPtrCmp(J) &&
                  peel(E.resolveTy(J.T2))->K == TypeKind::Optional &&
                  peel(E.resolveTy(J.T1))->K == TypeKind::Null;
         },
         OptNullRule(false),
         RuleKey::onOp(BinOpKind::PtrEq, BinOpKind::PtrNe)});

  // Owned/placed pointers are never NULL.
  R.push_back({"PTR-CMP-NONNULL", JudgKind::BinOpJ, 10,
         [IsPtrCmp](Engine &E, const Judgment &J) {
           auto NonNull = [](TypeRef T) {
             TypeKind K = peel(T)->K;
             return K == TypeKind::Own || K == TypeKind::Place;
           };
           auto IsNull = [](TypeRef T) {
             return peel(T)->K == TypeKind::Null;
           };
           return IsPtrCmp(J) &&
                  ((NonNull(E.resolveTy(J.T1)) && IsNull(E.resolveTy(J.T2))) ||
                   (NonNull(E.resolveTy(J.T2)) && IsNull(E.resolveTy(J.T1))));
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           bool IsEq = static_cast<BinOpKind>(J.Op) == BinOpKind::PtrEq;
           // Keep the non-null operand's ownership.
           TypeRef T1 = stripC(E, J.T1);
           TypeRef T2 = stripC(E, J.T2);
           ResList Keep;
           if (T1->K != TypeKind::Null && T1->K != TypeKind::Place)
             Keep.push_back(ResAtom::val(J.V1, T1));
           if (T2->K != TypeKind::Null && T2->K != TypeKind::Place)
             Keep.push_back(ResAtom::val(J.V2, T2));
           TermRef Res = IsEq ? mkFalse() : mkTrue();
           return gWand(Keep,
                        J.KVal(mkIte(Res, mkNat(1), mkNat(0)),
                               tyBool(caesium::intI32(), Res)));
         },
         RuleKey::onOp(BinOpKind::PtrEq, BinOpKind::PtrNe)});

  R.push_back({"PTR-CMP-NULL-NULL", JudgKind::BinOpJ, 9,
         [IsPtrCmp](Engine &E, const Judgment &J) {
           return IsPtrCmp(J) &&
                  peel(E.resolveTy(J.T1))->K == TypeKind::Null &&
                  peel(E.resolveTy(J.T2))->K == TypeKind::Null;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           bool IsEq = static_cast<BinOpKind>(J.Op) == BinOpKind::PtrEq;
           TermRef Res = IsEq ? mkTrue() : mkFalse();
           return J.KVal(mkIte(Res, mkNat(1), mkNat(0)),
                         tyBool(caesium::intI32(), Res));
         },
         RuleKey::onOp(BinOpKind::PtrEq, BinOpKind::PtrNe)});

  // Pointer equality on two places: syntactic location equality.
  R.push_back({"PTR-CMP-PLACES", JudgKind::BinOpJ, 8,
         [IsPtrCmp](Engine &E, const Judgment &J) {
           return IsPtrCmp(J) && isPlaceLike(E.resolveTy(J.T1)) &&
                  isPlaceLike(E.resolveTy(J.T2));
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TermRef L1 = placeLoc(stripC(E, J.T1));
           TermRef L2 = placeLoc(stripC(E, J.T2));
           bool IsEq = static_cast<BinOpKind>(J.Op) == BinOpKind::PtrEq;
           TermRef Phi = IsEq ? mkEq(L1, L2) : mkNe(L1, L2);
           Phi = E.resolve(Phi);
           return J.KVal(mkIte(Phi, mkNat(1), mkNat(0)),
                         tyBool(caesium::intI32(), Phi));
         },
         RuleKey::onOp(BinOpKind::PtrEq, BinOpKind::PtrNe)});
}

//===----------------------------------------------------------------------===//
// UnOp rules
//===----------------------------------------------------------------------===//

static void registerUnOpRules(std::vector<Rule> &R) {
  auto UOpIs = [](const Judgment &J, UnOpKind K) {
    return static_cast<UnOpKind>(J.Op) == K;
  };

  R.push_back({"UNOP-CAST-INT", JudgKind::UnOpJ, 0,
         [UOpIs](Engine &E, const Judgment &J) {
           return UOpIs(J, UnOpKind::Cast) && isIntLike(E.resolveTy(J.T1));
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TermRef N = intTermOf(E, J.T1);
           if (!N) {
             E.fail("cast of an integer without a known value", J.Loc);
             return nullptr;
           }
           ResList Conds = rangeConds(J.ToIty, N);
           return gStar(std::move(Conds), J.KVal(N, tyInt(J.ToIty, N)));
         },
         RuleKey::onOp(UnOpKind::Cast)});

  R.push_back({"UNOP-NOT-BOOL", JudgKind::UnOpJ, 5,
         [UOpIs](Engine &E, const Judgment &J) {
           return UOpIs(J, UnOpKind::LogicalNot) &&
                  peel(E.resolveTy(J.T1))->K == TypeKind::Bool;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef T = stripC(E, J.T1);
           TermRef Phi = T->Refn ? E.resolve(mkNot(T->Refn)) : nullptr;
           if (!Phi) {
             E.fail("negation of a boolean without a refinement", J.Loc);
             return nullptr;
           }
           return J.KVal(mkIte(Phi, mkNat(1), mkNat(0)),
                         tyBool(caesium::intI32(), Phi));
         },
         RuleKey::onOp(UnOpKind::LogicalNot)});

  R.push_back({"UNOP-NOT-INT", JudgKind::UnOpJ, 0,
         [UOpIs](Engine &E, const Judgment &J) {
           return UOpIs(J, UnOpKind::LogicalNot) &&
                  peel(E.resolveTy(J.T1))->K == TypeKind::Int;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TermRef N = intTermOf(E, J.T1);
           if (!N)
             return nullptr;
           TermRef Phi = E.resolve(mkEq(N, mkNat(0)));
           return J.KVal(mkIte(Phi, mkNat(1), mkNat(0)),
                         tyBool(caesium::intI32(), Phi));
         },
         RuleKey::onOp(UnOpKind::LogicalNot)});

  R.push_back({"UNOP-NEG", JudgKind::UnOpJ, 0,
         [UOpIs](Engine &E, const Judgment &J) {
           return UOpIs(J, UnOpKind::Neg) && isIntLike(E.resolveTy(J.T1));
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TermRef N = intTermOf(E, J.T1);
           if (!N)
             return nullptr;
           TermRef V = E.resolve(mkSub(mkInt(0), N));
           return gStar(rangeConds(J.Ity, V), J.KVal(V, tyInt(J.Ity, V)));
         },
         RuleKey::onOp(UnOpKind::Neg)});
}

//===----------------------------------------------------------------------===//
// Call rule
//===----------------------------------------------------------------------===//

/// Subsumes the arguments left to right, proves the precondition, then
/// (inside a fresh scope for the callee's postcondition existentials)
/// assumes the ensures clause and continues with the returned value. A free
/// recursive function so the goal tree carries no closure cycles.
static GoalRef callSpecChain(
    Engine &E, const FnSpec &S, const std::map<std::string, TermRef> &Subst,
    const std::vector<std::pair<TermRef, TypeRef>> &Args, rcc::SourceLoc Loc,
    lithium::ValueCont KVal, size_t I) {
  if (I == Args.size()) {
    ResList Pre = substResMap(S.Requires, Subst);
    // Postcondition: existentials become fresh universals for the caller.
    std::map<std::string, TermRef> Subst2 = Subst;
    for (const auto &[N, Srt] : S.RetExists)
      Subst2[N] = E.freshUniversal(N, Srt);
    ResList Post = substResMap(S.Ensures, Subst2);
    TypeRef Ret = S.Ret ? substTypeMap(S.Ret, Subst2) : tyAny(mkNat(0));
    // The returned value: the refinement when the return type pins it
    // down, otherwise a fresh symbol.
    TermRef V;
    TypeRef RP = peel(Ret);
    if ((RP->K == TypeKind::Int || RP->K == TypeKind::Own) && RP->Refn)
      V = RP->Refn;
    else if (RP->K == TypeKind::Own || RP->K == TypeKind::Optional ||
             RP->K == TypeKind::Null || RP->K == TypeKind::Named)
      V = E.freshUniversal("ret", Sort::Loc);
    else
      V = E.freshUniversal("ret", Sort::Nat);
    if (RP->K == TypeKind::Own && !RP->Refn)
      Ret = withRefn(RP, V);
    return gStar(Pre, gWand(Post, KVal(V, Ret)));
  }
  TypeRef Want = substTypeMap(S.Args[I], Subst);
  return mkSubsumeV(Args[I].first, Args[I].second, Want,
                    callSpecChain(E, S, Subst, Args, Loc, KVal, I + 1), Loc);
}

static void registerCallRules(std::vector<Rule> &R) {
  R.push_back({"T-CALL", JudgKind::CallJ, 0,
         [](Engine &E, const Judgment &J) {
           return peel(E.resolveTy(J.T1))->K == TypeKind::FnPtr;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef TF = stripC(E, J.T1);
           const FnSpec *S = TF->Spec;
           if (J.Args.size() != S->Args.size()) {
             E.fail("call to '" + S->Name + "' with " +
                        std::to_string(J.Args.size()) + " arguments, spec "
                        "has " +
                        std::to_string(S->Args.size()),
                    J.Loc);
             return nullptr;
           }
           // Universally quantified spec parameters become sealed evars
           // (instantiated while checking the arguments, Section 5).
           std::map<std::string, TermRef> Subst;
           for (const auto &[N, Srt] : S->Params)
             Subst[N] = E.freshEvar(N, Srt);
           return callSpecChain(E, *S, Subst, J.Args, J.Loc, J.KVal, 0);
         },
         RuleKey::onTy({TypeKind::FnPtr})});
}

namespace rcc::refinedc {
void registerOpRules(std::vector<lithium::Rule> &R) {
  registerBinOpRules(R);
  registerUnOpRules(R);
  registerCallRules(R);
}
} // namespace rcc::refinedc
