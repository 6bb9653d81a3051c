//===- RulesSubsume.cpp - Subsumption (subtyping) rules -------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The subsumption rules `A1 <: A2 {G}` of Section 5/6: value subsumption
/// (SubsumeV) and location subsumption (SubsumeL). They decompose structural
/// types, unfold named types (Section 2.2: unfolding is automatic), open
/// existentials into evars (right) or universals (left), move constraints
/// between side conditions and the context, introduce and apply magic wands,
/// recompose structs/padding from split field atoms, and split/merge
/// uninitialized blocks. S-NULL and S-OWN from Figure 6 live here.
///
//===----------------------------------------------------------------------===//

#include "refinedc/RulesCommon.h"

using namespace rcc;
using namespace rcc::refinedc;
using namespace rcc::refinedc::rules;
using namespace rcc::lithium;
using namespace rcc::pure;

namespace {

TypeKind kind1(Engine &E, const Judgment &J) {
  return peel(E.resolveTy(J.T1))->K;
}
TypeKind kind2(Engine &E, const Judgment &J) {
  return peel(E.resolveTy(J.T2))->K;
}

/// Value-level equality side condition between two refinements (nullptr
/// refinement on the target means "unconstrained"). An unrefined source
/// cannot establish a wanted refinement: the rule fails at \p J instead.
GoalRef refnEqGoal(Engine &E, const Judgment &J, TermRef Actual,
                   TermRef Want, GoalRef K) {
  if (!Want || Actual == Want)
    return K;
  if (!Actual) {
    E.fail("cannot prove refinement " + Want->str() +
               " for an unrefined type",
           J.Loc);
    return nullptr;
  }
  ResList H = {ResAtom::pure(mkEq(Actual, Want))};
  return gStar(std::move(H), K);
}

/// Shared subsumption cases that behave identically for values and
/// locations. \p IsLoc selects which judgment kind recursive goals use.
void registerShared(std::vector<Rule> &R, JudgKind JK, const char *Suffix) {
  bool IsLoc = JK == JudgKind::SubsumeL;
  auto Recur = [IsLoc](TermRef V, TypeRef T1, TypeRef T2, GoalRef K,
                       rcc::SourceLoc Loc) {
    return IsLoc ? mkSubsumeL(V, T1, T2, K, Loc)
                 : mkSubsumeV(V, T1, T2, K, Loc);
  };
  auto Name = [Suffix](const char *Base) {
    return std::string(Base) + Suffix;
  };

  // Reflexivity: structurally equal types need no work.
  R.push_back({Name("S-REFL"), JK, 100,
         [](Engine &E, const Judgment &J) {
           return typeEqual(E.resolveTy(J.T1), E.resolveTy(J.T2));
         },
         [](Engine &E, const Judgment &J) -> GoalRef { return J.KGoal; },
         RuleKey::diagonal()});

  // Constraints: on the left they are assumptions, on the right side
  // conditions.
  R.push_back({Name("S-CONSTR-L"), JK, 95,
         [](Engine &E, const Judgment &J) {
           return E.resolveTy(J.T1)->K == TypeKind::Constraint;
         },
         [Recur](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef T1 = E.resolveTy(J.T1);
           return gWand({ResAtom::pure(T1->Refn)},
                        Recur(J.V1, T1->Children[0], J.T2, J.KGoal, J.Loc));
         }});
  R.push_back({Name("S-CONSTR-R"), JK, 94,
         [](Engine &E, const Judgment &J) {
           return E.resolveTy(J.T2)->K == TypeKind::Constraint;
         },
         [Recur](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef T2 = E.resolveTy(J.T2);
           return Recur(J.V1, J.T1, T2->Children[0],
                        gStar({ResAtom::pure(T2->Refn)}, J.KGoal), J.Loc);
         }});

  // Existentials: left opens to a universal, right to a sealed evar.
  R.push_back({Name("S-EXISTS-L"), JK, 93,
         [](Engine &E, const Judgment &J) {
           return E.resolveTy(J.T1)->K == TypeKind::Exists;
         },
         [Recur](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef T1 = E.resolveTy(J.T1);
           TermRef X = E.freshUniversal(T1->Binder, T1->BinderSort);
           return Recur(J.V1, substTypeVar(T1->Children[0], T1->Binder, X),
                        J.T2, J.KGoal, J.Loc);
         },
         RuleKey::onPair({TypeKind::Exists}, {})});
  R.push_back({Name("S-EXISTS-R"), JK, 92,
         [](Engine &E, const Judgment &J) {
           return E.resolveTy(J.T2)->K == TypeKind::Exists;
         },
         [Recur](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef T2 = E.resolveTy(J.T2);
           TermRef X = E.freshEvar(T2->Binder, T2->BinderSort);
           return Recur(J.V1, J.T1,
                        substTypeVar(T2->Children[0], T2->Binder, X),
                        J.KGoal, J.Loc);
         },
         RuleKey::onPair({}, {TypeKind::Exists})});

  // Named types: same definition reduces to refinement equality; otherwise
  // unfold (recursive types unfold on demand, Section 2.2).
  R.push_back({Name("S-NAMED-SAME"), JK, 91,
         [](Engine &E, const Judgment &J) {
           TypeRef A = peel(E.resolveTy(J.T1)), B = peel(E.resolveTy(J.T2));
           return A->K == TypeKind::Named && B->K == TypeKind::Named &&
                  A->Def == B->Def;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef A = stripC(E, J.T1), B = stripC(E, J.T2);
           return refnEqGoal(E, J, A->Refn, B->Refn, J.KGoal);
         },
         RuleKey::onPair({TypeKind::Named}, {TypeKind::Named})});
  // Unfolding is deliberately *below* the structural recomposition rules
  // (SL-TO-STRUCT/PADDED), so that recursive occurrences are cut at
  // S-NAMED-SAME instead of diverging through their unfoldings.
  R.push_back({Name("S-NAMED-L"), JK, 64,
         [](Engine &E, const Judgment &J) {
           TypeRef A = peel(E.resolveTy(J.T1)), B = peel(E.resolveTy(J.T2));
           return A->K == TypeKind::Named &&
                  !(B->K == TypeKind::Named && A->Def == B->Def);
         },
         [Recur](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef A = stripC(E, J.T1);
           return Recur(J.V1, unfoldNamed(*A), J.T2, J.KGoal, J.Loc);
         },
         RuleKey::onPair({TypeKind::Named}, {})});
  R.push_back({Name("S-NAMED-R"), JK, 65,
         [](Engine &E, const Judgment &J) {
           TypeRef A = peel(E.resolveTy(J.T1)), B = peel(E.resolveTy(J.T2));
           return B->K == TypeKind::Named &&
                  !(A->K == TypeKind::Named && A->Def == B->Def);
         },
         [Recur](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef B = stripC(E, J.T2);
           return Recur(J.V1, J.T1, unfoldNamed(*B), J.KGoal, J.Loc);
         },
         RuleKey::onPair({}, {TypeKind::Named})});

  // Integers and booleans.
  R.push_back({Name("S-INT"), JK, 50,
         [](Engine &E, const Judgment &J) {
           return kind1(E, J) == TypeKind::Int &&
                  kind2(E, J) == TypeKind::Int;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef A = stripC(E, J.T1), B = stripC(E, J.T2);
           if (!(A->Ity == B->Ity)) {
             E.fail("integer type mismatch: " + A->str() + " vs " + B->str(),
                    J.Loc);
             return nullptr;
           }
           if (!A->Refn && B->Refn) {
             E.fail("cannot prove a refinement for an unrefined integer",
                    J.Loc);
             return nullptr;
           }
           return refnEqGoal(E, J, A->Refn, B->Refn, J.KGoal);
         },
         RuleKey::onPair({TypeKind::Int}, {TypeKind::Int})});
  R.push_back({Name("S-BOOL"), JK, 50,
         [](Engine &E, const Judgment &J) {
           return kind1(E, J) == TypeKind::Bool &&
                  kind2(E, J) == TypeKind::Bool;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef A = stripC(E, J.T1), B = stripC(E, J.T2);
           if (!B->Refn)
             return J.KGoal;
           if (!A->Refn) {
             E.fail("cannot prove a refinement for an unrefined boolean",
                    J.Loc);
             return nullptr;
           }
           TermRef Iff = mkAnd(mkImplies(A->Refn, B->Refn),
                               mkImplies(B->Refn, A->Refn));
           return gStar({ResAtom::pure(Iff)}, J.KGoal);
         },
         RuleKey::onPair({TypeKind::Bool}, {TypeKind::Bool})});
  // An integer viewed as a boolean (CAS expected slots, flag fields).
  R.push_back({Name("S-INT-BOOL"), JK, 49,
         [](Engine &E, const Judgment &J) {
           return kind1(E, J) == TypeKind::Int &&
                  kind2(E, J) == TypeKind::Bool;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef A = stripC(E, J.T1), B = stripC(E, J.T2);
           if (!A->Refn || !B->Refn) {
             E.fail("cannot relate integer and boolean refinements", J.Loc);
             return nullptr;
           }
           TermRef AsBool = mkNe(A->Refn, mkNat(0));
           TermRef Iff = mkAnd(mkImplies(AsBool, B->Refn),
                               mkImplies(B->Refn, AsBool));
           return gStar({ResAtom::pure(Iff)}, J.KGoal);
         },
         RuleKey::onPair({TypeKind::Int}, {TypeKind::Bool})});

  // Owned pointers: equal targets, subsume the pointee.
  R.push_back({Name("S-OWN-OWN"), JK, 50,
         [](Engine &E, const Judgment &J) {
           return kind1(E, J) == TypeKind::Own &&
                  kind2(E, J) == TypeKind::Own;
         },
         [IsLoc](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef A = stripC(E, J.T1), B = stripC(E, J.T2);
           // The pointer value: A's refinement, or (for value subsumption)
           // the subject itself.
           TermRef Ptr = A->Refn ? A->Refn
                         : !IsLoc ? J.V1
                                  : E.freshUniversal("p", Sort::Loc);
           GoalRef Inner =
               mkSubsumeL(Ptr, A->Children[0], B->Children[0], J.KGoal,
                          J.Loc);
           return refnEqGoal(E, J, Ptr, B->Refn, Inner);
         },
         RuleKey::onPair({TypeKind::Own}, {TypeKind::Own})});

  // S-NULL (Figure 6).
  R.push_back({Name("S-NULL"), JK, 60,
         [](Engine &E, const Judgment &J) {
           return kind1(E, J) == TypeKind::Null &&
                  kind2(E, J) == TypeKind::Optional;
         },
         [Recur](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef B = stripC(E, J.T2);
           TermRef Phi = B->Refn ? B->Refn : mkTrue();
           GoalRef Cont = J.KGoal;
           if (peel(B->Children[1])->K != TypeKind::Null)
             Cont = Recur(J.V1, tyNull(), B->Children[1], Cont, J.Loc);
           return gStar({ResAtom::pure(mkNot(Phi))}, Cont);
         },
         RuleKey::onPair({TypeKind::Null}, {TypeKind::Optional})});

  // S-OWN (Figure 6): also covers places (addresses are non-null).
  R.push_back({Name("S-OWN"), JK, 60,
         [](Engine &E, const Judgment &J) {
           TypeKind K1 = kind1(E, J);
           return (K1 == TypeKind::Own || K1 == TypeKind::Place) &&
                  kind2(E, J) == TypeKind::Optional;
         },
         [Recur](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef B = stripC(E, J.T2);
           TermRef Phi = B->Refn ? B->Refn : mkTrue();
           return gStar({ResAtom::pure(Phi)},
                        Recur(J.V1, J.T1, B->Children[0], J.KGoal, J.Loc));
         },
         RuleKey::onPair({TypeKind::Own, TypeKind::Place},
                         {TypeKind::Optional})});

  // Optionals on both sides: split on the left refinement.
  R.push_back({Name("S-OPT-OPT"), JK, 50,
         [](Engine &E, const Judgment &J) {
           return kind1(E, J) == TypeKind::Optional &&
                  kind2(E, J) == TypeKind::Optional;
         },
         [Recur](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef A = stripC(E, J.T1), B = stripC(E, J.T2);
           TermRef P1 = A->Refn ? A->Refn : mkTrue();
           TermRef P2 = B->Refn ? B->Refn : mkTrue();
           GoalRef Pos =
               gWand({ResAtom::pure(P1)},
                     gStar({ResAtom::pure(P2)},
                           Recur(J.V1, A->Children[0], B->Children[0],
                                 J.KGoal, J.Loc)));
           GoalRef Neg =
               gWand({ResAtom::pure(mkNot(P1))},
                     gStar({ResAtom::pure(mkNot(P2))},
                           Recur(J.V1, A->Children[1], B->Children[1],
                                 J.KGoal, J.Loc)));
           return gConj(Pos, Neg);
         },
         RuleKey::onPair({TypeKind::Optional}, {TypeKind::Optional})});

  // An optional whose refinement is known true/false collapses.
  R.push_back({Name("S-OPT-OWN"), JK, 49,
         [](Engine &E, const Judgment &J) {
           return kind1(E, J) == TypeKind::Optional &&
                  kind2(E, J) != TypeKind::Optional &&
                  kind2(E, J) != TypeKind::Uninit &&
                  kind2(E, J) != TypeKind::Any;
         },
         [Recur](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef A = stripC(E, J.T1);
           TermRef Phi = A->Refn ? A->Refn : mkTrue();
           bool WantNull = kind2(E, J) == TypeKind::Null;
           if (WantNull)
             return gStar({ResAtom::pure(mkNot(Phi))},
                          Recur(J.V1, A->Children[1], J.T2, J.KGoal, J.Loc));
           return gStar({ResAtom::pure(Phi)},
                        Recur(J.V1, A->Children[0], J.T2, J.KGoal, J.Loc));
         },
         RuleKey::onPair({TypeKind::Optional}, {})});

  // Forgetting content: anything of statically-known size can be viewed as
  // uninitialized/unknown bytes (used when freeing structures).
  R.push_back({Name("S-FORGET"), JK, 30,
         [](Engine &E, const Judgment &J) {
           TypeKind K2 = kind2(E, J);
           if (K2 != TypeKind::Uninit && K2 != TypeKind::Any)
             return false;
           TypeKind K1 = kind1(E, J);
           if (K1 == TypeKind::Uninit || K1 == TypeKind::Any)
             return false; // handled by the merge rule
           return knownByteSize(peel(E.resolveTy(J.T1))) > 0;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef A = stripC(E, J.T1), B = stripC(E, J.T2);
           uint64_t Sz = knownByteSize(A);
           return gStar({ResAtom::pure(mkEq(
                            mkNat(static_cast<int64_t>(Sz)), B->Size))},
                        J.KGoal);
         },
         RuleKey::onPair({}, {TypeKind::Uninit, TypeKind::Any})});

  // Function pointers: specs must be compatible (structurally equal up to
  // parameter renaming). Covers passing a concrete function where a
  // function-typedef spec is expected.
  R.push_back({Name("S-FNPTR"), JK, 48,
         [](Engine &E, const Judgment &J) {
           return kind1(E, J) == TypeKind::FnPtr &&
                  kind2(E, J) == TypeKind::FnPtr;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           auto A = peel(stripC(E, J.T1))->Spec;
           auto B = peel(stripC(E, J.T2))->Spec;
           if (A == B)
             return J.KGoal;
           auto Compatible = [&]() {
             if (A->Params.size() != B->Params.size() ||
                 A->Args.size() != B->Args.size() ||
                 A->RetExists.size() != B->RetExists.size())
               return false;
             // Rename A's parameters to B's.
             std::map<std::string, TermRef> Ren;
             for (size_t I = 0; I < A->Params.size(); ++I) {
               if (A->Params[I].second != B->Params[I].second)
                 return false;
               Ren[A->Params[I].first] =
                   pure::mkVar(B->Params[I].first, B->Params[I].second);
             }
             for (size_t I = 0; I < A->RetExists.size(); ++I) {
               if (A->RetExists[I].second != B->RetExists[I].second)
                 return false;
               Ren[A->RetExists[I].first] = pure::mkVar(
                   B->RetExists[I].first, B->RetExists[I].second);
             }
             for (size_t I = 0; I < A->Args.size(); ++I)
               if (!typeEqual(substTypeMap(A->Args[I], Ren), B->Args[I]))
                 return false;
             if ((A->Ret != nullptr) != (B->Ret != nullptr))
               return false;
             if (A->Ret && !typeEqual(substTypeMap(A->Ret, Ren), B->Ret))
               return false;
             if (A->Requires.size() != B->Requires.size() ||
                 A->Ensures.size() != B->Ensures.size())
               return false;
             return true;
           };
           if (!Compatible()) {
             E.fail("incompatible function-pointer specifications: " +
                        A->Name + " vs " + B->Name,
                    J.Loc);
             return nullptr;
           }
           return J.KGoal;
         },
         RuleKey::onPair({TypeKind::FnPtr}, {TypeKind::FnPtr})});

  // valueOf / place identity.
  R.push_back({Name("S-VALUEOF-EQ"), JK, 45,
         [](Engine &E, const Judgment &J) {
           TypeKind K1 = kind1(E, J), K2 = kind2(E, J);
           return (K1 == TypeKind::ValueOf || K1 == TypeKind::Place) &&
                  (K2 == TypeKind::ValueOf || K2 == TypeKind::Place);
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef A = stripC(E, J.T1), B = stripC(E, J.T2);
           return refnEqGoal(E, J, A->Refn, B->Refn, J.KGoal);
         },
         RuleKey::onPair({TypeKind::ValueOf, TypeKind::Place},
                         {TypeKind::ValueOf, TypeKind::Place})});

  // A place becomes an owned pointer by collecting the pointee from Δ.
  R.push_back({Name("S-PLACE-OWN"), JK, 50,
         [](Engine &E, const Judgment &J) {
           return kind1(E, J) == TypeKind::Place &&
                  kind2(E, J) == TypeKind::Own;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef A = stripC(E, J.T1), B = stripC(E, J.T2);
           TermRef L = A->Refn;
           GoalRef Collect =
               gStar({ResAtom::loc(L, B->Children[0])}, J.KGoal);
           return refnEqGoal(E, J, L, B->Refn, Collect);
         },
         RuleKey::onPair({TypeKind::Place}, {TypeKind::Own})});

  // A valueOf whose ownership is parked in Δ.
  R.push_back({Name("S-VALUEOF-RESOLVE"), JK, 88,
         [](Engine &E, const Judgment &J) {
           TypeRef A = peel(E.resolveTy(J.T1));
           TypeKind K2 = kind2(E, J);
           return A->K == TypeKind::ValueOf && K2 != TypeKind::ValueOf &&
                  K2 != TypeKind::Place && K2 != TypeKind::Uninit &&
                  K2 != TypeKind::Any;
         },
         [Recur](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef A = stripC(E, J.T1);
           TermRef V = E.resolve(A->Refn);
           if (const ResAtom *Found = findValAtom(E, V)) {
             (void)Found;
             ResAtom Got;
             if (!E.popValAtom(V, Got, J.Loc))
               return nullptr;
             return Recur(V, Got.Ty, J.T2, J.KGoal, J.Loc);
           }
           // No parked ownership: the value may still be a place (address).
           return Recur(V, tyPlace(V), J.T2, J.KGoal, J.Loc);
         },
         RuleKey::onPair({TypeKind::ValueOf}, {})});
}

//===----------------------------------------------------------------------===//
// Location-only rules (composition, padding, uninit algebra, wands)
//===----------------------------------------------------------------------===//

void registerLocOnly(std::vector<Rule> &R) {
  // Recompose a struct from its (split) field atoms.
  R.push_back({"SL-TO-STRUCT", JudgKind::SubsumeL, 70,
         [](Engine &E, const Judgment &J) {
           return kind2(E, J) == TypeKind::Struct &&
                  kind1(E, J) != TypeKind::Struct;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef B = stripC(E, J.T2);
           const caesium::StructLayout *L = B->Layout;
           // Put the popped content back; then collect every field (and the
           // padding) at its offset.
           E.pushAtom(ResAtom::loc(J.V1, J.T1));
           ResList Need;
           uint64_t Covered = 0;
           for (size_t I = 0; I < L->Fields.size(); ++I) {
             const caesium::FieldLayout &F = L->Fields[I];
             if (F.Offset > Covered)
               Need.push_back(
                   ResAtom::loc(locOffset(J.V1, Covered),
                                tyUninit(mkNat(F.Offset - Covered))));
             Need.push_back(
                 ResAtom::loc(locOffset(J.V1, F.Offset), B->Children[I]));
             Covered = F.Offset + F.Ly.Size;
           }
           if (Covered < L->Size)
             Need.push_back(ResAtom::loc(locOffset(J.V1, Covered),
                                         tyUninit(mkNat(L->Size - Covered))));
           return gStar(std::move(Need), J.KGoal);
         },
         RuleKey::onPair({}, {TypeKind::Struct})});

  // Struct to struct (same layout): field-wise subsumption.
  R.push_back({"SL-STRUCT-STRUCT", JudgKind::SubsumeL, 72,
         [](Engine &E, const Judgment &J) {
           TypeRef A = peel(E.resolveTy(J.T1)), B = peel(E.resolveTy(J.T2));
           return A->K == TypeKind::Struct && B->K == TypeKind::Struct &&
                  A->Layout == B->Layout;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef A = stripC(E, J.T1), B = stripC(E, J.T2);
           GoalRef G = J.KGoal;
           const caesium::StructLayout *L = A->Layout;
           for (size_t I = L->Fields.size(); I-- > 0;) {
             G = mkSubsumeL(locOffset(J.V1, L->Fields[I].Offset),
                            A->Children[I], B->Children[I], G, J.Loc);
           }
           return G;
         },
         RuleKey::onPair({TypeKind::Struct}, {TypeKind::Struct})});

  // Struct content subsuming into a non-struct target: expose the first
  // field and retry (progress is guaranteed because the target is scalar).
  R.push_back({"SL-STRUCT-L", JudgKind::SubsumeL, 69,
         [](Engine &E, const Judgment &J) {
           return kind1(E, J) == TypeKind::Struct &&
                  kind2(E, J) != TypeKind::Struct;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           E.pushAtom(ResAtom::loc(J.V1, stripC(E, J.T1))); // splits fields
           return gStar({ResAtom::loc(J.V1, J.T2)}, J.KGoal);
         },
         RuleKey::onPair({TypeKind::Struct}, {})});

  // Recompose padding.
  R.push_back({"SL-TO-PADDED", JudgKind::SubsumeL, 68,
         [](Engine &E, const Judgment &J) {
           return kind2(E, J) == TypeKind::Padded;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef B = stripC(E, J.T2);
           uint64_t Inner = knownByteSize(B->Children[0]);
           if (Inner == 0) {
             E.fail("cannot recompose padding around a type of unknown "
                    "size: " +
                        B->str(),
                    J.Loc);
             return nullptr;
           }
           E.pushAtom(ResAtom::loc(J.V1, J.T1));
           TermRef Rest = E.resolve(
               mkSub(B->Size, mkNat(static_cast<int64_t>(Inner))));
           ResList Need = {
               ResAtom::loc(J.V1, B->Children[0]),
               ResAtom::loc(locOffset(J.V1, Inner), tyUninit(Rest))};
           return gStar(std::move(Need), J.KGoal);
         },
         RuleKey::onPair({}, {TypeKind::Padded})});
  R.push_back({"SL-PADDED-L", JudgKind::SubsumeL, 67,
         [](Engine &E, const Judgment &J) {
           return kind1(E, J) == TypeKind::Padded &&
                  kind2(E, J) != TypeKind::Padded;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           E.pushAtom(ResAtom::loc(J.V1, stripC(E, J.T1))); // splits
           return gStar({ResAtom::loc(J.V1, J.T2)}, J.KGoal);
         },
         RuleKey::onPair({TypeKind::Padded}, {})});

  // uninit/any splitting and merging.
  R.push_back({"SL-UNINIT-MERGE", JudgKind::SubsumeL, 66,
         [](Engine &E, const Judgment &J) {
           TypeKind K1 = kind1(E, J), K2 = kind2(E, J);
           return (K1 == TypeKind::Uninit || K1 == TypeKind::Any) &&
                  (K2 == TypeKind::Uninit || K2 == TypeKind::Any);
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef A = stripC(E, J.T1), B = stripC(E, J.T2);
           TermRef M = A->Size, N = B->Size;
           if (trySideCond(E, mkEq(M, N)))
             return J.KGoal;
           // Shrink: the block in hand is larger; the tail stays in Δ
           // (this is the front-of-buffer alloc variant of Section 6).
           if (trySideCond(E, mkLe(N, M))) {
             E.pushAtom(ResAtom::loc(locOffset(J.V1, E.resolve(N)),
                                     tyUninit(E.resolve(mkSub(M, N)))));
             return J.KGoal;
           }
           // Grow: consume the rest from Δ.
           ResList Need = {
               ResAtom::pure(mkLe(M, N)),
               ResAtom::loc(locOffset(J.V1, E.resolve(M)),
                            tyUninit(E.resolve(mkSub(N, M))))};
           return gStar(std::move(Need), J.KGoal);
         },
         RuleKey::onPair({TypeKind::Uninit, TypeKind::Any},
                         {TypeKind::Uninit, TypeKind::Any})});

  // Sized content forgotten into a larger uninit: forget, then extend.
  // Outranks the exact-size S-FORGET for location subsumptions.
  R.push_back({"SL-FORGET-EXTEND", JudgKind::SubsumeL, 31,
         [](Engine &E, const Judgment &J) {
           TypeKind K2 = kind2(E, J);
           if (K2 != TypeKind::Uninit && K2 != TypeKind::Any)
             return false;
           TypeKind K1 = kind1(E, J);
           if (K1 == TypeKind::Uninit || K1 == TypeKind::Any)
             return false;
           return knownByteSize(peel(E.resolveTy(J.T1))) > 0;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef A = stripC(E, J.T1), B = stripC(E, J.T2);
           uint64_t Sz = knownByteSize(A);
           TermRef M = mkNat(static_cast<int64_t>(Sz));
           if (trySideCond(E, mkEq(M, B->Size)))
             return J.KGoal;
           ResList Need = {
               ResAtom::pure(mkLe(M, B->Size)),
               ResAtom::loc(locOffset(J.V1, Sz),
                            tyUninit(E.resolve(mkSub(B->Size, M))))};
           return gStar(std::move(Need), J.KGoal);
         },
         RuleKey::onPair({}, {TypeKind::Uninit, TypeKind::Any})});

  // Arrays with the same element shape: refinement-list equality.
  R.push_back({"SL-ARRAY-SAME", JudgKind::SubsumeL, 71,
         [](Engine &E, const Judgment &J) {
           TypeRef A = peel(E.resolveTy(J.T1)), B = peel(E.resolveTy(J.T2));
           return A->K == TypeKind::Array && B->K == TypeKind::Array &&
                  A->ElemSize == B->ElemSize;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef A = stripC(E, J.T1), B = stripC(E, J.T2);
           TermRef Common = pure::mkVar("#cmp", pure::Sort::Nat);
           TypeRef EA = substTypeVar(A->Children[0], A->ElemBinder, Common);
           TypeRef EB = substTypeVar(B->Children[0], B->ElemBinder, Common);
           if (!typeEqual(EA, EB)) {
             E.fail("array element types differ: " + A->str() + " vs " +
                        B->str(),
                    J.Loc);
             return nullptr;
           }
           return refnEqGoal(E, J, A->Refn, B->Refn, J.KGoal);
         },
         RuleKey::onPair({TypeKind::Array}, {TypeKind::Array})});

  // Magic wands (Section 2.2): introduction captures the resources the
  // sub-proof consumes; application pays the hole and yields the result.
  R.push_back({"WAND-INTRO", JudgKind::SubsumeL, 75,
         [](Engine &E, const Judgment &J) {
           return kind2(E, J) == TypeKind::Wand &&
                  kind1(E, J) != TypeKind::Wand;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef B = stripC(E, J.T2);
           E.pushAtom(ResAtom::loc(J.V1, J.T1));
           ResAtom Hole = ResAtom::loc(B->WandLoc, B->Children[1]);
           return gWand({Hole},
                        gStar({ResAtom::loc(J.V1, B->Children[0])}, J.KGoal));
         },
         RuleKey::onPair({}, {TypeKind::Wand})});
  R.push_back({"WAND-APPLY", JudgKind::SubsumeL, 74,
         [](Engine &E, const Judgment &J) {
           return kind1(E, J) == TypeKind::Wand;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef A = stripC(E, J.T1);
           ResAtom Hole = ResAtom::loc(A->WandLoc, A->Children[1]);
           return gStar({Hole},
                        mkSubsumeL(J.V1, A->Children[0], J.T2, J.KGoal,
                                   J.Loc));
         },
         RuleKey::onPair({TypeKind::Wand}, {})});

  // Wand-to-wand: identical hole, subsume the results.
  R.push_back({"WAND-WAND", JudgKind::SubsumeL, 76,
         [](Engine &E, const Judgment &J) {
           return kind1(E, J) == TypeKind::Wand &&
                  kind2(E, J) == TypeKind::Wand;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef A = stripC(E, J.T1), B = stripC(E, J.T2);
           // Same hole location and type: result subsumption. Otherwise:
           // re-introduce (apply A under B's hole).
           if (A->WandLoc == B->WandLoc &&
               typeEqual(E.resolveTy(A->Children[1]),
                         E.resolveTy(B->Children[1])))
             return mkSubsumeL(J.V1, A->Children[0], B->Children[0], J.KGoal,
                               J.Loc);
           ResAtom HoleB = ResAtom::loc(B->WandLoc, B->Children[1]);
           ResAtom HoleA = ResAtom::loc(A->WandLoc, A->Children[1]);
           return gWand(
               {HoleB},
               gStar({HoleA}, mkSubsumeL(J.V1, A->Children[0],
                                         B->Children[0], J.KGoal, J.Loc)));
         },
         RuleKey::onPair({TypeKind::Wand}, {TypeKind::Wand})});
}

} // namespace

namespace rcc::refinedc {
void registerSubsumeRules(std::vector<lithium::Rule> &R) {
  registerShared(R, lithium::JudgKind::SubsumeV, "-V");
  registerShared(R, lithium::JudgKind::SubsumeL, "-L");
  registerLocOnly(R);
}
} // namespace rcc::refinedc
