//===- Rules.cpp - The RefinedC standard typing-rule library --------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The standard library of RefinedC typing rules (Section 6), registered
/// into the Lithium rule registry. Rules are keyed by judgment kind and by
/// the operand type constructors, so rule lookup is unambiguous and the
/// search never backtracks. Figure 6's rules appear here by name:
/// IF-BOOL, IF-INT, T-IF, T-BINOP (as the expression scheduler), S-NULL,
/// S-OWN, O-OPTIONAL-EQ, O-ADD-UNINIT, and CAS-BOOL, together with the
/// supporting rules for reads/writes, struct (re)composition, named-type
/// (un)folding, existentials, constraints, padding, wands, arrays, and
/// function calls.
///
//===----------------------------------------------------------------------===//

#include "refinedc/Checker.h"

#include "caesium/Ast.h"

using namespace rcc;
using namespace rcc::refinedc;
using namespace rcc::lithium;
using namespace rcc::pure;
using caesium::BinOpKind;
using caesium::UnOpKind;

namespace {

VerifyCtx &ctx(Engine &E) {
  assert(E.Ctx && "engine has no verification context");
  return *static_cast<VerifyCtx *>(E.Ctx);
}

Sort sortOfInt(caesium::IntType Ity) {
  return Ity.Signed ? Sort::Int : Sort::Nat;
}

TermRef nullTerm() { return mkApp("NULL", Sort::Loc, {}); }

/// Strips Constraint (adding facts) and resolves the type.
TypeRef stripCtx(Engine &E, TypeRef T) {
  T = E.resolveTy(T);
  while (T->K == TypeKind::Constraint) {
    E.addFact(T->Refn);
    T = E.resolveTy(T->Children[0]);
  }
  return T;
}

/// Pure variant for Matches guards: same peeled type, but the constraint
/// facts stay put (the RuleKey contract requires guards to be effect-free —
/// the index skips guard evaluations). Apply still goes through stripCtx,
/// which is where the facts enter Γ.
TypeRef peelCtx(Engine &E, TypeRef T) {
  T = E.resolveTy(T);
  while (T->K == TypeKind::Constraint)
    T = T->Children[0];
  return T;
}

/// The boolean proposition carried by a bool- or int-typed value.
TermRef boolPropOf(TypeRef T) {
  if (T->K == TypeKind::Bool)
    return T->Refn ? T->Refn : nullptr;
  if (T->K == TypeKind::Int && T->Refn)
    return mkNe(T->Refn, mkNat(0));
  return nullptr;
}

GoalRef stmtGoal(const caesium::Function *Fn, unsigned Block, unsigned Idx) {
  Judgment J;
  J.K = JudgKind::Stmt;
  J.Fn = Fn;
  J.BlockId = Block;
  J.StmtIdx = Idx;
  return gJudg(std::move(J));
}

GoalRef blockGoal(const caesium::Function *Fn, unsigned Block) {
  Judgment J;
  J.K = JudgKind::BlockJ;
  J.Fn = Fn;
  J.BlockId = Block;
  return gJudg(std::move(J));
}

GoalRef exprGoal(const caesium::Expr *E, lithium::ValueCont K) {
  Judgment J;
  J.K = JudgKind::Expr;
  J.E = E;
  J.Loc = E->Loc;
  J.KVal = std::move(K);
  return gJudg(std::move(J));
}

GoalRef subsumeV(TermRef V, TypeRef T1, TypeRef T2, GoalRef K,
                 rcc::SourceLoc Loc = {}) {
  Judgment J;
  J.K = JudgKind::SubsumeV;
  J.V1 = V;
  J.T1 = std::move(T1);
  J.T2 = std::move(T2);
  J.KGoal = std::move(K);
  J.Loc = Loc;
  return gJudg(std::move(J));
}

/// Builds the return goal: ∃ys. (v ◁ ret) ∗ ensures ∗ True. Implemented as
/// a free recursive function (not a self-capturing closure) so the goal
/// tree holds no reference cycles.
GoalRef retGoalWrap(const FnSpec *Spec, size_t I,
                    std::map<std::string, TermRef> Subst, TermRef V,
                    TypeRef T, rcc::SourceLoc Loc) {
  if (I == Spec->RetExists.size()) {
    // Innermost: subsume the returned value, then prove the postcondition.
    TypeRef Ret = Spec->Ret;
    ResList Post = Spec->Ensures;
    for (const auto &[N, R] : Subst) {
      if (Ret)
        Ret = substTypeVar(Ret, N, R);
      Post = substResVar(Post, N, R);
    }
    GoalRef Fin = gStar(Post, gTrue());
    if (!Ret)
      return Fin;
    return subsumeV(V, T, Ret, Fin, Loc);
  }
  auto [Name, Srt] = Spec->RetExists[I];
  return gEx(Name, Srt,
             [Spec, I, Subst, V, T, Loc, Name = Name](TermRef X) {
               auto Subst2 = Subst;
               Subst2[Name] = X;
               return retGoalWrap(Spec, I + 1, Subst2, V, T, Loc);
             });
}

GoalRef returnGoal(Engine &E, TermRef V, TypeRef T, rcc::SourceLoc Loc) {
  return retGoalWrap(ctx(E).Spec, 0, {}, V, T, Loc);
}

/// Resolves the address denoted by a typed value (for loads/stores). May
/// push pointee ownership (focusing through &own).
bool addrOfValue(Engine &E, TermRef V, TypeRef T, TermRef &L,
                 rcc::SourceLoc Loc) {
  T = stripCtx(E, T);
  switch (T->K) {
  case TypeKind::Place:
  case TypeKind::ValueOf:
    L = T->Refn;
    return true;
  case TypeKind::Own: {
    L = T->Refn ? E.resolve(T->Refn) : E.resolve(V);
    E.pushAtom(ResAtom::loc(L, T->Children[0]));
    return true;
  }
  case TypeKind::Named: {
    TypeRef U = unfoldNamed(*T);
    return addrOfValue(E, V, U, L, Loc);
  }
  case TypeKind::Optional: {
    // Dereferencing an optional is fine when its refinement is provable
    // (e.g. under a `requires` that rules out NULL).
    TermRef Phi = T->Refn ? T->Refn : mkTrue();
    pure::SolveResult SR = E.solver().prove(E.Gamma, Phi, E.evars());
    if (SR.Proved) {
      E.recordSideCond(Phi, SR);
      return addrOfValue(E, V, T->Children[0], L, Loc);
    }
    E.fail("dereference of a possibly-NULL pointer (type " + T->str() +
               "); test it against NULL first",
           Loc);
    return false;
  }
  case TypeKind::Null:
    E.fail("dereference of NULL", Loc);
    return false;
  default:
    E.fail("cannot dereference a value of type " + T->str(), Loc);
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Array element access (read: copy out the i-th refinement; write: update
// the refinement list in place). Arrays here have integer elements refined
// by a list, which covers the binary-search and hashmap case studies.
//===----------------------------------------------------------------------===//

struct ArrayHit {
  size_t DeltaIdx = 0;
  TermRef Index = nullptr;
  TypeRef ArrTy = nullptr;
};

bool findArrayElem(Engine &E, TermRef L, uint64_t AccessSize, ArrayHit &Out) {
  L = E.resolve(L);
  TermRef Base = L;
  TermRef Off = mkNat(0);
  if (L->kind() == pure::TermKind::App && L->name() == "at") {
    Base = L->arg(0);
    Off = L->arg(1);
  }
  for (size_t I = 0; I < E.Delta.size(); ++I) {
    const ResAtom &A = E.Delta[I];
    if (A.K != ResAtom::LocType)
      continue;
    if (E.resolve(A.Subject) != Base)
      continue;
    TypeRef Ty = E.resolveTy(A.Ty);
    if (Ty->K != TypeKind::Array || Ty->ElemSize != AccessSize || !Ty->Refn)
      continue;
    // Recover the element index from the byte offset.
    TermRef Idx = nullptr;
    int64_t ES = static_cast<int64_t>(Ty->ElemSize);
    if (Off->isConst()) {
      if (Off->num() % ES != 0)
        return false;
      Idx = mkNat(Off->num() / ES);
    } else if (Off->kind() == pure::TermKind::Mul) {
      if (Off->arg(1)->isConst() && Off->arg(1)->num() == ES)
        Idx = Off->arg(0);
      else if (Off->arg(0)->isConst() && Off->arg(0)->num() == ES)
        Idx = Off->arg(1);
    }
    if (!Idx)
      return false;
    Out.DeltaIdx = I;
    Out.Index = Idx;
    Out.ArrTy = Ty;
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Statement rules
//===----------------------------------------------------------------------===//

/// The loop-invariant proof goal: ∃xs. (slot atoms ∗ constraints) ∗ True.
/// A free recursive function for the same cycle-freedom reason as
/// retGoalWrap.
GoalRef invGoalWrap(const VerifyCtx *C, int Id, size_t I,
                    std::map<std::string, TermRef> Subst) {
  const LoopInv &Inv = C->LoopInvs[Id];
  if (I == Inv.ExVars.size()) {
    ResList H;
    for (const auto &[Slot, Ty] : Inv.InvVars) {
      TypeRef T = Ty;
      for (const auto &[N2, R2] : Subst)
        T = substTypeVar(T, N2, R2);
      H.push_back(ResAtom::loc(mkVar("&" + Slot, Sort::Loc), T));
    }
    for (TermRef Phi : Inv.Constraints) {
      TermRef P = Phi;
      for (const auto &[N2, R2] : Subst)
        P = substVar(P, N2, R2);
      H.push_back(ResAtom::pure(P));
    }
    return gStar(std::move(H), gTrue());
  }
  auto [Name, Srt] = Inv.ExVars[I];
  return gEx(Name, Srt, [C, Id, I, Subst, Name = Name](TermRef X) {
    auto S2 = Subst;
    S2[Name] = X;
    return invGoalWrap(C, Id, I + 1, S2);
  });
}

void registerStmtRules(std::vector<Rule> &R) {
  R.push_back({"T-STMT", JudgKind::Stmt, 0,
         /*Matches=*/nullptr, // total: every Stmt goal is dispatched here
         [](Engine &E, const Judgment &J) -> GoalRef {
           const caesium::Function *Fn = J.Fn;
           if (J.BlockId >= Fn->Blocks.size() ||
               J.StmtIdx >= Fn->Blocks[J.BlockId].Stmts.size()) {
             E.fail("control reaches the end of a block without a "
                    "terminator in '" +
                    Fn->Name + "'");
             return nullptr;
           }
           const caesium::Stmt &S = Fn->Blocks[J.BlockId].Stmts[J.StmtIdx];
           unsigned B = J.BlockId, I = J.StmtIdx;
           switch (S.K) {
           case caesium::StmtKind::ExprS:
             return exprGoal(S.E.get(), [Fn, B, I](TermRef, TypeRef) {
               return stmtGoal(Fn, B, I + 1);
             });
           case caesium::StmtKind::Goto:
             return blockGoal(Fn, S.Target1);
           case caesium::StmtKind::CondGoto: {
             unsigned T1 = S.Target1, T2 = S.Target2;
             rcc::SourceLoc Loc = S.Loc;
             return exprGoal(
                 S.E.get(), [Fn, T1, T2, Loc](TermRef V, TypeRef T) {
                   Judgment IJ;
                   IJ.K = JudgKind::IfJ;
                   IJ.V1 = V;
                   IJ.T1 = std::move(T);
                   IJ.GThen = blockGoal(Fn, T1);
                   IJ.GElse = blockGoal(Fn, T2);
                   IJ.Loc = Loc;
                   return gJudg(std::move(IJ));
                 });
           }
           case caesium::StmtKind::Return: {
             rcc::SourceLoc Loc = S.Loc;
             if (!S.E) {
               // Void return: only the postcondition must hold.
               return returnGoal(E, mkNat(0), tyAny(mkNat(0)), Loc);
             }
             Engine *EP = &E;
             return exprGoal(S.E.get(), [EP, Loc](TermRef V, TypeRef T) {
               return returnGoal(*EP, V, T, Loc);
             });
           }
           case caesium::StmtKind::Switch: {
             E.fail("switch statements are not yet supported by the type "
                    "system",
                    S.Loc);
             return nullptr;
           }
           case caesium::StmtKind::UBStmt:
             E.fail("verification reached a stuck statement: " + S.Msg,
                    S.Loc);
             return nullptr;
           }
           return nullptr;
         }});

  // Jump to a block without an invariant: check inline (per incoming path).
  R.push_back({"BLOCK-INLINE", JudgKind::BlockJ, 0,
         [](Engine &E, const Judgment &J) {
           return J.Fn->Blocks[J.BlockId].AnnotId < 0;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           VerifyCtx &C = ctx(E);
           unsigned N = ++C.InlineCount[J.BlockId];
           if (N > 64) {
             E.fail("block " + std::to_string(J.BlockId) + " of '" +
                    J.Fn->Name +
                    "' is re-entered without a loop invariant annotation "
                    "(add rc::inv_vars/rc::exists before the loop)");
             return nullptr;
           }
           return stmtGoal(J.Fn, J.BlockId, 0);
         },
         RuleKey::onFlag(false)});

  // Jump to an annotated loop head: prove the invariant (existentials become
  // evars); the block body is checked once, separately, from the invariant.
  R.push_back({"BLOCK-INV", JudgKind::BlockJ, 0,
         [](Engine &E, const Judgment &J) {
           return J.Fn->Blocks[J.BlockId].AnnotId >= 0;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           VerifyCtx &C = ctx(E);
           int Id = J.Fn->Blocks[J.BlockId].AnnotId;
           if (Id < 0 || static_cast<size_t>(Id) >= C.LoopInvs.size()) {
             E.fail("missing parsed loop invariant for block " +
                    std::to_string(J.BlockId));
             return nullptr;
           }
           C.queueBlock(J.BlockId);

           // Build: ∃xs. (slot atoms ∗ constraints) ∗ True.
           return invGoalWrap(&C, Id, 0, {});
         },
         RuleKey::onFlag(true)});

  // The condition-splitting rules of Figure 6.
  R.push_back({"IF-BOOL", JudgKind::IfJ, 0,
         [](Engine &E, const Judgment &J) {
           TypeRef T = peelCtx(E, J.T1);
           return T->K == TypeKind::Bool && T->Refn;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef T = stripCtx(E, J.T1);
           TermRef Phi = T->Refn;
           return gConj(gWand({ResAtom::pure(Phi)}, J.GThen),
                        gWand({ResAtom::pure(mkNot(Phi))}, J.GElse));
         },
         RuleKey::onTy({TypeKind::Bool})});
  R.push_back({"IF-INT", JudgKind::IfJ, 0,
         [](Engine &E, const Judgment &J) {
           TypeRef T = peelCtx(E, J.T1);
           return T->K == TypeKind::Int && T->Refn;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef T = stripCtx(E, J.T1);
           TermRef N = T->Refn;
           return gConj(gWand({ResAtom::pure(mkNe(N, mkNat(0)))}, J.GThen),
                        gWand({ResAtom::pure(mkEq(N, mkNat(0)))}, J.GElse));
         },
         RuleKey::onTy({TypeKind::Int})});
}

//===----------------------------------------------------------------------===//
// Expression rules
//===----------------------------------------------------------------------===//

/// Evaluates call arguments left to right, then emits the Call judgment.
GoalRef callArgChain(
    const caesium::Expr *XP, lithium::ValueCont K,
    TermRef VF, TypeRef TF,
    std::vector<std::pair<TermRef, TypeRef>> *Collect,
    size_t I) {
  if (I + 1 >= XP->Args.size()) {
    Judgment CJ;
    CJ.K = JudgKind::CallJ;
    CJ.V1 = VF;
    CJ.T1 = TF;
    CJ.Args = *Collect;
    CJ.Loc = XP->Loc;
    CJ.KVal = K;
    return gJudg(std::move(CJ));
  }
  return exprGoal(XP->Args[I + 1].get(),
                  [XP, K, VF, TF, Collect, I](TermRef V, TypeRef T) {
                    Collect->push_back({V, T});
                    return callArgChain(XP, K, VF, TF, Collect, I + 1);
                  });
}

void registerExprRules(std::vector<Rule> &R) {
  R.push_back({"T-EXPR", JudgKind::Expr, 0,
         /*Matches=*/nullptr, // total: every Expr goal is dispatched here
         [](Engine &E, const Judgment &J) -> GoalRef {
           const caesium::Expr &X = *J.E;
           auto K = J.KVal;
           VerifyCtx &C = ctx(E);
           switch (X.K) {
           case caesium::ExprKind::Const: {
             const caesium::RtVal &V = X.Val;
             if (V.isPtr() && V.isNullPtr())
               return K(nullTerm(), tyNull());
             if (V.isInt()) {
               Sort S = Sort::Nat;
               int64_t Num = V.asUnsigned() <= INT64_MAX
                                 ? static_cast<int64_t>(V.asUnsigned())
                                 : V.asSigned();
               TermRef N;
               if (Num < 0) {
                 N = mkInt(V.asSigned());
                 S = Sort::Int;
               } else {
                 N = mkNat(Num);
               }
               (void)S;
               return K(N, tyInt(caesium::IntType{V.Size, false}, N));
             }
             E.fail("unsupported constant in expression", X.Loc);
             return nullptr;
           }
           case caesium::ExprKind::AddrLocal: {
             TermRef L = mkVar("&" + X.Name, Sort::Loc);
             return K(L, tyPlace(L));
           }
           case caesium::ExprKind::AddrGlobal: {
             // Function pointers carry their spec; data globals are places.
             auto It = C.Env->FnSpecs.find(X.Name);
             if (It != C.Env->FnSpecs.end()) {
               TermRef L = mkVar("fn:" + X.Name, Sort::Loc);
               return K(L, tyFnPtr(It->second.get()));
             }
             TermRef L = mkVar("&g:" + X.Name, Sort::Loc);
             return K(L, tyPlace(L));
           }
           case caesium::ExprKind::Use: {
             const caesium::Expr *Addr = X.Args[0].get();
             const caesium::Expr *XP = &X;
             return exprGoal(Addr, [&E, XP, K](TermRef V, TypeRef T) -> GoalRef {
               TermRef L;
               if (!addrOfValue(E, V, T, L, XP->Loc))
                 return nullptr;
               // O-ARRAY-READ: reading a refined array cell copies out the
               // i-th element of the refinement list.
               ArrayHit Hit;
               if (XP->Ord == caesium::MemOrder::NonAtomic && findArrayElem(E, L, XP->AccessSize, Hit)) {
                 E.recordRuleApp(lithium::Builtin::ArrayRead);
                 TermRef Xs = Hit.ArrTy->Refn;
                 if (!E.solveSideCond(mkLt(Hit.Index, mkLLen(Xs)), XP->Loc))
                   return nullptr;
                 TermRef Val = E.resolve(mkLNth(Xs, Hit.Index));
                 TypeRef ElemTy = substTypeVar(Hit.ArrTy->Children[0],
                                               Hit.ArrTy->ElemBinder, Val);
                 return K(Val, ElemTy);
               }
               ResAtom Slot;
               if (!E.popLocAtom(L, XP->AccessSize, Slot, XP->Loc))
                 return nullptr;
               Judgment RJ;
               RJ.K = JudgKind::ReadJ;
               RJ.V1 = Slot.Subject;
               RJ.T1 = Slot.Ty;
               RJ.AccessSize = XP->AccessSize;
               RJ.Atomic = XP->Ord == caesium::MemOrder::SeqCst;
               RJ.Loc = XP->Loc;
               RJ.KVal = K;
               return gJudg(std::move(RJ));
             });
           }
           case caesium::ExprKind::Store: {
             const caesium::Expr *Addr = X.Args[0].get();
             const caesium::Expr *Val = X.Args[1].get();
             const caesium::Expr *XP = &X;
             Engine *EP = &E;
             return exprGoal(Addr, [EP, XP, Val,
                                    K](TermRef VA, TypeRef TA) -> GoalRef {
               return exprGoal(Val, [EP, XP, VA, TA,
                                     K](TermRef VV, TypeRef TV) -> GoalRef {
                 Engine &E2 = *EP;
                 TermRef L;
                 if (!addrOfValue(E2, VA, TA, L, XP->Loc))
                   return nullptr;
                 // O-ARRAY-WRITE: writing a refined array cell updates the
                 // i-th element of the refinement list in place.
                 ArrayHit Hit;
                 if (XP->Ord == caesium::MemOrder::NonAtomic && findArrayElem(E2, L, XP->AccessSize, Hit)) {
                   TypeRef TVS = stripCtx(E2, TV);
                   TermRef NewV = TVS->K == TypeKind::Int ? TVS->Refn
                                  : TVS->K == TypeKind::Bool && TVS->Refn
                                      ? mkIte(TVS->Refn, mkNat(1), mkNat(0))
                                      : nullptr;
                   if (!NewV) {
                     E2.fail("array cells hold integers; cannot store " +
                                 TVS->str(),
                             XP->Loc);
                     return nullptr;
                   }
                   E2.recordRuleApp(lithium::Builtin::ArrayWrite);
                   TermRef Xs = Hit.ArrTy->Refn;
                   if (!E2.solveSideCond(mkLt(Hit.Index, mkLLen(Xs)),
                                         XP->Loc))
                     return nullptr;
                   TermRef NewXs =
                       E2.resolve(mkLUpdate(Xs, Hit.Index, NewV));
                   E2.Delta[Hit.DeltaIdx].Ty = withRefn(Hit.ArrTy, NewXs);
                   return K(VV, TVS);
                 }
                 ResAtom Slot;
                 if (!E2.popLocAtom(L, XP->AccessSize, Slot, XP->Loc))
                   return nullptr;
                 Judgment WJ;
                 WJ.K = JudgKind::WriteJ;
                 WJ.V1 = Slot.Subject;
                 WJ.T1 = Slot.Ty;
                 WJ.V2 = VV;
                 WJ.T2 = TV;
                 WJ.AccessSize = XP->AccessSize;
                 WJ.Atomic = XP->Ord == caesium::MemOrder::SeqCst;
                 WJ.Loc = XP->Loc;
                 WJ.KVal = K;
                 return gJudg(std::move(WJ));
               });
             });
           }
           case caesium::ExprKind::BinOp: {
             const caesium::Expr *L = X.Args[0].get();
             const caesium::Expr *Rx = X.Args[1].get();
             const caesium::Expr *XP = &X;
             return exprGoal(L, [XP, Rx, K](TermRef V1, TypeRef T1) {
               return exprGoal(Rx, [XP, V1, T1, K](TermRef V2, TypeRef T2) {
                 Judgment BJ;
                 BJ.K = JudgKind::BinOpJ;
                 BJ.Op = static_cast<int>(XP->Op);
                 BJ.Ity = XP->Ity;
                 BJ.ElemSize = XP->ElemSize;
                 BJ.V1 = V1;
                 BJ.T1 = T1;
                 BJ.V2 = V2;
                 BJ.T2 = T2;
                 BJ.Loc = XP->Loc;
                 BJ.KVal = K;
                 return gJudg(std::move(BJ));
               });
             });
           }
           case caesium::ExprKind::UnOp: {
             const caesium::Expr *A = X.Args[0].get();
             const caesium::Expr *XP = &X;
             return exprGoal(A, [XP, K](TermRef V, TypeRef T) {
               Judgment UJ;
               UJ.K = JudgKind::UnOpJ;
               UJ.Op = static_cast<int>(XP->UOp);
               UJ.Ity = XP->Ity;
               UJ.ToIty = XP->To;
               UJ.V1 = V;
               UJ.T1 = T;
               UJ.Loc = XP->Loc;
               UJ.KVal = K;
               return gJudg(std::move(UJ));
             });
           }
           case caesium::ExprKind::CAS: {
             const caesium::Expr *XP = &X;
             Engine *EP = &E;
             return exprGoal(X.Args[0].get(), [EP, XP, K](TermRef VA,
                                                          TypeRef TA) {
               return exprGoal(XP->Args[1].get(), [EP, XP, VA, TA,
                                                   K](TermRef VE, TypeRef TE) {
                 return exprGoal(XP->Args[2].get(), [EP, XP, VA, TA, VE, TE,
                                                     K](TermRef VD,
                                                        TypeRef TD) -> GoalRef {
                   Engine &E2 = *EP;
                   TermRef LA, LE;
                   if (!addrOfValue(E2, VA, TA, LA, XP->Loc) ||
                       !addrOfValue(E2, VE, TE, LE, XP->Loc))
                     return nullptr;
                   ResAtom AtomSlot, ExpSlot;
                   if (!E2.popLocAtom(LA, XP->AccessSize, AtomSlot, XP->Loc) ||
                       !E2.popLocAtom(LE, XP->AccessSize, ExpSlot, XP->Loc))
                     return nullptr;
                   Judgment CJ;
                   CJ.K = JudgKind::CASJ;
                   CJ.V1 = AtomSlot.Subject;
                   CJ.T1 = AtomSlot.Ty;
                   CJ.V2 = ExpSlot.Subject;
                   CJ.T2 = ExpSlot.Ty;
                   CJ.V3 = VD;
                   CJ.T3 = TD;
                   CJ.AccessSize = XP->AccessSize;
                   CJ.Loc = XP->Loc;
                   CJ.KVal = K;
                   return gJudg(std::move(CJ));
                 });
               });
             });
           }
           case caesium::ExprKind::Call: {
             const caesium::Expr *XP = &X;
             // Evaluate callee, then arguments left to right (CPS fold via
             // the free callArgChain, avoiding self-capturing closures).
             return exprGoal(X.Args[0].get(),
                             [XP, K](TermRef VF, TypeRef TF) -> GoalRef {
                               // The job's arena owns the argument list
                               // the chain's continuations fill.
                               auto *Collect = newNode<std::vector<
                                   std::pair<TermRef, TypeRef>>>();
                               return callArgChain(XP, K, VF, TF, Collect,
                                                   0);
                             });
           }
           }
           E.fail("unsupported expression form", X.Loc);
           return nullptr;
         }});
}

//===----------------------------------------------------------------------===//
// Read rules (typed loads, keyed on the slot's type)
//===----------------------------------------------------------------------===//

void registerReadRules(std::vector<Rule> &R) {
  auto SlotKind = [](Engine &E, const Judgment &J) {
    return peelCtx(E, J.T1)->K;
  };

  R.push_back({"READ-INT", JudgKind::ReadJ, 0,
         [SlotKind](Engine &E, const Judgment &J) {
           TypeKind K = SlotKind(E, J);
           return (K == TypeKind::Int || K == TypeKind::Bool) && !J.Atomic;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef T = stripCtx(E, J.T1);
           if (T->Ity.ByteSize != J.AccessSize) {
             E.fail("load size mismatch: reading " +
                        std::to_string(J.AccessSize) + " bytes from " +
                        T->str(),
                    J.Loc);
             return nullptr;
           }
           TermRef V;
           TypeRef VT = T;
           if (T->Refn) {
             V = T->K == TypeKind::Bool ? mkIte(T->Refn, mkNat(1), mkNat(0))
                                        : T->Refn;
           } else {
             // Unrefined integer slot: introduce a fresh mathematical value
             // and refine both the slot and the read result with it.
             V = E.freshUniversal("v", sortOfInt(T->Ity));
             VT = withRefn(T, V);
           }
           // Integers are copyable: the slot keeps its (now refined) type.
           E.pushAtom(ResAtom::loc(J.V1, VT));
           return J.KVal(V, VT);
         },
         RuleKey::onTy({TypeKind::Int, TypeKind::Bool})});

  R.push_back({"READ-COPY-VALUE", JudgKind::ReadJ, 0,
         [SlotKind](Engine &E, const Judgment &J) {
           TypeKind K = SlotKind(E, J);
           return (K == TypeKind::ValueOf || K == TypeKind::Place ||
                   K == TypeKind::FnPtr || K == TypeKind::Null) &&
                  !J.Atomic;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef T = stripCtx(E, J.T1);
           E.pushAtom(ResAtom::loc(J.V1, T)); // copyable, slot unchanged
           if (T->K == TypeKind::Null)
             return J.KVal(nullTerm(), T);
           TermRef V = T->Refn;
           if (T->K == TypeKind::FnPtr)
             V = mkVar("fn:" + T->Spec->Name, Sort::Loc);
           return J.KVal(V, T);
         },
         RuleKey::onTy({TypeKind::ValueOf, TypeKind::Place,
                        TypeKind::FnPtr, TypeKind::Null})});

  R.push_back({"READ-MOVE", JudgKind::ReadJ, 0,
         [SlotKind](Engine &E, const Judgment &J) {
           TypeKind K = SlotKind(E, J);
           return (K == TypeKind::Own || K == TypeKind::Optional ||
                   K == TypeKind::Named || K == TypeKind::Wand) &&
                  !J.Atomic;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef T = stripCtx(E, J.T1);
           // Moving read: the value takes the ownership; the slot remembers
           // only the value identity.
           TermRef V;
           if (T->K == TypeKind::Own && T->Refn)
             V = T->Refn;
           else
             V = E.freshUniversal("p", Sort::Loc);
           TypeRef VT = T;
           if (T->K == TypeKind::Own)
             VT = withRefn(T, V);
           E.pushAtom(ResAtom::loc(
               J.V1, tyValueOf(V, mkNat(static_cast<int64_t>(J.AccessSize)))));
           return J.KVal(V, VT);
         },
         RuleKey::onTy({TypeKind::Own, TypeKind::Optional,
                        TypeKind::Named, TypeKind::Wand})});

  R.push_back({"READ-UNINIT", JudgKind::ReadJ, 0,
         [SlotKind](Engine &E, const Judgment &J) {
           return SlotKind(E, J) == TypeKind::Uninit;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           E.fail("read of uninitialized memory at " +
                      E.resolve(J.V1)->str(),
                  J.Loc);
           return nullptr;
         },
         RuleKey::onTy({TypeKind::Uninit})});

  R.push_back({"READ-ANY", JudgKind::ReadJ, 0,
         [SlotKind](Engine &E, const Judgment &J) {
           return SlotKind(E, J) == TypeKind::Any && !J.Atomic;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef T = stripCtx(E, J.T1);
           E.pushAtom(ResAtom::loc(J.V1, T));
           TermRef V = E.freshUniversal("v", Sort::Nat);
           return J.KVal(V, tyValueOf(V, T->Size));
         },
         RuleKey::onTy({TypeKind::Any})});

  // Atomic read of an atomic boolean: no resource transfer unless the
  // branch payloads are pure (then the branch split will expose them via
  // the refinement).
  R.push_back({"READ-ATOMICBOOL", JudgKind::ReadJ, 0,
         [SlotKind](Engine &E, const Judgment &J) {
           return SlotKind(E, J) == TypeKind::AtomicBool && J.Atomic;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef T = stripCtx(E, J.T1);
           E.pushAtom(ResAtom::loc(J.V1, T));
           // The read value is some boolean b; if the "true" payload is
           // purely propositional, observing true yields those facts.
           TermRef B = E.freshUniversal("b", Sort::Bool);
           bool AllPure = true;
           for (const ResAtom &A : T->HTrue)
             if (A.K != ResAtom::Pure)
               AllPure = false;
           TermRef Phi = B;
           TypeRef VT = tyBool(T->Ity, Phi);
           if (AllPure && !T->HTrue.empty()) {
             // b -> facts: add implications to Γ.
             for (const ResAtom &A : T->HTrue)
               E.addFact(mkImplies(B, A.Prop));
           }
           return J.KVal(mkIte(Phi, mkNat(1), mkNat(0)), VT);
         },
         RuleKey::onTy({TypeKind::AtomicBool})});
}

//===----------------------------------------------------------------------===//
// Write rules
//===----------------------------------------------------------------------===//

void registerWriteRules(std::vector<Rule> &R) {
  // Generic strong update of a non-atomic slot.
  R.push_back({"WRITE-STRONG", JudgKind::WriteJ, 0,
         [](Engine &E, const Judgment &J) {
           return peelCtx(E, J.T1)->K != TypeKind::AtomicBool && !J.Atomic;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef TV = stripCtx(E, J.T2);
           // Stored places/valueOf carry no ownership: store the identity.
           TypeRef SlotTy = TV;
           if (TV->K == TypeKind::Place)
             SlotTy = tyValueOf(TV->Refn,
                                mkNat(static_cast<int64_t>(J.AccessSize)));
           uint64_t Sz = knownByteSize(SlotTy);
           if (Sz != 0 && Sz != J.AccessSize) {
             E.fail("store size mismatch: value type " + SlotTy->str() +
                        " into a " + std::to_string(J.AccessSize) +
                        "-byte location",
                    J.Loc);
             return nullptr;
           }
           // Movable content keeps its value identity: the slot records the
           // stored value, the ownership parks in a value atom (so a later
           // load recovers both, mirroring ℓ ↦ v ∗ v ◁ τ).
           if (!isCopyable(SlotTy) && SlotTy->K != TypeKind::Uninit &&
               SlotTy->K != TypeKind::Any &&
               SlotTy->K != TypeKind::Struct) {
             TermRef V = E.resolve(J.V2);
             E.pushAtom(ResAtom::val(V, SlotTy));
             E.pushAtom(ResAtom::loc(
                 J.V1,
                 tyValueOf(V, mkNat(static_cast<int64_t>(J.AccessSize)))));
           } else {
             E.pushAtom(ResAtom::loc(J.V1, SlotTy));
           }
           return J.KVal(J.V2, tyValueOf(J.V2, mkNat(static_cast<int64_t>(
                                                    J.AccessSize))));
         },
         RuleKey::onTyNot({TypeKind::AtomicBool})});

  // Atomic store into an atomicbool: hand over the matching payload.
  R.push_back({"WRITE-ATOMICBOOL", JudgKind::WriteJ, 0,
         [](Engine &E, const Judgment &J) {
           return peelCtx(E, J.T1)->K == TypeKind::AtomicBool && J.Atomic;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef TL = stripCtx(E, J.T1);
           TermRef Phi = boolPropOf(stripCtx(E, J.T2));
           if (!Phi) {
             E.fail("atomic store of a non-boolean value into an "
                    "atomicbool",
                    J.Loc);
             return nullptr;
           }
           // The slot persists; prove the payload for the stored branch.
           E.pushAtom(ResAtom::loc(J.V1, TL));
           GoalRef K = J.KVal(J.V2, stripCtx(E, J.T2));
           ResList NeedT = TL->HTrue;
           ResList NeedF = TL->HFalse;
           return gConj(
               gWand({ResAtom::pure(Phi)}, gStar(NeedT, K)),
               gWand({ResAtom::pure(mkNot(Phi))}, gStar(NeedF, K)));
         },
         RuleKey::onTy({TypeKind::AtomicBool})});
}

//===----------------------------------------------------------------------===//
// CAS (Figure 6, CAS-BOOL)
//===----------------------------------------------------------------------===//

void registerCasRules(std::vector<Rule> &R) {
  R.push_back({"CAS-BOOL", JudgKind::CASJ, 0,
         [](Engine &E, const Judgment &J) {
           return peelCtx(E, J.T1)->K == TypeKind::AtomicBool;
         },
         [](Engine &E, const Judgment &J) -> GoalRef {
           TypeRef TA = stripCtx(E, J.T1); // atomicbool
           TermRef B1 = boolPropOf(stripCtx(E, J.T2));
           TermRef B2 = boolPropOf(stripCtx(E, J.T3));
           if (!B1 || !B2) {
             E.fail("CAS operands must carry boolean refinements", J.Loc);
             return nullptr;
           }
           // The atomic location persists across the CAS.
           E.pushAtom(ResAtom::loc(J.V1, TA));

           // Failure: the expected slot now holds ¬b1; result is false.
           ResAtom ExpFlip =
               ResAtom::loc(J.V2, tyBool(caesium::IntType{
                                             static_cast<uint8_t>(
                                                 J.AccessSize),
                                             false},
                                         mkNot(B1)));
           GoalRef FailK =
               gWand({ExpFlip},
                     J.KVal(mkNat(0), tyBool(caesium::intI32(), mkFalse())));

           // Success: we receive H_{b1} and must provide H_{b2}; the
           // expected slot keeps b1; result is true. The branch payloads
           // must be statically determined (b1, b2 constant), which is the
           // case for lock-style clients (CAS(false -> true)).
           auto ConstBool = [&E](TermRef Phi) -> int {
             TermRef R = E.resolve(Phi);
             if (R->isTrue())
               return 1;
             if (R->isFalse())
               return 0;
             return -1;
           };
           int B1C = ConstBool(B1), B2C = ConstBool(B2);
           if (B1C < 0 || B2C < 0) {
             E.fail("CAS on an atomicbool needs statically-known expected "
                    "and desired values",
                    J.Loc);
             return nullptr;
           }
           ResList Recv = B1C ? TA->HTrue : TA->HFalse;
           ResList Give = B2C ? TA->HTrue : TA->HFalse;
           ResAtom ExpKeep =
               ResAtom::loc(J.V2, tyBool(caesium::IntType{
                                             static_cast<uint8_t>(
                                                 J.AccessSize),
                                             false},
                                         B1));
           GoalRef SuccK = gWand(
               Recv,
               gWand({ExpKeep},
                     gStar(Give, J.KVal(mkNat(1),
                                        tyBool(caesium::intI32(),
                                               mkTrue())))));
           return gConj(FailK, SuccK);
         },
         RuleKey::onTy({TypeKind::AtomicBool})});
}

} // namespace

// Placed out of line so the rule lambdas above can use it.
namespace rcc::refinedc {
namespace detail {}
} // namespace rcc::refinedc

//===----------------------------------------------------------------------===//
// Registration entry point (binop/unop/call/subsume rules are registered
// from RulesSubsume.cpp via registerStandardRules).
//===----------------------------------------------------------------------===//

namespace rcc::refinedc {
void registerOpRules(std::vector<lithium::Rule> &R);      // RulesOps.cpp
void registerSubsumeRules(std::vector<lithium::Rule> &R); // RulesSubsume.cpp

void registerStandardRules(lithium::RuleRegistry &Registry) {
  std::vector<lithium::Rule> R;
  registerStmtRules(R);
  registerExprRules(R);
  registerReadRules(R);
  registerWriteRules(R);
  registerCasRules(R);
  registerOpRules(R);
  registerSubsumeRules(R);
  Registry.add(std::move(R));
}

const lithium::RuleRegistry &standardRules() {
  // Built on first use; C++ makes that initialization thread-safe, and
  // nothing writes to the library after it.
  static const lithium::RuleRegistry Library = [] {
    lithium::RuleRegistry R;
    registerStandardRules(R);
    return R;
  }();
  return Library;
}
} // namespace rcc::refinedc
