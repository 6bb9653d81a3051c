//===- Lower.cpp - Type-check and lower annotated C to Caesium ------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Elaborates the C AST: resolves types, computes struct layouts, performs
/// the usual arithmetic conversions (inserting explicit Caesium casts), and
/// lowers statements into the CFG representation with a fixed left-to-right
/// evaluation order (Section 3: Caesium fixes evaluation order, so the
/// non-determinism of C expression evaluation is resolved here, with
/// short-circuit operators lowered to control flow through temporaries).
///
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"
#include "frontend/Parser.h"
#include "support/ThreadPool.h"
#include "support/Util.h"
#include "trace/Trace.h"

#include <unordered_map>

using namespace rcc::front;
using namespace rcc::caesium;

void rcc::front::forEachFunction(size_t N, unsigned Phase,
                                 const std::function<void(size_t)> &Body) {
  if (N < kPoolMinFunctions) {
    for (size_t I = 0; I < N; ++I)
      Body(I);
    return;
  }
  // The verification driver's jobs trace on lanes derived from the root
  // lane; a lane of their own keeps this phase's jobs apart from them in
  // deterministic exports.
  trace::LaneScope Lanes(trace::LaneScope::reserved(Phase));
  ThreadPool Pool(0);
  Pool.parallelFor(N, Body);
}

namespace {

struct LocalVar {
  std::string SlotName; ///< possibly uniqued Caesium slot name
  CTypePtr Ty;
};

/// The unit-level tables function bodies are lowered against. They are
/// filled serially, in declaration order, and only read while bodies are
/// lowered.
struct UnitTables {
  const AnnotatedProgram *AP = nullptr;
  std::map<std::string, CTypePtr> FuncTypes;   ///< name -> Func type
  std::map<std::string, CTypePtr> GlobalTypes; ///< name -> object type
};

/// What one definition's task produces besides its FnInfo: its Caesium
/// function and its diagnostics.
struct BodySlot {
  std::unique_ptr<Function> Fn;
  rcc::DiagnosticEngine ParseDiags; ///< the parse's (warnings only)
  rcc::DiagnosticEngine Diags;      ///< lowering's
  bool ParseFailed = false;
};

/// Lowers against read-only unit tables. One instance lowers one function
/// body into its own slot, so bodies can be lowered concurrently.
class Lowerer {
public:
  Lowerer(const UnitTables &U, rcc::DiagnosticEngine &Diags)
      : Diags(Diags), AP(U.AP), FuncTypes(U.FuncTypes),
        GlobalTypes(U.GlobalTypes) {}

  /// Lowers \p FD, which has a body, into \p Fn, and records its locals'
  /// types and its loop annotations in \p Info. Call at most once per
  /// instance.
  void lowerFunction(const CFuncDecl &FD, std::unique_ptr<Function> &Fn,
                     FnInfo &Info);

  Layout typeLayout(CTypePtr T, rcc::SourceLoc Loc);
  uint64_t typeSize(CTypePtr T, rcc::SourceLoc Loc) {
    return typeLayout(T, Loc).Size;
  }

private:
  // --- Tables ---
  rcc::DiagnosticEngine &Diags;
  const AnnotatedProgram *AP;
  const std::map<std::string, CTypePtr> &FuncTypes;
  const std::map<std::string, CTypePtr> &GlobalTypes;

  // --- Per-function state ---
  Function *F = nullptr;
  FnInfo *Out = nullptr;
  CTypePtr RetTy;
  std::vector<std::map<std::string, LocalVar>> Scopes;
  unsigned CurBlock = 0;
  bool Terminated = false;
  std::vector<std::pair<unsigned, unsigned>> LoopStack; ///< (continue, break)
  std::map<std::string, unsigned> Labels;
  unsigned TempCounter = 0;
  std::map<std::string, unsigned> NameCounts;

  // --- Type utilities ---
  uint64_t pointeeSize(CTypePtr PtrTy, rcc::SourceLoc Loc);
  CTypePtr usualArith(CTypePtr A, CTypePtr B);

  // --- CFG helpers ---
  unsigned newBlock() {
    F->Blocks.emplace_back();
    return static_cast<unsigned>(F->Blocks.size() - 1);
  }
  void append(Stmt S) {
    if (Terminated)
      return; // dead code after a terminator
    F->Blocks[CurBlock].Stmts.push_back(std::move(S));
  }
  void terminateGoto(unsigned Target) {
    if (Terminated)
      return;
    Stmt S;
    S.K = StmtKind::Goto;
    S.Target1 = Target;
    F->Blocks[CurBlock].Stmts.push_back(std::move(S));
    Terminated = true;
  }
  void terminateCond(ExprPtr Cond, unsigned Then, unsigned Else,
                     rcc::SourceLoc Loc) {
    if (Terminated)
      return;
    Stmt S;
    S.K = StmtKind::CondGoto;
    S.E = std::move(Cond);
    S.Target1 = Then;
    S.Target2 = Else;
    S.Loc = Loc;
    F->Blocks[CurBlock].Stmts.push_back(std::move(S));
    Terminated = true;
  }
  void terminateReturn(ExprPtr V, rcc::SourceLoc Loc) {
    if (Terminated)
      return;
    Stmt S;
    S.K = StmtKind::Return;
    S.E = std::move(V);
    S.Loc = Loc;
    F->Blocks[CurBlock].Stmts.push_back(std::move(S));
    Terminated = true;
  }
  void switchTo(unsigned B) {
    CurBlock = B;
    Terminated = false;
  }

  // --- Scope helpers ---
  const LocalVar *lookupLocal(const std::string &Name) {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
      auto F2 = It->find(Name);
      if (F2 != It->end())
        return &F2->second;
    }
    return nullptr;
  }
  std::string declareLocal(const std::string &Name, CTypePtr Ty,
                           rcc::SourceLoc Loc) {
    unsigned N = NameCounts[Name]++;
    std::string Slot = N == 0 ? Name : Name + "$" + std::to_string(N);
    F->Locals.push_back({Slot, typeSize(Ty, Loc)});
    Scopes.back()[Name] = {Slot, Ty};
    Out->LocalTypes[Slot] = Ty;
    return Slot;
  }
  std::string newTemp(CTypePtr Ty, rcc::SourceLoc Loc) {
    std::string Slot = "$t" + std::to_string(TempCounter++);
    F->Locals.push_back({Slot, typeSize(Ty, Loc)});
    Out->LocalTypes[Slot] = Ty;
    return Slot;
  }

  // --- Lowering ---
  struct RV {
    ExprPtr E;
    CTypePtr Ty;
  };
  RV rval(const CExpr &E);
  RV lval(const CExpr &E); ///< E lowers to an *address*; Ty is the object type
  ExprPtr rvalAs(const CExpr &E, CTypePtr Target);
  ExprPtr convert(ExprPtr E, CTypePtr From, CTypePtr To, rcc::SourceLoc Loc);
  ExprPtr condition(const CExpr &E); ///< integer (or pointer-null) test
  RV lowerShortCircuit(const CExpr &E);
  RV lowerConditional(const CExpr &E);
  RV lowerCall(const CExpr &E);
  RV lowerAssignLike(const CExpr &E);

  void lowerStmt(const CStmt &S);
  unsigned labelBlock(const std::string &Name) {
    auto It = Labels.find(Name);
    if (It != Labels.end())
      return It->second;
    unsigned B = newBlock();
    Labels[Name] = B;
    return B;
  }

  RV errorRV(rcc::SourceLoc Loc, const std::string &Msg) {
    Diags.error(Loc, Msg);
    return {mkConstInt(intI32(), 0, Loc), ctInt(intI32())};
  }
};

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

Layout Lowerer::typeLayout(CTypePtr T, rcc::SourceLoc Loc) {
  switch (T->K) {
  case CTypeKind::Void:
    return {0, 1};
  case CTypeKind::Int:
    return layoutOfInt(T->Ity);
  case CTypeKind::Pointer:
    return layoutOfPtr();
  case CTypeKind::Struct: {
    const StructInfo *SI = AP->structInfo(T->StructName);
    if (!SI) {
      Diags.error(Loc, "use of undefined struct '" + T->StructName + "'");
      return {1, 1};
    }
    return {SI->Layout.Size, SI->Layout.Align};
  }
  case CTypeKind::Array: {
    Layout E = typeLayout(T->Pointee, Loc);
    return {E.Size * T->ArrayLen, E.Align};
  }
  case CTypeKind::Func:
    Diags.error(Loc, "function types have no object layout");
    return {1, 1};
  }
  return {1, 1};
}

uint64_t Lowerer::pointeeSize(CTypePtr PtrTy, rcc::SourceLoc Loc) {
  assert(PtrTy->isPointer() && "pointeeSize on non-pointer");
  CTypePtr P = PtrTy->Pointee;
  if (P->isVoid() || P->isFunc())
    return 1;
  return typeSize(P, Loc);
}

CTypePtr Lowerer::usualArith(CTypePtr A, CTypePtr B) {
  if (!A->isInt() || !B->isInt())
    return A->isInt() ? A : B;
  IntType IA = A->Ity, IB = B->Ity;
  // Integer promotion to at least int.
  auto Promote = [](IntType I) {
    return I.ByteSize < 4 ? intI32() : I;
  };
  IA = Promote(IA);
  IB = Promote(IB);
  if (IA.ByteSize == IB.ByteSize)
    return ctInt(IntType{IA.ByteSize, IA.Signed && IB.Signed});
  return ctInt(IA.ByteSize > IB.ByteSize ? IA : IB);
}

ExprPtr Lowerer::convert(ExprPtr E, CTypePtr From, CTypePtr To,
                         rcc::SourceLoc Loc) {
  if (From->isInt() && To->isInt()) {
    if (From->Ity == To->Ity)
      return E;
    return mkCast(From->Ity, To->Ity, std::move(E), Loc);
  }
  // Pointer conversions (incl. array decay handled by callers) are identity.
  return E;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

Lowerer::RV Lowerer::lval(const CExpr &E) {
  switch (E.K) {
  case CExprKind::Ident: {
    if (const LocalVar *LV = lookupLocal(E.Name))
      return {mkAddrLocal(LV->SlotName, E.Loc), LV->Ty};
    auto GI = GlobalTypes.find(E.Name);
    if (GI != GlobalTypes.end())
      return {mkAddrGlobal(E.Name, E.Loc), GI->second};
    return errorRV(E.Loc, "use of undeclared identifier '" + E.Name + "'");
  }
  case CExprKind::Deref: {
    RV P = rval(*E.Kids[0]);
    if (!P.Ty->isPointer())
      return errorRV(E.Loc, "dereference of non-pointer");
    return {std::move(P.E), P.Ty->Pointee};
  }
  case CExprKind::Member: {
    RV Base;
    CTypePtr StructTy;
    if (E.IsArrow) {
      Base = rval(*E.Kids[0]);
      if (!Base.Ty->isPointer() || !Base.Ty->Pointee->isStruct())
        return errorRV(E.Loc, "'->' applied to non-struct-pointer");
      StructTy = Base.Ty->Pointee;
    } else {
      Base = lval(*E.Kids[0]);
      if (!Base.Ty->isStruct())
        return errorRV(E.Loc, "'.' applied to non-struct");
      StructTy = Base.Ty;
    }
    const StructInfo *SI = AP->structInfo(StructTy->StructName);
    if (!SI)
      return errorRV(E.Loc, "undefined struct '" + StructTy->StructName + "'");
    const FieldLayout *FL = SI->Layout.field(E.Name);
    if (!FL)
      return errorRV(E.Loc, "no field '" + E.Name + "' in struct " +
                                StructTy->StructName);
    CTypePtr FieldTy;
    for (const CStructField &CF : SI->Fields)
      if (CF.Name == E.Name)
        FieldTy = CF.Ty;
    ExprPtr Addr = mkPtrOp(BinOpKind::PtrAdd, 1, std::move(Base.E),
                           mkConstInt(intU64(), FL->Offset, E.Loc), E.Loc);
    return {std::move(Addr), FieldTy};
  }
  case CExprKind::Index: {
    RV Base;
    CTypePtr ElemTy;
    const CExpr &B = *E.Kids[0];
    // Arrays used as lvalues index in place; pointers load first.
    RV Probe = B.K == CExprKind::Ident && lookupLocal(B.Name) &&
                       lookupLocal(B.Name)->Ty->isArray()
                   ? lval(B)
                   : rval(B);
    if (Probe.Ty->isArray()) {
      ElemTy = Probe.Ty->Pointee;
    } else if (Probe.Ty->isPointer()) {
      ElemTy = Probe.Ty->Pointee;
    } else {
      return errorRV(E.Loc, "subscript of non-pointer");
    }
    ExprPtr Idx = rvalAs(*E.Kids[1], ctInt(intU64()));
    ExprPtr Addr =
        mkPtrOp(BinOpKind::PtrAdd, typeSize(ElemTy, E.Loc),
                std::move(Probe.E), std::move(Idx), E.Loc);
    return {std::move(Addr), ElemTy};
  }
  default:
    return errorRV(E.Loc, "expression is not an lvalue");
  }
}

ExprPtr Lowerer::rvalAs(const CExpr &E, CTypePtr Target) {
  // Literals take the target type directly.
  if (E.K == CExprKind::IntLit && Target->isInt())
    return mkConstInt(Target->Ity, static_cast<int64_t>(E.IntVal), E.Loc);
  if (E.K == CExprKind::Null && Target->isPointer())
    return mkNullPtr(E.Loc);
  if (E.K == CExprKind::IntLit && E.IntVal == 0 && Target->isPointer())
    return mkNullPtr(E.Loc);
  RV V = rval(E);
  return convert(std::move(V.E), V.Ty, Target, E.Loc);
}

ExprPtr Lowerer::condition(const CExpr &E) {
  RV V = rval(E);
  if (V.Ty->isPointer()) {
    // `if (p)` tests non-nullness.
    return mkPtrOp(BinOpKind::PtrNe, 1, std::move(V.E), mkNullPtr(E.Loc),
                   E.Loc);
  }
  return std::move(V.E);
}

Lowerer::RV Lowerer::lowerShortCircuit(const CExpr &E) {
  bool IsAnd = E.OpText == "&&";
  std::string T = newTemp(ctInt(intI32()), E.Loc);
  unsigned RhsB = newBlock(), ShortB = newBlock(), JoinB = newBlock();
  ExprPtr C1 = condition(*E.Kids[0]);
  if (IsAnd)
    terminateCond(std::move(C1), RhsB, ShortB, E.Loc);
  else
    terminateCond(std::move(C1), ShortB, RhsB, E.Loc);

  switchTo(RhsB);
  ExprPtr C2 = condition(*E.Kids[1]);
  // Normalize to 0/1.
  ExprPtr Norm =
      mkBinOp(BinOpKind::NeOp, intI32(), std::move(C2),
              mkConstInt(intI32(), 0, E.Loc), E.Loc);
  Stmt S1;
  S1.K = StmtKind::ExprS;
  S1.E = mkStore(4, mkAddrLocal(T, E.Loc), std::move(Norm), MemOrder::NonAtomic,
                 E.Loc);
  append(std::move(S1));
  terminateGoto(JoinB);

  switchTo(ShortB);
  Stmt S2;
  S2.K = StmtKind::ExprS;
  S2.E = mkStore(4, mkAddrLocal(T, E.Loc),
                 mkConstInt(intI32(), IsAnd ? 0 : 1, E.Loc),
                 MemOrder::NonAtomic, E.Loc);
  append(std::move(S2));
  terminateGoto(JoinB);

  switchTo(JoinB);
  return {mkUse(4, mkAddrLocal(T, E.Loc), MemOrder::NonAtomic, E.Loc),
          ctInt(intI32())};
}

Lowerer::RV Lowerer::lowerConditional(const CExpr &E) {
  // Determine the common type by lowering both arms into branch blocks.
  unsigned ThenB = newBlock(), ElseB = newBlock(), JoinB = newBlock();
  ExprPtr C = condition(*E.Kids[0]);
  terminateCond(std::move(C), ThenB, ElseB, E.Loc);

  // Lower each arm once; an arm may itself create blocks (nested ?:, &&),
  // so remember where its evaluation *ends* — the store continues there.
  switchTo(ThenB);
  RV TV = rval(*E.Kids[1]);
  CTypePtr ThenTy = TV.Ty;
  unsigned ThenEnd = CurBlock;
  switchTo(ElseB);
  RV EV = rval(*E.Kids[2]);
  CTypePtr ElseTy = EV.Ty;
  unsigned ElseEnd = CurBlock;
  CTypePtr Common = ThenTy->isPointer() ? ThenTy
                    : ElseTy->isPointer() ? ElseTy
                                          : usualArith(ThenTy, ElseTy);
  std::string T = newTemp(Common, E.Loc);
  uint64_t Size = typeSize(Common, E.Loc);

  switchTo(ThenEnd);
  Stmt S1;
  S1.K = StmtKind::ExprS;
  S1.E = mkStore(Size, mkAddrLocal(T, E.Loc),
                 convert(std::move(TV.E), ThenTy, Common, E.Loc),
                 MemOrder::NonAtomic, E.Loc);
  append(std::move(S1));
  terminateGoto(JoinB);

  switchTo(ElseEnd);
  Stmt S2;
  S2.K = StmtKind::ExprS;
  S2.E = mkStore(Size, mkAddrLocal(T, E.Loc),
                 convert(std::move(EV.E), ElseTy, Common, E.Loc),
                 MemOrder::NonAtomic, E.Loc);
  append(std::move(S2));
  terminateGoto(JoinB);

  switchTo(JoinB);
  return {mkUse(Size, mkAddrLocal(T, E.Loc), MemOrder::NonAtomic, E.Loc),
          Common};
}

Lowerer::RV Lowerer::lowerCall(const CExpr &E) {
  const CExpr &Callee = *E.Kids[0];

  // Atomic builtins lower to dedicated Caesium operations.
  if (Callee.K == CExprKind::Ident) {
    const std::string &N = Callee.Name;
    if (N == "atomic_load") {
      if (E.Kids.size() != 2)
        return errorRV(E.Loc, "atomic_load expects one argument");
      RV P = rval(*E.Kids[1]);
      if (!P.Ty->isPointer() || !P.Ty->Pointee->isInt())
        return errorRV(E.Loc, "atomic_load expects an integer pointer");
      uint64_t Sz = typeSize(P.Ty->Pointee, E.Loc);
      return {mkUse(Sz, std::move(P.E), MemOrder::SeqCst, E.Loc),
              P.Ty->Pointee};
    }
    if (N == "atomic_store") {
      if (E.Kids.size() != 3)
        return errorRV(E.Loc, "atomic_store expects two arguments");
      RV P = rval(*E.Kids[1]);
      if (!P.Ty->isPointer() || !P.Ty->Pointee->isInt())
        return errorRV(E.Loc, "atomic_store expects an integer pointer");
      uint64_t Sz = typeSize(P.Ty->Pointee, E.Loc);
      ExprPtr V = rvalAs(*E.Kids[2], P.Ty->Pointee);
      return {mkStore(Sz, std::move(P.E), std::move(V), MemOrder::SeqCst,
                      E.Loc),
              ctVoid()};
    }
    if (N == "atomic_compare_exchange_strong") {
      if (E.Kids.size() != 4)
        return errorRV(E.Loc, "CAS expects three arguments");
      RV A = rval(*E.Kids[1]);
      RV X = rval(*E.Kids[2]);
      if (!A.Ty->isPointer() || !A.Ty->Pointee->isInt() || !X.Ty->isPointer())
        return errorRV(E.Loc, "CAS expects integer pointers");
      uint64_t Sz = typeSize(A.Ty->Pointee, E.Loc);
      ExprPtr D = rvalAs(*E.Kids[3], A.Ty->Pointee);
      return {mkCAS(Sz, std::move(A.E), std::move(X.E), std::move(D), E.Loc),
              ctInt(intI32())};
    }
  }

  // Resolve the callee function type.
  ExprPtr CalleeE;
  CTypePtr FnTy;
  if (Callee.K == CExprKind::Ident && !lookupLocal(Callee.Name)) {
    auto It = FuncTypes.find(Callee.Name);
    if (It != FuncTypes.end()) {
      CalleeE = mkAddrGlobal(Callee.Name, E.Loc);
      FnTy = It->second;
    } else {
      // Built-in runtime helpers.
      static const std::map<std::string, std::pair<const char *, int>> Bs = {
          {"rc_spawn", {"int", 2}},  {"rc_join", {"int", 1}},
          {"rc_alloc", {"ptr", 1}},  {"rc_free", {"void", 1}},
          {"rc_assert", {"void", 1}}};
      auto BIt = Bs.find(Callee.Name);
      if (BIt == Bs.end())
        return errorRV(E.Loc, "call to undeclared function '" + Callee.Name +
                                  "'");
      std::vector<ExprPtr> Args;
      for (size_t I = 1; I < E.Kids.size(); ++I) {
        // Builtins take naturally-typed arguments; size-sensitive ones are
        // normalized below.
        if (Callee.Name == "rc_alloc")
          Args.push_back(rvalAs(*E.Kids[I], ctInt(intU64())));
        else if (Callee.Name == "rc_join" || Callee.Name == "rc_assert")
          Args.push_back(rvalAs(*E.Kids[I], ctInt(intI32())));
        else {
          RV V = rval(*E.Kids[I]);
          Args.push_back(std::move(V.E));
        }
      }
      CTypePtr Ret = BIt->second.first == std::string("int")
                         ? ctInt(intI32())
                     : BIt->second.first == std::string("ptr")
                         ? ctPtr(ctVoid())
                         : ctVoid();
      return {mkCall(mkAddrGlobal(Callee.Name, E.Loc), std::move(Args),
                     E.Loc),
              Ret};
    }
  } else {
    RV CV = rval(Callee);
    if (CV.Ty->isPointer() && CV.Ty->Pointee->isFunc())
      FnTy = CV.Ty->Pointee;
    else if (CV.Ty->isFunc())
      FnTy = CV.Ty;
    else
      return errorRV(E.Loc, "called object is not a function");
    CalleeE = std::move(CV.E);
  }

  std::vector<ExprPtr> Args;
  size_t NParams = FnTy->Params.size();
  if (E.Kids.size() - 1 != NParams)
    return errorRV(E.Loc, "wrong number of arguments in call");
  for (size_t I = 0; I < NParams; ++I)
    Args.push_back(rvalAs(*E.Kids[I + 1], FnTy->Params[I]));
  return {mkCall(std::move(CalleeE), std::move(Args), E.Loc), FnTy->Ret};
}

Lowerer::RV Lowerer::lowerAssignLike(const CExpr &E) {
  RV L = lval(*E.Kids[0]);
  CTypePtr Ty = L.Ty;
  uint64_t Size = typeSize(Ty, E.Loc);
  if (Ty->isStruct())
    return errorRV(E.Loc, "struct assignment is not supported");

  if (E.K == CExprKind::Assign) {
    ExprPtr V = rvalAs(*E.Kids[1], Ty);
    return {mkStore(Size, std::move(L.E), std::move(V), MemOrder::NonAtomic,
                    E.Loc),
            Ty};
  }

  // Compound assignment / inc-dec: reload through a re-lowered address (the
  // address expressions in our subset are side-effect free).
  auto Reload = [&]() {
    RV L2 = lval(*E.Kids[0]);
    return mkUse(Size, std::move(L2.E), MemOrder::NonAtomic, E.Loc);
  };

  ExprPtr NewVal;
  if (E.K == CExprKind::IncDec) {
    if (Ty->isPointer()) {
      NewVal = mkPtrOp(E.IsDecrement ? BinOpKind::PtrSub : BinOpKind::PtrAdd,
                       pointeeSize(Ty, E.Loc), Reload(),
                       mkConstInt(intU64(), 1, E.Loc), E.Loc);
    } else {
      NewVal = mkBinOp(E.IsDecrement ? BinOpKind::Sub : BinOpKind::Add,
                       Ty->Ity, Reload(),
                       mkConstInt(Ty->Ity, 1, E.Loc), E.Loc);
    }
  } else {
    const std::string &Op = E.OpText;
    if (Ty->isPointer() && (Op == "+" || Op == "-")) {
      ExprPtr R = rvalAs(*E.Kids[1], ctInt(intU64()));
      NewVal = mkPtrOp(Op == "+" ? BinOpKind::PtrAdd : BinOpKind::PtrSub,
                       pointeeSize(Ty, E.Loc), Reload(), std::move(R), E.Loc);
    } else if (Ty->isInt()) {
      BinOpKind K = Op == "+"    ? BinOpKind::Add
                    : Op == "-"  ? BinOpKind::Sub
                    : Op == "*"  ? BinOpKind::Mul
                    : Op == "/"  ? BinOpKind::Div
                    : Op == "%"  ? BinOpKind::Mod
                    : Op == "&"  ? BinOpKind::BitAnd
                    : Op == "|"  ? BinOpKind::BitOr
                    : Op == "^"  ? BinOpKind::BitXor
                    : Op == "<<" ? BinOpKind::Shl
                                 : BinOpKind::Shr;
      ExprPtr R = rvalAs(*E.Kids[1], Ty);
      NewVal = mkBinOp(K, Ty->Ity, Reload(), std::move(R), E.Loc);
    } else {
      return errorRV(E.Loc, "invalid compound assignment");
    }
  }
  return {mkStore(Size, std::move(L.E), std::move(NewVal),
                  MemOrder::NonAtomic, E.Loc),
          Ty};
}

Lowerer::RV Lowerer::rval(const CExpr &E) {
  switch (E.K) {
  case CExprKind::IntLit: {
    // Literals default to int; wide literals widen.
    IntType Ity = E.IntVal <= INT32_MAX ? intI32() : intU64();
    return {mkConstInt(Ity, static_cast<int64_t>(E.IntVal), E.Loc),
            ctInt(Ity)};
  }
  case CExprKind::Null:
    return {mkNullPtr(E.Loc), ctPtr(ctVoid())};
  case CExprKind::Ident: {
    if (const LocalVar *LV = lookupLocal(E.Name)) {
      if (LV->Ty->isArray())
        return {mkAddrLocal(LV->SlotName, E.Loc), ctPtr(LV->Ty->Pointee)};
      return {mkUse(typeSize(LV->Ty, E.Loc), mkAddrLocal(LV->SlotName, E.Loc),
                    MemOrder::NonAtomic, E.Loc),
              LV->Ty};
    }
    auto GI = GlobalTypes.find(E.Name);
    if (GI != GlobalTypes.end()) {
      if (GI->second->isArray())
        return {mkAddrGlobal(E.Name, E.Loc), ctPtr(GI->second->Pointee)};
      return {mkUse(typeSize(GI->second, E.Loc), mkAddrGlobal(E.Name, E.Loc),
                    MemOrder::NonAtomic, E.Loc),
              GI->second};
    }
    auto FT = FuncTypes.find(E.Name);
    if (FT != FuncTypes.end())
      return {mkAddrGlobal(E.Name, E.Loc), ctPtr(FT->second)};
    return errorRV(E.Loc, "use of undeclared identifier '" + E.Name + "'");
  }
  case CExprKind::Deref:
  case CExprKind::Member:
  case CExprKind::Index: {
    RV L = lval(E);
    if (L.Ty->isStruct())
      return errorRV(E.Loc, "struct values cannot be loaded directly");
    if (L.Ty->isArray())
      return {std::move(L.E), ctPtr(L.Ty->Pointee)};
    return {mkUse(typeSize(L.Ty, E.Loc), std::move(L.E),
                  MemOrder::NonAtomic, E.Loc),
            L.Ty};
  }
  case CExprKind::AddrOf: {
    const CExpr &Sub = *E.Kids[0];
    // &function-name yields a function pointer.
    if (Sub.K == CExprKind::Ident && !lookupLocal(Sub.Name) &&
        FuncTypes.count(Sub.Name))
      return {mkAddrGlobal(Sub.Name, E.Loc), ctPtr(FuncTypes.at(Sub.Name))};
    RV L = lval(Sub);
    return {std::move(L.E), ctPtr(L.Ty)};
  }
  case CExprKind::Unary: {
    if (E.OpText == "!") {
      RV V = rval(*E.Kids[0]);
      if (V.Ty->isPointer())
        return {mkPtrOp(BinOpKind::PtrEq, 1, std::move(V.E),
                        mkNullPtr(E.Loc), E.Loc),
                ctInt(intI32())};
      return {mkUnOp(UnOpKind::LogicalNot,
                     V.Ty->isInt() ? V.Ty->Ity : intI32(), std::move(V.E),
                     E.Loc),
              ctInt(intI32())};
    }
    CTypePtr Promoted = usualArith(ctInt(intI32()), ctInt(intI32()));
    RV V = rval(*E.Kids[0]);
    if (!V.Ty->isInt())
      return errorRV(E.Loc, "arithmetic unary operator on non-integer");
    CTypePtr Ty = usualArith(V.Ty, Promoted);
    ExprPtr Op = convert(std::move(V.E), V.Ty, Ty, E.Loc);
    if (E.OpText == "-")
      return {mkUnOp(UnOpKind::Neg, Ty->Ity, std::move(Op), E.Loc), Ty};
    return {mkUnOp(UnOpKind::BitNot, Ty->Ity, std::move(Op), E.Loc), Ty};
  }
  case CExprKind::Binary: {
    const std::string &Op = E.OpText;
    if (Op == "&&" || Op == "||")
      return lowerShortCircuit(E);

    RV L = rval(*E.Kids[0]);
    // Pointer arithmetic / comparison.
    if (L.Ty->isPointer() || E.Kids[1]->K == CExprKind::Null) {
      if (Op == "+" || Op == "-") {
        RV R = rval(*E.Kids[1]);
        if (R.Ty->isPointer()) {
          if (Op != "-")
            return errorRV(E.Loc, "invalid pointer addition");
          return {mkPtrOp(BinOpKind::PtrDiff, pointeeSize(L.Ty, E.Loc),
                          std::move(L.E), std::move(R.E), E.Loc),
                  ctInt(intI64())};
        }
        ExprPtr RI = convert(std::move(R.E), R.Ty, ctInt(intU64()), E.Loc);
        return {mkPtrOp(Op == "+" ? BinOpKind::PtrAdd : BinOpKind::PtrSub,
                        pointeeSize(L.Ty, E.Loc), std::move(L.E),
                        std::move(RI), E.Loc),
                L.Ty};
      }
      if (Op == "==" || Op == "!=") {
        ExprPtr RP = E.Kids[1]->K == CExprKind::Null
                         ? mkNullPtr(E.Loc)
                         : rval(*E.Kids[1]).E;
        ExprPtr LP = L.Ty->isPointer() ? std::move(L.E) : mkNullPtr(E.Loc);
        return {mkPtrOp(Op == "==" ? BinOpKind::PtrEq : BinOpKind::PtrNe, 1,
                        std::move(LP), std::move(RP), E.Loc),
                ctInt(intI32())};
      }
    }
    // int + ptr.
    if (Op == "+" && L.Ty->isInt()) {
      // Peek: is the rhs a pointer?
      RV R = rval(*E.Kids[1]);
      if (R.Ty->isPointer()) {
        ExprPtr LI = convert(std::move(L.E), L.Ty, ctInt(intU64()), E.Loc);
        return {mkPtrOp(BinOpKind::PtrAdd, pointeeSize(R.Ty, E.Loc),
                        std::move(R.E), std::move(LI), E.Loc),
                R.Ty};
      }
      CTypePtr Ty = usualArith(L.Ty, R.Ty);
      return {mkBinOp(BinOpKind::Add, Ty->Ity,
                      convert(std::move(L.E), L.Ty, Ty, E.Loc),
                      convert(std::move(R.E), R.Ty, Ty, E.Loc), E.Loc),
              Ty};
    }

    RV R = rval(*E.Kids[1]);
    if (!L.Ty->isInt() || !R.Ty->isInt())
      return errorRV(E.Loc, "invalid operands to binary '" + Op + "'");
    CTypePtr Ty = usualArith(L.Ty, R.Ty);
    ExprPtr LC = convert(std::move(L.E), L.Ty, Ty, E.Loc);
    ExprPtr RC = convert(std::move(R.E), R.Ty, Ty, E.Loc);
    struct OpMap {
      const char *Text;
      BinOpKind K;
      bool Cmp;
    };
    static const OpMap Ops[] = {
        {"+", BinOpKind::Add, false},   {"-", BinOpKind::Sub, false},
        {"*", BinOpKind::Mul, false},   {"/", BinOpKind::Div, false},
        {"%", BinOpKind::Mod, false},   {"&", BinOpKind::BitAnd, false},
        {"|", BinOpKind::BitOr, false}, {"^", BinOpKind::BitXor, false},
        {"<<", BinOpKind::Shl, false},  {">>", BinOpKind::Shr, false},
        {"==", BinOpKind::EqOp, true},  {"!=", BinOpKind::NeOp, true},
        {"<", BinOpKind::LtOp, true},   {"<=", BinOpKind::LeOp, true},
        {">", BinOpKind::GtOp, true},   {">=", BinOpKind::GeOp, true},
    };
    for (const OpMap &M : Ops) {
      if (Op == M.Text)
        return {mkBinOp(M.K, Ty->Ity, std::move(LC), std::move(RC), E.Loc),
                M.Cmp ? ctInt(intI32()) : Ty};
    }
    return errorRV(E.Loc, "unsupported binary operator '" + Op + "'");
  }
  case CExprKind::Assign:
  case CExprKind::CompoundAssign:
  case CExprKind::IncDec:
    // As expressions, these evaluate to the stored value (for post-inc/dec we
    // do not support value use; the store result is the *new* value).
    if (E.K == CExprKind::IncDec && E.IsPost)
      Diags.warning(E.Loc, "value of post-increment is the updated value in "
                           "this subset; use pre-increment for clarity");
    return lowerAssignLike(E);
  case CExprKind::Call:
    return lowerCall(E);
  case CExprKind::Cast: {
    if (E.CastTo->isPointer()) {
      RV V = rval(*E.Kids[0]);
      if (V.Ty->isPointer() || E.Kids[0]->K == CExprKind::Null)
        return {std::move(V.E), E.CastTo};
      if (V.Ty->isInt() && E.Kids[0]->K == CExprKind::IntLit &&
          E.Kids[0]->IntVal == 0)
        return {mkNullPtr(E.Loc), E.CastTo};
      return errorRV(E.Loc, "integer-to-pointer casts are not supported");
    }
    if (E.CastTo->isInt()) {
      RV V = rval(*E.Kids[0]);
      if (!V.Ty->isInt())
        return errorRV(E.Loc, "pointer-to-integer casts are not supported");
      return {convert(std::move(V.E), V.Ty, E.CastTo, E.Loc), E.CastTo};
    }
    if (E.CastTo->isVoid()) {
      RV V = rval(*E.Kids[0]);
      return {std::move(V.E), ctVoid()};
    }
    return errorRV(E.Loc, "unsupported cast");
  }
  case CExprKind::SizeofType:
    return {mkConstInt(intU64(), typeSize(E.SizeofTy, E.Loc), E.Loc),
            ctInt(intSizeT())};
  case CExprKind::Cond:
    return lowerConditional(E);
  }
  return errorRV(E.Loc, "unsupported expression");
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

void Lowerer::lowerStmt(const CStmt &S) {
  switch (S.K) {
  case CStmtKind::Compound: {
    Scopes.emplace_back();
    for (const CStmtPtr &Sub : S.Body)
      lowerStmt(*Sub);
    Scopes.pop_back();
    return;
  }
  case CStmtKind::Empty:
    return;
  case CStmtKind::Decl: {
    std::string Slot = declareLocal(S.DeclName, S.DeclTy, S.Loc);
    if (S.Init) {
      ExprPtr V = rvalAs(*S.Init, S.DeclTy);
      Stmt St;
      St.K = StmtKind::ExprS;
      St.Loc = S.Loc;
      St.E = mkStore(typeSize(S.DeclTy, S.Loc), mkAddrLocal(Slot, S.Loc),
                     std::move(V), MemOrder::NonAtomic, S.Loc);
      append(std::move(St));
    }
    return;
  }
  case CStmtKind::ExprSt: {
    RV V = rval(*S.E);
    Stmt St;
    St.K = StmtKind::ExprS;
    St.Loc = S.Loc;
    St.E = std::move(V.E);
    append(std::move(St));
    return;
  }
  case CStmtKind::Return: {
    if (S.E) {
      // Return type conversion.
      ExprPtr V = rvalAs(*S.E, RetTy);
      terminateReturn(std::move(V), S.Loc);
    } else {
      terminateReturn(nullptr, S.Loc);
    }
    return;
  }
  case CStmtKind::If: {
    unsigned ThenB = newBlock(), ElseB = newBlock(), JoinB = newBlock();
    ExprPtr C = condition(*S.E);
    terminateCond(std::move(C), ThenB, ElseB, S.Loc);
    switchTo(ThenB);
    lowerStmt(*S.Then);
    terminateGoto(JoinB);
    switchTo(ElseB);
    if (S.Else)
      lowerStmt(*S.Else);
    terminateGoto(JoinB);
    switchTo(JoinB);
    return;
  }
  case CStmtKind::While: {
    unsigned HeadB = newBlock(), BodyB = newBlock(), ExitB = newBlock();
    if (!S.LoopAnnots.empty()) {
      F->Blocks[HeadB].AnnotId = static_cast<int>(Out->LoopAnnots.size());
      Out->LoopAnnots.push_back(S.LoopAnnots);
    }
    terminateGoto(HeadB);
    switchTo(HeadB);
    ExprPtr C = condition(*S.E);
    terminateCond(std::move(C), BodyB, ExitB, S.Loc);
    switchTo(BodyB);
    LoopStack.push_back({HeadB, ExitB});
    lowerStmt(*S.LoopBody);
    LoopStack.pop_back();
    terminateGoto(HeadB);
    switchTo(ExitB);
    return;
  }
  case CStmtKind::DoWhile: {
    unsigned BodyB = newBlock(), CondB = newBlock(), ExitB = newBlock();
    if (!S.LoopAnnots.empty()) {
      F->Blocks[BodyB].AnnotId = static_cast<int>(Out->LoopAnnots.size());
      Out->LoopAnnots.push_back(S.LoopAnnots);
    }
    terminateGoto(BodyB);
    switchTo(BodyB);
    LoopStack.push_back({CondB, ExitB});
    lowerStmt(*S.LoopBody);
    LoopStack.pop_back();
    terminateGoto(CondB);
    switchTo(CondB);
    ExprPtr C = condition(*S.E);
    terminateCond(std::move(C), BodyB, ExitB, S.Loc);
    switchTo(ExitB);
    return;
  }
  case CStmtKind::For: {
    Scopes.emplace_back();
    if (S.ForInit)
      lowerStmt(*S.ForInit);
    unsigned HeadB = newBlock(), BodyB = newBlock(), StepB = newBlock(),
             ExitB = newBlock();
    if (!S.LoopAnnots.empty()) {
      F->Blocks[HeadB].AnnotId = static_cast<int>(Out->LoopAnnots.size());
      Out->LoopAnnots.push_back(S.LoopAnnots);
    }
    terminateGoto(HeadB);
    switchTo(HeadB);
    if (S.E) {
      ExprPtr C = condition(*S.E);
      terminateCond(std::move(C), BodyB, ExitB, S.Loc);
    } else {
      terminateGoto(BodyB);
    }
    switchTo(BodyB);
    LoopStack.push_back({StepB, ExitB});
    lowerStmt(*S.LoopBody);
    LoopStack.pop_back();
    terminateGoto(StepB);
    switchTo(StepB);
    if (S.ForStep) {
      RV V = rval(*S.ForStep);
      Stmt St;
      St.K = StmtKind::ExprS;
      St.Loc = S.Loc;
      St.E = std::move(V.E);
      append(std::move(St));
    }
    terminateGoto(HeadB);
    switchTo(ExitB);
    Scopes.pop_back();
    return;
  }
  case CStmtKind::Break: {
    if (LoopStack.empty()) {
      Diags.error(S.Loc, "break outside of a loop");
      return;
    }
    terminateGoto(LoopStack.back().second);
    // Subsequent statements are dead; keep lowering into a fresh block.
    switchTo(newBlock());
    return;
  }
  case CStmtKind::Continue: {
    if (LoopStack.empty()) {
      Diags.error(S.Loc, "continue outside of a loop");
      return;
    }
    terminateGoto(LoopStack.back().first);
    switchTo(newBlock());
    return;
  }
  case CStmtKind::Goto: {
    terminateGoto(labelBlock(S.DeclName));
    switchTo(newBlock());
    return;
  }
  case CStmtKind::Label: {
    unsigned B = labelBlock(S.DeclName);
    terminateGoto(B);
    switchTo(B);
    return;
  }
  }
}

//===----------------------------------------------------------------------===//
// Top level
//===----------------------------------------------------------------------===//

void Lowerer::lowerFunction(const CFuncDecl &FD,
                            std::unique_ptr<Function> &Fn, FnInfo &Info) {
  Fn = std::make_unique<Function>();
  F = Fn.get();
  Out = &Info;
  RetTy = FD.RetTy;
  F->Name = FD.Name;
  F->Loc = FD.Loc;
  F->RetSize = FD.RetTy->isVoid() ? 0 : typeSize(FD.RetTy, FD.Loc);

  Scopes.emplace_back();
  for (const CParam &P : FD.Params) {
    if (P.Name.empty()) {
      Diags.error(FD.Loc, "function definition parameter needs a name");
      continue;
    }
    F->Params.push_back({P.Name, typeSize(P.Ty, FD.Loc)});
    Scopes.back()[P.Name] = {P.Name, P.Ty};
    Info.LocalTypes[P.Name] = P.Ty;
    NameCounts[P.Name] = 1;
  }

  unsigned Entry = newBlock();
  (void)Entry;
  switchTo(0);
  lowerStmt(*FD.Body);
  if (!Terminated) {
    if (FD.RetTy->isVoid())
      terminateReturn(nullptr, FD.Loc);
    else {
      Stmt S;
      S.K = StmtKind::UBStmt;
      S.Msg = "control reaches end of non-void function '" + FD.Name + "'";
      S.Loc = FD.Loc;
      F->Blocks[CurBlock].Stmts.push_back(std::move(S));
      Terminated = true;
    }
  }
}

/// Elaborates the outline \p TU of \p P's tokens. Everything that is
/// shared between functions runs serially in declaration order: struct
/// layouts, globals, signatures, and the FnInfo entries. Then one task per
/// definition (on a thread pool for large units, see forEachFunction)
/// parses its annotation lists and body, lowers the body into its slot,
/// fills its FnInfo, and frees the body's AST on the thread that allocated
/// it. The slots are merged, and the diagnostics replayed, in the order the
/// serial parser and lowering report them: parse warnings, then the unit's
/// errors, then each body's. Returns null, having reported nothing more,
/// when a definition does not parse.
std::unique_ptr<AnnotatedProgram> lowerUnit(CTranslationUnit &TU,
                                            const Parser &P,
                                            const std::string &Source,
                                            rcc::DiagnosticEngine &Diags) {
  auto Result = std::make_unique<AnnotatedProgram>();
  AnnotatedProgram *AP = Result.get();
  UnitTables U;
  U.AP = AP;
  rcc::DiagnosticEngine UnitDiags;
  Lowerer Unit(U, UnitDiags);

  // Struct layouts first (in declaration order; nested structs must be
  // declared before use, as in C).
  for (CStructDecl &SD : TU.Structs) {
    StructInfo SI;
    SI.Name = SD.Name;
    SI.Annots = std::move(SD.Annots);
    SI.PtrTypedefName = SD.PtrTypedefName;
    SI.Loc = SD.Loc;
    SI.Layout.Name = SD.Name;
    // Layout computed below once all field layouts are known.
    SI.Fields = std::move(SD.Fields);
    AP->Structs[SD.Name] = std::move(SI);
    StructInfo &Stored = AP->Structs[SD.Name];
    for (const CStructField &FD : Stored.Fields)
      Stored.Layout.Fields.push_back(
          {FD.Name, Unit.typeLayout(FD.Ty, FD.Loc), 0});
    Stored.Layout.computeLayout();
  }
  AP->Typedefs = std::move(TU.Typedefs);

  // Globals.
  for (CGlobalDecl &GD : TU.Globals) {
    U.GlobalTypes[GD.Name] = GD.Ty;
    GlobalInfo GI;
    GI.Name = GD.Name;
    GI.Ty = GD.Ty;
    GI.Annots = std::move(GD.Annots);
    GI.Loc = GD.Loc;
    AP->Globals[GD.Name] = std::move(GI);
    GlobalDef G;
    G.Name = GD.Name;
    G.Size = Unit.typeSize(GD.Ty, GD.Loc);
    if (GD.Init) {
      if (GD.Ty->isInt()) {
        G.HasInit = true;
        G.Init = RtVal::fromInt(GD.Ty->Ity, *GD.Init);
      } else if (GD.Ty->isPointer() && *GD.Init == 0) {
        G.HasInit = true;
        G.Init = RtVal::null();
      } else {
        UnitDiags.error(
            GD.Loc, "global initializers must be integers or a null pointer");
      }
    }
    AP->Prog.Globals.push_back(std::move(G));
  }

  // Function signatures (so calls and function pointers resolve).
  for (const CFuncDecl &FD : TU.Functions) {
    std::vector<CTypePtr> Params;
    for (const CParam &P : FD.Params)
      Params.push_back(P.Ty);
    U.FuncTypes[FD.Name] = ctFunc(FD.RetTy, std::move(Params));
  }

  // FnInfo entries, and one task per definition. A second definition of a
  // name is an error, so it is parsed but not lowered, and every name has
  // at most one lowered definition; a prototype after the definition keeps
  // the definition's metadata, which the definition's task fills in.
  struct Def {
    CFuncDecl *FD;
    FnInfo *Info; ///< null for a redefinition
  };
  std::vector<Def> Defs;
  std::unordered_map<std::string_view, const CFuncDecl *> Defined;
  for (CFuncDecl &FD : TU.Functions) {
    if (FD.isDefinition()) {
      auto [It, New] = Defined.emplace(FD.Name, &FD);
      if (!New) {
        UnitDiags.error(FD.NameLoc, "redefinition of '" + FD.Name + "'");
        UnitDiags.note(It->second->NameLoc,
                       "previous definition of '" + FD.Name + "' is here");
        Defs.push_back({&FD, nullptr});
        continue;
      }
      Defs.push_back({&FD, &AP->Fns[FD.Name]});
      continue;
    }
    if (Defined.count(FD.Name))
      continue;
    FnInfo &Info = AP->Fns[FD.Name];
    Info.Name = FD.Name;
    Info.RetTy = FD.RetTy;
    Info.Params = std::move(FD.Params);
    Info.Annots = std::move(FD.Annots);
    Info.Loc = FD.Loc;
    Info.HasBody = false;
    Info.Range = {FD.Loc, FD.EndLoc};
    Info.NameRange = {FD.NameLoc, FD.NameEnd};
  }

  std::vector<BodySlot> Slots(Defs.size());
  forEachFunction(Defs.size(), /*Phase=*/1, [&](size_t I) {
    CFuncDecl &FD = *Defs[I].FD;
    BodySlot &Slot = Slots[I];
    if (!P.parseDeferred(FD, Slot.ParseDiags)) {
      Slot.ParseFailed = true;
    } else if (FnInfo *Info = Defs[I].Info) {
      *Info = FnInfo();
      Lowerer(U, Slot.Diags).lowerFunction(FD, Slot.Fn, *Info);
      Info->Name = FD.Name;
      Info->RetTy = FD.RetTy;
      Info->Params = std::move(FD.Params);
      Info->Annots = std::move(FD.Annots); // bodies do not read them
      Info->Loc = FD.Loc;
      Info->HasBody = true;
      Info->Range = {FD.Loc, FD.EndLoc};
      Info->NameRange = {FD.NameLoc, FD.NameEnd};
    }
    FD.Body.reset();
  });

  for (const BodySlot &Slot : Slots)
    if (Slot.ParseFailed)
      return nullptr;
  for (const BodySlot &Slot : Slots)
    Diags.append(Slot.ParseDiags);
  Diags.append(UnitDiags);
  auto &Functions = AP->Prog.Functions;
  for (size_t I = 0; I < Defs.size(); ++I) {
    Diags.append(Slots[I].Diags);
    if (Defs[I].Info)
      Functions.emplace(Defs[I].FD->Name, std::move(Slots[I].Fn));
  }
  AP->Source = Source;
  AP->LineStarts = rcc::lineStarts(AP->Source);
  return Result;
}

} // namespace

std::unique_ptr<AnnotatedProgram>
rcc::front::compileSource(const std::string &Source,
                          rcc::DiagnosticEngine &Diags) {
  trace::Span CompileSpan(trace::Category::Frontend, "frontend.compile");
  std::vector<Token> Toks;
  {
    trace::Span S(trace::Category::Frontend, "frontend.lex");
    Toks = lexSource(Source, Diags);
    trace::count("frontend.tokens", Toks.size());
  }
  if (Diags.hasErrors())
    return nullptr;
  // The outline and the per-definition parses report into engines of
  // their own: on any parse error, the serial parser runs over the tokens
  // instead, so that the diagnostics are its text in its order.
  rcc::DiagnosticEngine OutlineDiags;
  Parser P(std::move(Toks), OutlineDiags);
  CTranslationUnit TU;
  {
    trace::Span S(trace::Category::Frontend, "frontend.parse");
    TU = P.outlineTranslationUnit();
  }
  std::unique_ptr<AnnotatedProgram> AP;
  if (!OutlineDiags.hasErrors()) {
    trace::Span S(trace::Category::Frontend, "frontend.lower");
    AP = lowerUnit(TU, P, Source, OutlineDiags);
    if (AP) {
      Diags.append(OutlineDiags);
      trace::count("frontend.functions", AP->Fns.size());
    }
  }
  if (!AP) {
    Parser Serial(P.takeTokens(), Diags);
    Serial.parseTranslationUnit();
    assert(Diags.hasErrors() && "the outline failed where the parser did not");
  }
  if (Diags.hasErrors())
    return nullptr;
  return AP;
}
