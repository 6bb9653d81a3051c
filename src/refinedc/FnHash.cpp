//===- FnHash.cpp ---------------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "refinedc/FnHash.h"

#include "caesium/Ast.h"
#include "support/Hash.h"

#include <set>

using namespace rcc;
using namespace rcc::refinedc;

namespace {

void hashLoc(ContentHasher &H, const rcc::SourceLoc &L) {
  H.mix(static_cast<uint64_t>(L.Line)).mix(static_cast<uint64_t>(L.Col));
}

void hashAnnots(ContentHasher &H, const std::vector<front::RcAnnot> &As) {
  H.mix(static_cast<uint64_t>(As.size()));
  for (const front::RcAnnot &A : As) {
    H.mix(A.Kind);
    H.mix(static_cast<uint64_t>(A.Args.size()));
    for (const std::string &Arg : A.Args)
      H.mix(Arg);
    hashLoc(H, A.Loc);
  }
}

/// Serializes an expression tree, collecting referenced global names (the
/// function's spec-level dependencies) on the way.
void hashExpr(ContentHasher &H, const caesium::Expr &E,
              std::set<std::string> &Globals) {
  H.mix(static_cast<uint64_t>(E.K));
  hashLoc(H, E.Loc);
  H.mix(E.Name);
  if (E.K == caesium::ExprKind::AddrGlobal)
    Globals.insert(E.Name);
  H.mix(static_cast<uint64_t>(E.Op))
      .mix(static_cast<uint64_t>(E.UOp))
      .mix(static_cast<uint64_t>(E.Ity.ByteSize))
      .mix(static_cast<uint64_t>(E.Ity.Signed))
      .mix(static_cast<uint64_t>(E.To.ByteSize))
      .mix(static_cast<uint64_t>(E.To.Signed))
      .mix(E.ElemSize)
      .mix(E.AccessSize)
      .mix(static_cast<uint64_t>(E.Ord));
  H.mix(static_cast<uint64_t>(E.Val.K))
      .mix(E.Val.Bits)
      .mix(static_cast<uint64_t>(E.Val.Size))
      .mix(E.Val.Loc.Alloc)
      .mix(E.Val.Loc.Off);
  H.mix(static_cast<uint64_t>(E.Args.size()));
  for (const caesium::ExprPtr &A : E.Args)
    if (A)
      hashExpr(H, *A, Globals);
}

void hashFunctionBody(ContentHasher &H, const caesium::Function &Fn,
                      std::set<std::string> &Globals) {
  H.mix(Fn.Name);
  hashLoc(H, Fn.Loc);
  H.mix(Fn.RetSize);
  H.mix(static_cast<uint64_t>(Fn.Params.size()));
  for (const auto &[N, Sz] : Fn.Params)
    H.mix(N).mix(Sz);
  H.mix(static_cast<uint64_t>(Fn.Locals.size()));
  for (const auto &[N, Sz] : Fn.Locals)
    H.mix(N).mix(Sz);
  H.mix(static_cast<uint64_t>(Fn.Blocks.size()));
  for (const caesium::Block &B : Fn.Blocks) {
    H.mix(static_cast<uint64_t>(B.AnnotId));
    H.mix(static_cast<uint64_t>(B.Stmts.size()));
    for (const caesium::Stmt &S : B.Stmts) {
      H.mix(static_cast<uint64_t>(S.K));
      hashLoc(H, S.Loc);
      H.mix(static_cast<uint64_t>(S.Target1))
          .mix(static_cast<uint64_t>(S.Target2))
          .mix(static_cast<uint64_t>(S.DefaultTarget));
      H.mix(static_cast<uint64_t>(S.SwitchCases.size()));
      for (const auto &[V, T] : S.SwitchCases)
        H.mix(static_cast<uint64_t>(V)).mix(static_cast<uint64_t>(T));
      H.mix(S.Msg);
      H.mix(static_cast<uint64_t>(S.E != nullptr));
      if (S.E)
        hashExpr(H, *S.E, Globals);
    }
  }
}

} // namespace

uint64_t refinedc::hashSpecEnvironment(const front::AnnotatedProgram &AP) {
  ContentHasher H;
  H.mix(static_cast<uint64_t>(AP.Structs.size()));
  for (const auto &[Name, SI] : AP.Structs) {
    H.mix(Name);
    H.mix(SI.Layout.Size).mix(static_cast<uint64_t>(SI.Layout.Align));
    H.mix(static_cast<uint64_t>(SI.Fields.size()));
    for (const front::CStructField &F : SI.Fields) {
      H.mix(F.Name);
      hashAnnots(H, F.Annots);
    }
    hashAnnots(H, SI.Annots);
  }
  H.mix(static_cast<uint64_t>(AP.Typedefs.size()));
  for (const front::CTypedef &TD : AP.Typedefs) {
    H.mix(TD.Name);
    hashAnnots(H, TD.Annots);
  }
  H.mix(static_cast<uint64_t>(AP.Globals.size()));
  for (const auto &[Name, GI] : AP.Globals) {
    H.mix(Name);
    hashAnnots(H, GI.Annots);
  }
  return H.get();
}

uint64_t refinedc::hashFunctionContent(const front::AnnotatedProgram &AP,
                                       const std::string &Name,
                                       uint64_t EnvFingerprint,
                                       uint64_t SessionFingerprint) {
  auto FIt = AP.Fns.find(Name);
  return hashFunctionContent(AP, Name,
                             FIt == AP.Fns.end() ? nullptr : &FIt->second,
                             AP.Prog.function(Name), EnvFingerprint,
                             SessionFingerprint);
}

uint64_t refinedc::hashFunctionContent(const front::AnnotatedProgram &AP,
                                       const std::string &Name,
                                       const front::FnInfo *FI,
                                       const caesium::Function *Fn,
                                       uint64_t EnvFingerprint,
                                       uint64_t SessionFingerprint) {
  ContentHasher H;
  H.mix(EnvFingerprint).mix(SessionFingerprint);
  H.mix(Name);

  H.mix(static_cast<uint64_t>(FI != nullptr));
  std::set<std::string> Globals;
  if (FI) {
    hashAnnots(H, FI->Annots);
    H.mix(static_cast<uint64_t>(FI->LoopAnnots.size()));
    for (const auto &As : FI->LoopAnnots)
      hashAnnots(H, As);
    H.mix(static_cast<uint64_t>(FI->HasBody));
  }
  H.mix(static_cast<uint64_t>(Fn != nullptr));
  if (Fn)
    hashFunctionBody(H, *Fn, Globals);

  // Modular verification depends on referenced functions only through
  // their specs: fold in the callees' annotation lists (and globals',
  // which contribute rc::global atoms).
  H.mix(static_cast<uint64_t>(Globals.size()));
  for (const std::string &G : Globals) {
    H.mix(G);
    auto CIt = AP.Fns.find(G);
    if (CIt != AP.Fns.end())
      hashAnnots(H, CIt->second.Annots);
  }

  uint64_t Out = H.get();
  return Out == 0 ? 1 : Out;
}
