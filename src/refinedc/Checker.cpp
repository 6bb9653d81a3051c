//===- Checker.cpp --------------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "refinedc/Checker.h"

#include "caesium/Ast.h"
#include "refinedc/FnHash.h"
#include "refinedc/ProofChecker.h"
#include "store/Serialize.h"
#include "support/Arena.h"
#include "support/Hash.h"
#include "support/ThreadPool.h"
#include "support/Util.h"
#include "trace/Export.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

using namespace rcc;
using namespace rcc::refinedc;
using namespace rcc::lithium;
using namespace rcc::pure;

//===----------------------------------------------------------------------===//
// Checker
//===----------------------------------------------------------------------===//

Checker::Checker(const front::AnnotatedProgram &AP,
                 rcc::DiagnosticEngine &Diags)
    : AP(AP), Diags(Diags), Rules(&standardRules()) {}

namespace {

/// The rc:: annotation kinds the checker reads.
enum class AnnotKind : uint8_t {
  Other, Parameters, Args, Returns, Requires, Ensures, TrustMe, Exists,
  Tactics, Lemma, Field, Size, Constraints, PtrType, RefinedBy, InvVars,
  Global
};

AnnotKind annotKind(std::string_view Kind) {
  static constexpr std::pair<std::string_view, AnnotKind> Kinds[] = {
      {"parameters", AnnotKind::Parameters},
      {"args", AnnotKind::Args},
      {"returns", AnnotKind::Returns},
      {"requires", AnnotKind::Requires},
      {"ensures", AnnotKind::Ensures},
      {"trust_me", AnnotKind::TrustMe},
      {"exists", AnnotKind::Exists},
      {"tactics", AnnotKind::Tactics},
      {"lemma", AnnotKind::Lemma},
      {"field", AnnotKind::Field},
      {"size", AnnotKind::Size},
      {"constraints", AnnotKind::Constraints},
      {"ptr_type", AnnotKind::PtrType},
      {"refined_by", AnnotKind::RefinedBy},
      {"inv_vars", AnnotKind::InvVars},
      {"global", AnnotKind::Global},
  };
  for (const auto &[Name, K] : Kinds)
    if (Kind == Name)
      return K;
  return AnnotKind::Other;
}

/// The kind of each annotation of a list, classified once.
std::vector<AnnotKind> annotKinds(const std::vector<front::RcAnnot> &As) {
  std::vector<AnnotKind> Ks;
  Ks.reserve(As.size());
  for (const front::RcAnnot &A : As)
    Ks.push_back(annotKind(A.Kind));
  return Ks;
}

const front::RcAnnot *findAnnot(const std::vector<front::RcAnnot> &As,
                                const std::vector<AnnotKind> &Ks,
                                AnnotKind K) {
  for (size_t I = 0; I < As.size(); ++I)
    if (Ks[I] == K)
      return &As[I];
  return nullptr;
}

const front::RcAnnot *findAnnot(const std::vector<front::RcAnnot> &As,
                                AnnotKind K) {
  for (const front::RcAnnot &A : As)
    if (annotKind(A.Kind) == K)
      return &A;
  return nullptr;
}

} // namespace

bool Checker::buildNamedTypes() {
  // Pass 1: create definition shells so recursive references resolve. A
  // struct defines the type named by its rc::ptr_type, or else by its tag.
  struct Shell {
    const front::StructInfo *SI;
    std::unique_ptr<NamedTypeDef> Owned; ///< until filed in Env.Named
    NamedTypeDef *Def;
    rcc::SourceLoc Loc; ///< where the name is defined
  };
  std::vector<Shell> Shells;
  Shells.reserve(AP.Structs.size());
  for (const auto &[SName, SI] : AP.Structs) {
    Env.Layouts[SName] = &SI.Layout;
    auto Def = std::make_unique<NamedTypeDef>();
    Def->Layout = &SI.Layout;
    std::string DefName = SName;
    rcc::SourceLoc Loc = SI.Loc;
    const std::vector<AnnotKind> Ks = annotKinds(SI.Annots);
    if (const front::RcAnnot *PT =
            findAnnot(SI.Annots, Ks, AnnotKind::PtrType)) {
      // "name: <type>"
      const std::string &S = PT->Args.empty() ? std::string() : PT->Args[0];
      size_t Colon = S.find(':');
      if (Colon != std::string::npos)
        DefName = trim(S.substr(0, Colon));
      Def->IsPtrType = true;
      Loc = PT->Loc;
    }
    Def->Name = DefName;
    Def->RefnVar = "_r";
    Def->RefnSort = Sort::Nat;
    if (const front::RcAnnot *RB =
            findAnnot(SI.Annots, Ks, AnnotKind::RefinedBy)) {
      if (RB->Args.size() != 1) {
        Diags.error(RB->Loc,
                    "rc::refined_by expects exactly one binder here");
        return false;
      }
      if (!parseBinder(RB->Args[0], Def->RefnVar, Def->RefnSort, Diags,
                       RB->Loc))
        return false;
    }
    NamedTypeDef *D = Def.get();
    Shells.push_back({&SI, std::move(Def), D, Loc});
  }

  // File the definitions in source order: a name defined twice is an
  // error at its second definition.
  std::vector<Shell *> InOrder;
  for (Shell &Sh : Shells)
    InOrder.push_back(&Sh);
  std::stable_sort(InOrder.begin(), InOrder.end(),
                   [](const Shell *A, const Shell *B) {
                     return std::pair(A->Loc.Line, A->Loc.Col) <
                            std::pair(B->Loc.Line, B->Loc.Col);
                   });
  for (Shell *Sh : InOrder) {
    const std::string &Name = Sh->Def->Name;
    auto [It, New] = Env.Named.try_emplace(Name);
    if (!New) {
      Diags.error(Sh->Loc, "redefinition of RefinedC type '" + Name + "'");
      for (const Shell &First : Shells)
        if (First.Def == It->second.get())
          Diags.note(First.Loc, "previous definition of RefinedC type '" +
                                    Name + "' is here");
      return false;
    }
    It->second = std::move(Sh->Owned);
  }

  // Pass 2: parse bodies.
  for (const Shell &Sh : Shells) {
    const front::StructInfo &SI = *Sh.SI;
    NamedTypeDef *Def = Sh.Def;
    const std::vector<AnnotKind> Ks = annotKinds(SI.Annots);
    SpecScope Scope;
    Scope[Def->RefnVar] = Def->RefnSort;
    std::vector<std::pair<std::string, Sort>> ExVars;
    for (size_t I = 0; I < SI.Annots.size(); ++I) {
      if (Ks[I] != AnnotKind::Exists)
        continue;
      const front::RcAnnot &A = SI.Annots[I];
      for (const std::string &B : A.Args) {
        std::string N;
        Sort S;
        if (!parseBinder(B, N, S, Diags, A.Loc))
          return false;
        ExVars.push_back({N, S});
        Scope[N] = S;
      }
    }

    // Field types.
    std::vector<TypeRef> Fields;
    for (const front::CStructField &F : SI.Fields) {
      const front::RcAnnot *FA = findAnnot(F.Annots, AnnotKind::Field);
      if (!FA || FA->Args.empty()) {
        // Unannotated fields get their physical size as uninitialized data.
        const caesium::FieldLayout *FL = SI.Layout.field(F.Name);
        Fields.push_back(
            tyUninit(mkNat(static_cast<int64_t>(FL ? FL->Ly.Size : 0))));
        continue;
      }
      SpecParser P(FA->Args[0], Env, Scope, Diags, FA->Loc);
      TypeRef T = P.parseTypeFull();
      if (P.hadError())
        return false;
      Fields.push_back(T);
    }
    TypeRef Body = tyStruct(&SI.Layout, std::move(Fields));

    // rc::size wraps in padding.
    if (const front::RcAnnot *SZ =
            findAnnot(SI.Annots, Ks, AnnotKind::Size)) {
      if (SZ->Args.empty()) {
        Diags.error(SZ->Loc, "rc::size expects a term");
        return false;
      }
      SpecParser P(SZ->Args[0], Env, Scope, Diags, SZ->Loc);
      TermRef N = P.parseTermFull();
      if (P.hadError())
        return false;
      Body = tyPadded(Body, N);
    }
    // rc::constraints wrap.
    for (size_t I = 0; I < SI.Annots.size(); ++I) {
      if (Ks[I] != AnnotKind::Constraints)
        continue;
      const front::RcAnnot &A = SI.Annots[I];
      for (const std::string &CS : A.Args) {
        SpecParser P(CS, Env, Scope, Diags, A.Loc);
        TermRef Phi = P.parseTermFull();
        if (P.hadError())
          return false;
        Body = tyConstraint(Body, Phi);
      }
    }
    // rc::exists wrap (innermost binder declared last).
    for (auto It = ExVars.rbegin(); It != ExVars.rend(); ++It)
      Body = tyExists(It->first, It->second, Body);

    // rc::ptr_type: the definition refines the pointer typedef; '...'
    // denotes the struct body built above.
    if (const front::RcAnnot *PT =
            findAnnot(SI.Annots, Ks, AnnotKind::PtrType)) {
      if (PT->Args.empty()) {
        Diags.error(PT->Loc, "rc::ptr_type expects 'name: type'");
        return false;
      }
      const std::string &S = PT->Args[0];
      size_t Colon = S.find(':');
      std::string TypeStr =
          Colon == std::string::npos ? S : S.substr(Colon + 1);
      SpecScope PScope;
      PScope[Def->RefnVar] = Def->RefnSort;
      SpecParser P(TypeStr, Env, PScope, Diags, PT->Loc);
      P.SelfStructType = Body;
      TypeRef PtrBody = P.parseTypeFull();
      if (P.hadError())
        return false;
      Def->Body = PtrBody;
    } else {
      Def->Body = Body;
    }
  }
  return true;
}

/// Parses function-style annotations (on functions and on fn typedefs) into
/// a FnSpec. Returns nullptr if the annotation list carries no spec.
static std::unique_ptr<FnSpec>
parseFnSpec(const std::string &Name, const std::vector<front::RcAnnot> &As,
            size_t NumCArgs, const TypeEnv &Env, rcc::DiagnosticEngine &Diags,
            unsigned *PureLines) {
  const std::vector<AnnotKind> Ks = annotKinds(As);
  bool Any = false;
  for (AnnotKind K : Ks)
    if (K == AnnotKind::Parameters || K == AnnotKind::Args ||
        K == AnnotKind::Returns || K == AnnotKind::Requires ||
        K == AnnotKind::Ensures || K == AnnotKind::TrustMe)
      Any = true;
  if (!Any)
    return nullptr;

  auto S = std::make_unique<FnSpec>();
  S->Name = Name;
  SpecScope Scope;

  for (size_t I = 0; I < As.size(); ++I) {
    const front::RcAnnot &A = As[I];
    if (Ks[I] == AnnotKind::Parameters) {
      for (const std::string &B : A.Args) {
        std::string N;
        Sort Srt;
        if (!parseBinder(B, N, Srt, Diags, A.Loc))
          return nullptr;
        S->Params.push_back({N, Srt});
        Scope[N] = Srt;
      }
    }
    if (Ks[I] == AnnotKind::Exists) {
      for (const std::string &B : A.Args) {
        std::string N;
        Sort Srt;
        if (!parseBinder(B, N, Srt, Diags, A.Loc))
          return nullptr;
        S->RetExists.push_back({N, Srt});
        Scope[N] = Srt;
      }
    }
  }

  for (size_t I = 0; I < As.size(); ++I) {
    const front::RcAnnot &A = As[I];
    const AnnotKind K = Ks[I];
    if (K == AnnotKind::Args) {
      for (const std::string &T : A.Args) {
        SpecParser P(T, Env, Scope, Diags, A.Loc);
        TypeRef Ty = P.parseTypeFull();
        if (P.hadError())
          return nullptr;
        S->Args.push_back(Ty);
      }
    } else if (K == AnnotKind::Returns) {
      if (A.Args.empty()) {
        Diags.error(A.Loc, "rc::returns expects a type");
        return nullptr;
      }
      SpecParser P(A.Args[0], Env, Scope, Diags, A.Loc);
      S->Ret = P.parseTypeFull();
      if (P.hadError())
        return nullptr;
    } else if (K == AnnotKind::Requires) {
      for (const std::string &T : A.Args) {
        SpecParser P(T, Env, Scope, Diags, A.Loc);
        ResAtom At;
        if (!P.parseAtomFull(At))
          return nullptr;
        S->Requires.push_back(At);
      }
    } else if (K == AnnotKind::Ensures) {
      for (const std::string &T : A.Args) {
        SpecParser P(T, Env, Scope, Diags, A.Loc);
        ResAtom At;
        if (!P.parseAtomFull(At))
          return nullptr;
        S->Ensures.push_back(At);
      }
    } else if (K == AnnotKind::Tactics) {
      for (const std::string &T : A.Args) {
        for (const char *Known : {"multiset_solver", "set_solver"})
          if (T.find(Known) != std::string::npos)
            S->Tactics.push_back(Known);
      }
    } else if (K == AnnotKind::TrustMe) {
      S->TrustMe = true;
    } else if (K == AnnotKind::Lemma) {
      // rc::lemma("name", "prop", "pure-lines") models a manual Coq proof.
      if (A.Args.size() < 2) {
        Diags.error(A.Loc, "rc::lemma expects a name and a proposition");
        return nullptr;
      }
      // Lemma propositions may quantify over their own variables.
      SpecParser P(A.Args[1], Env, Scope, Diags, A.Loc);
      TermRef Prop = P.parseTermFull();
      if (P.hadError())
        return nullptr;
      unsigned Lines = 1;
      if (A.Args.size() >= 3)
        Lines = static_cast<unsigned>(std::atoi(A.Args[2].c_str()));
      if (PureLines)
        *PureLines += Lines;
      S->Lemmas.push_back({A.Args[0], Prop, Lines});
    }
  }

  if (!S->Args.empty() && S->Args.size() != NumCArgs) {
    Diags.error({}, "function '" + Name + "' declares " +
                        std::to_string(NumCArgs) + " C parameters but " +
                        std::to_string(S->Args.size()) + " rc::args types");
    return nullptr;
  }
  return S;
}

bool Checker::buildFnSpecs() {
  // Function-type typedefs first, serially: fn<...> references resolve
  // against them.
  for (const front::CTypedef &TD : AP.Typedefs) {
    if (TD.Annots.empty() || !TD.Ty || !TD.Ty->isFunc())
      continue;
    auto S = parseFnSpec(TD.Name, TD.Annots, TD.Ty->Params.size(), Env,
                         Diags, &PureLines);
    if (!S && Diags.hasErrors())
      return false;
    if (S)
      Env.FnTypeSpecs[TD.Name] = std::move(S);
  }

  // Then every function's spec into its own slot: they only read the
  // environment built so far, so large units parse them on a pool.
  struct SpecSlot {
    std::unique_ptr<FnSpec> Spec;
    unsigned PureLines = 0;
    rcc::DiagnosticEngine Diags;
  };
  std::vector<const std::pair<const std::string, front::FnInfo> *> Fns;
  for (const auto &Entry : AP.Fns)
    Fns.push_back(&Entry);
  std::vector<SpecSlot> Slots(Fns.size());
  front::forEachFunction(Fns.size(), /*Phase=*/2, [&](size_t I) {
    NodeArenaSet::Lease Lease(Arenas);
    const auto &[Name, FI] = *Fns[I];
    Slots[I].Spec = parseFnSpec(Name, FI.Annots, FI.Params.size(), Env,
                                Slots[I].Diags, &Slots[I].PureLines);
  });

  // Merged in AP.Fns order, stopping at the first function with an error.
  for (size_t I = 0; I < Fns.size(); ++I) {
    SpecSlot &Slot = Slots[I];
    Diags.append(Slot.Diags);
    PureLines += Slot.PureLines;
    if (!Slot.Spec && Diags.hasErrors())
      return false;
    if (Slot.Spec)
      Env.FnSpecs[Fns[I]->first] = std::move(Slot.Spec);
  }
  return true;
}

bool Checker::buildGlobals() {
  for (const auto &[Name, GI] : AP.Globals) {
    const front::RcAnnot *GA = findAnnot(GI.Annots, AnnotKind::Global);
    if (!GA || GA->Args.empty())
      continue;
    SpecScope Scope;
    SpecParser P(GA->Args[0], Env, Scope, Diags, GA->Loc);
    TypeRef T = P.parseTypeFull();
    if (P.hadError())
      return false;
    GlobalAtoms.push_back(
        ResAtom::loc(mkVar("&g:" + Name, Sort::Loc), T));
  }
  return true;
}

bool Checker::buildEnv() {
  // The serial parts fill one of the session's arenas; the pooled spec
  // phase leases one per task.
  NodeArenaSet::Lease Lease(Arenas);
  return buildNamedTypes() && buildFnSpecs() && buildGlobals();
}

std::unordered_map<std::string_view, Checker::FnRefs>
Checker::indexFunctions() const {
  std::unordered_map<std::string_view, FnRefs> Index;
  Index.reserve(AP.Fns.size());
  auto SIt = Env.FnSpecs.begin();
  auto BIt = AP.Prog.Functions.begin();
  // All three maps are ordered by name: one merge pass resolves every name.
  for (const auto &[Name, FI] : AP.Fns) {
    FnRefs &R = Index[Name];
    R.Info = &FI;
    while (SIt != Env.FnSpecs.end() && SIt->first < Name)
      ++SIt;
    if (SIt != Env.FnSpecs.end() && SIt->first == Name)
      R.Spec = SIt->second.get();
    while (BIt != AP.Prog.Functions.end() && BIt->first < Name)
      ++BIt;
    if (BIt != AP.Prog.Functions.end() && BIt->first == Name)
      R.Fn = BIt->second.get();
  }
  return Index;
}

Checker::FnRefs Checker::resolve(const std::string &Name) const {
  FnRefs R;
  auto SIt = Env.FnSpecs.find(Name);
  if (SIt != Env.FnSpecs.end())
    R.Spec = SIt->second.get();
  auto FIt = AP.Fns.find(Name);
  if (FIt != AP.Fns.end())
    R.Info = &FIt->second;
  R.Fn = AP.Prog.function(Name);
  return R;
}

std::optional<LoopInv>
Checker::parseLoopInv(const std::vector<front::RcAnnot> &As,
                      const SpecScope &BaseScope,
                      rcc::DiagnosticEngine &Diags) const {
  LoopInv Inv;
  SpecScope Scope = BaseScope;
  const std::vector<AnnotKind> Ks = annotKinds(As);
  for (size_t I = 0; I < As.size(); ++I) {
    if (Ks[I] != AnnotKind::Exists)
      continue;
    const front::RcAnnot &A = As[I];
    for (const std::string &B : A.Args) {
      std::string N;
      Sort S;
      if (!parseBinder(B, N, S, Diags, A.Loc))
        return std::nullopt;
      Inv.ExVars.push_back({N, S});
      Scope[N] = S;
    }
  }
  for (size_t I = 0; I < As.size(); ++I) {
    const front::RcAnnot &A = As[I];
    if (Ks[I] == AnnotKind::InvVars) {
      for (const std::string &VS : A.Args) {
        SpecParser P(VS, Env, Scope, Diags, A.Loc);
        std::string Var;
        TypeRef Ty = nullptr;
        if (!P.parseInvVarFull(Var, Ty))
          return std::nullopt;
        Inv.InvVars.push_back({Var, Ty});
      }
    } else if (Ks[I] == AnnotKind::Constraints) {
      for (const std::string &CS : A.Args) {
        SpecParser P(CS, Env, Scope, Diags, A.Loc);
        TermRef Phi = P.parseTermFull();
        if (P.hadError())
          return std::nullopt;
        Inv.Constraints.push_back(Phi);
      }
    }
  }
  return Inv;
}

FnResult Checker::verifyFunction(const std::string &Name,
                                 const VerifyOptions &Opts) const {
  return verify(Name, resolve(Name), Opts);
}

FnResult Checker::verify(const std::string &Name, const FnRefs &Refs,
                         const VerifyOptions &Opts) const {
  // Per-function span and wall time. The timing is unconditional (two clock
  // reads per function; --format=json reports it even without tracing); the
  // span costs nothing when no session is installed.
  trace::Span FnSpan(trace::Category::Checker, std::string("checker.fn"),
                     trace::current() ? "\"fn\": \"" + Name + "\""
                                      : std::string());
  auto FnStart = std::chrono::steady_clock::now();
  FnResult Res;
  Res.Name = Name;
  // On every return path: record wall time, and synthesize the structured
  // diagnostic for a failing result, so all transports (JSON mode, daemon
  // events, LSP) render the same typed rcc::Diagnostic. Engine failures
  // have a point location that is widened to the token at that position;
  // early errors (missing spec, arity mismatch...) have none and fall back
  // to the function's name range from the front end.
  struct ResultGuard {
    std::chrono::steady_clock::time_point T0;
    FnResult &R;
    const front::AnnotatedProgram &AP;
    const front::FnInfo *FI;
    ~ResultGuard() {
      R.WallMillis = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - T0)
                         .count();
      if (R.Verified || R.Error.empty() || !R.Diags.empty())
        return;
      rcc::Diagnostic D;
      D.Level = rcc::DiagLevel::Error;
      D.Message = R.Error;
      D.Fn = R.Name;
      D.Rule = R.FailedRule;
      D.Context = R.ErrorContext;
      if (R.ErrorLoc.isValid()) {
        rcc::SourceRange Rng =
            tokenRangeAt(AP.Source, AP.LineStarts, R.ErrorLoc);
        D.Loc = Rng.Begin;
        D.End = Rng.End;
      } else if (FI && FI->NameRange.isValid()) {
        D.Loc = FI->NameRange.Begin;
        D.End = FI->NameRange.End;
      } else if (FI && FI->Loc.isValid()) {
        D.Loc = FI->Loc;
      }
      R.Diags.push_back(std::move(D));
    }
  } TG{FnStart, Res, AP, Refs.Info};

  if (!Refs.Spec) {
    Res.Error = "function '" + Name + "' has no RefinedC specification";
    return Res;
  }
  const FnSpec *Spec = Refs.Spec;
  if (Spec->TrustMe) {
    // Assumed specification (possibly a body-less prototype): nothing to
    // check; callers may use the spec.
    Res.Verified = true;
    Res.Trusted = true;
    if (Opts.Recheck) {
      Res.Rechecked = true;
      Res.RecheckOk = true; // nothing to replay
    }
    return Res;
  }
  const caesium::Function *Fn = Refs.Fn;
  if (!Refs.Info || !Fn) {
    Res.Error = "unknown function '" + Name + "'";
    return Res;
  }
  const front::FnInfo &FI = *Refs.Info;
  if (Spec->Args.size() != FI.Params.size()) {
    Res.Error = "specification/parameter arity mismatch for '" + Name + "'";
    return Res;
  }

  // Per-job solver, copied from the session template so user-registered
  // simplification rules apply, then configured for this function
  // (rc::tactics, lemmas). Jobs never share a solver: its extra-solver
  // list, lemma table, and statistics are all per-function state.
  pure::PureSolver Solver = SolverProto;
  Solver.setPortfolioMode(Opts.Portfolio);
  Solver.clearExtraSolvers();
  Solver.clearLemmas();
  for (const std::string &T : Spec->Tactics) {
    if (T == "multiset_solver" || T == "set_solver")
      Solver.enableSolver(T);
  }
  for (const auto &[LName, LProp, LLines] : Spec->Lemmas)
    Solver.addLemma({LName, LProp, LLines});

  // Per-job diagnostics: loop-invariant parse errors surface through
  // FnResult::Error, never through the session's DiagnosticEngine (which
  // is not safe to share between concurrent jobs).
  rcc::DiagnosticEngine JobDiags;

  // The job's arena: every goal, judgment and type built while verifying
  // this function lives in it and is destroyed on return. Declared before
  // the engines and the verify context, which refer to its nodes; nothing
  // of it escapes into Res, which holds only stats, diagnostics and the
  // derivation's rule names and terms.
  NodeArena JobArena;
  NodeArenaScope ArenaScope(JobArena);

  VerifyCtx C;
  C.AP = &AP;
  C.Env = &Env;
  C.Fn = Fn;
  C.FI = &FI;
  C.Spec = Spec;
  C.GlobalAtoms = GlobalAtoms;

  // Spec scope for loop invariants: parameters and ret-existentials.
  SpecScope Scope;
  for (const auto &[N, S] : Spec->Params)
    Scope[N] = S;

  // Entry slot types: argument specs, uninit for locals.
  std::map<std::string, TypeRef> EntryTypes;
  for (size_t I = 0; I < Fn->Params.size(); ++I)
    EntryTypes[Fn->Params[I].first] = Spec->Args[I];
  for (const auto &[LName, LSize] : Fn->Locals)
    EntryTypes[LName] = tyUninit(mkNat(static_cast<int64_t>(LSize)));

  // Parse loop invariants; unlisted slots implicitly keep their entry types
  // (they must not have changed, which the proof at the cut point checks).
  for (const auto &As : FI.LoopAnnots) {
    auto Inv = parseLoopInv(As, Scope, JobDiags);
    if (!Inv) {
      Res.Error = "failed to parse a loop invariant in '" + Name + "'";
      return Res;
    }
    std::set<std::string> Listed;
    for (const auto &[V, T] : Inv->InvVars)
      Listed.insert(V);
    for (const auto &[SlotName, Ty] : EntryTypes)
      if (!Listed.count(SlotName))
        Inv->InvVars.push_back({SlotName, Ty});
    C.LoopInvs.push_back(std::move(*Inv));
  }

  pure::EvarEnv Evars;
  Engine E(*Rules, Solver, Evars, Res.Stats, &Res.Deriv);
  E.Ctx = &C;
  E.BacktrackMode = Opts.Backtracking;
  E.MaxStepsOverride =
      Opts.MaxSteps ? Opts.MaxSteps : (Opts.Backtracking ? 20000u : 0u);

  // Seed the initial contexts: argument atoms, local slots, requires.
  for (size_t I = 0; I < Fn->Params.size(); ++I)
    E.pushAtom(ResAtom::loc(mkVar("&" + Fn->Params[I].first, Sort::Loc),
                            Spec->Args[I]));
  for (const auto &[LName, LSize] : Fn->Locals)
    E.pushAtom(ResAtom::loc(mkVar("&" + LName, Sort::Loc),
                            tyUninit(mkNat(static_cast<int64_t>(LSize)))));
  for (const ResAtom &A : Spec->Requires)
    E.pushAtom(A);
  for (const ResAtom &A : GlobalAtoms)
    E.pushAtom(A);
  C.Gamma0 = E.Gamma;

  // The entry path.
  lithium::Judgment J0;
  J0.K = JudgKind::Stmt;
  J0.Fn = Fn;
  J0.BlockId = 0;
  J0.StmtIdx = 0;
  bool Ok;
  {
    trace::Span EntrySpan(trace::Category::Checker, "checker.entry");
    Ok = E.prove(gJudg(std::move(J0)));
  }

  // Each loop-invariant block, once, from the invariant.
  while (Ok && !C.PendingBlocks.empty()) {
    unsigned B = C.PendingBlocks.back();
    C.PendingBlocks.pop_back();
    int Id = Fn->Blocks[B].AnnotId;
    const LoopInv &Inv = C.LoopInvs[Id];
    trace::Span CutSpan(trace::Category::Checker,
                        std::string("checker.cutpoint"),
                        trace::current() ? "\"block\": " + std::to_string(B)
                                         : std::string());

    Engine E2(*Rules, Solver, Evars, Res.Stats, &Res.Deriv);
    E2.Ctx = &C;
    E2.BacktrackMode = Opts.Backtracking;
    E2.MaxStepsOverride =
        Opts.MaxSteps ? Opts.MaxSteps : (Opts.Backtracking ? 20000u : 0u);
    E2.Gamma = C.Gamma0;
    // Existentials of the invariant become universals when assuming it.
    std::map<std::string, TermRef> Subst;
    for (const auto &[N, S] : Inv.ExVars)
      Subst[N] = E2.freshUniversal(N, S);
    for (const auto &[SlotName, Ty] : Inv.InvVars) {
      TypeRef T = Ty;
      for (const auto &[N2, R2] : Subst)
        T = substTypeVar(T, N2, R2);
      E2.pushAtom(
          ResAtom::loc(mkVar("&" + SlotName, Sort::Loc), T));
    }
    for (TermRef Phi : Inv.Constraints) {
      TermRef P = Phi;
      for (const auto &[N2, R2] : Subst)
        P = substVar(P, N2, R2);
      E2.addFact(P);
    }
    for (const ResAtom &A : GlobalAtoms)
      E2.pushAtom(A);

    lithium::Judgment JB;
    JB.K = JudgKind::Stmt;
    JB.Fn = Fn;
    JB.BlockId = B;
    JB.StmtIdx = 0;
    Ok = E2.prove(gJudg(std::move(JB)));
    Res.BacktrackedSteps += E2.BacktrackedSteps;
    if (!Ok) {
      Res.Error = E2.Failure;
      Res.ErrorLoc = E2.FailureLoc;
      Res.ErrorContext = E2.FailureContext;
      Res.FailedRule = E2.FailureRule.name();
    }
  }
  Res.BacktrackedSteps += E.BacktrackedSteps;

  if (!Ok && Res.Error.empty()) {
    Res.Error = E.Failure;
    Res.ErrorLoc = E.FailureLoc;
    Res.ErrorContext = E.FailureContext;
    Res.FailedRule = E.FailureRule.name();
  }
  Res.Verified = Ok;
  Res.EvarsInstantiated = Evars.numInstantiated();

  // Foundational pass: replay the recorded derivation through the
  // independent ProofChecker. The backtracking baseline's derivations are
  // not replayable (rolled-back steps are not recorded as such).
  if (Opts.Recheck && Res.Verified && !Opts.Backtracking) {
    std::vector<pure::Lemma> Lemmas;
    for (const auto &[LN, LP, LL] : Spec->Lemmas)
      Lemmas.push_back({LN, LP, LL});
    ProofChecker PC(*Rules);
    Res.Rechecked = true;
    Res.RecheckOk = PC.check(Res.Deriv, Lemmas).Ok;
  }
  return Res;
}

uint64_t Checker::sessionFingerprint(const VerifyOptions &Opts) const {
  // Anything a user extension can mutate between runs (registered typing
  // rules, simplifier rules) plus every option that changes the result —
  // Jobs is deliberately excluded, results are job-count-independent by
  // construction.
  ContentHasher H;
  // The registry fingerprint covers every rule's name, kind, priority and
  // dispatch key (plus a dispatch-format salt), so persisted results also
  // self-invalidate when dispatch semantics change, not just when the rule
  // count does.
  H.mix(Rules->fingerprint());
  for (const auto &R : SolverProto.simplifier().rules())
    H.mix(R.Name);
  // Only options that change the *verdict* participate: Recheck alters
  // trust metadata, which probeStore re-establishes per hit (replay for
  // the disk tier, the strictness guard for L1), so keying on it would
  // only split one cache directory between runs with and without
  // --no-recheck — an entry a --no-recheck run publishes must still serve
  // a later rechecking run, which replays it.
  H.mix(static_cast<uint64_t>(Opts.Backtracking))
      .mix(static_cast<uint64_t>(Opts.MaxSteps))
      // Off lacks the bit-vector backend and must not reuse portfolio-era
      // cache entries.
      .mix(static_cast<uint64_t>(Opts.Portfolio != pure::PortfolioMode::Off));
  return H.get();
}

lithium::RuleRegistry &Checker::ownRules() {
  if (!OwnRules) {
    OwnRules = std::make_unique<lithium::RuleRegistry>(*Rules);
    Rules = OwnRules.get();
  }
  return *OwnRules;
}

void Checker::invalidateCache() {
  // Only the in-memory tier is cleared: persistent entries self-invalidate
  // through their content-hash keys (the session fingerprint folds in the
  // rule count and simplifier rule names, so a mutated session simply
  // misses on every old entry).
  L1->clear();
}

void Checker::adoptStoreTiers(
    std::shared_ptr<store::MemoryResultStore> SharedL1,
    std::shared_ptr<store::DiskResultStore> SharedL2) {
  L1 = SharedL1 ? std::move(SharedL1)
                : std::make_shared<store::MemoryResultStore>();
  L2 = std::move(SharedL2);
}

void Checker::configureStore(const VerifyOptions &Opts) {
  if (Opts.CacheDir.empty() || Opts.NoCache)
    L2.reset();
  else if (!L2 || L2->dir() != Opts.CacheDir)
    L2 = std::make_shared<store::DiskResultStore>(Opts.CacheDir);
}

Checker::StoreHit Checker::probeStore(const std::string &Name,
                                      const FnRefs &Refs, uint64_t Key,
                                      const VerifyOptions &Opts, FnResult &Out,
                                      bool &StoredFailure, RunStoreStats &RS) {
  FnResult R;
  StoreHit Tier;
  if (L1->get(Name, Key, R))
    Tier = StoreHit::L1;
  else if (L2 && L2->get(Name, Key, R))
    Tier = StoreHit::L2;
  else
    return StoreHit::Miss;
  R.WallMillis = 0.0; // no check ran for this result

  if (Tier == StoreHit::L1) {
    // The in-memory tier this process populated. The key does not encode
    // Recheck (it does not change verdicts), so an entry computed under
    // laxer options can surface here; honor the stricter run by
    // recomputing instead of serving a certificate weaker than the caller
    // asked for.
    if (R.Verified && !R.Trusted &&
        ((Opts.Recheck && !R.Rechecked) || R.Deriv.Steps.empty()))
      return StoreHit::Miss;
  } else {
    // The entry came from the untrusted disk tier. Its envelope only
    // filtered corruption and staleness; trust is established by replaying
    // the recorded derivation through the independent ProofChecker — the
    // paper's search-untrusted / checker-trusted split, extended across
    // process boundaries.
    // --no-recheck downgrades this to content-hash trust. A failure carries
    // no proof to replay, and a forged one would hide a function that
    // verifies, so it is verified afresh; an rc::trust_me result is
    // surfaced as stored.
    const FnSpec *Spec = Refs.Spec;
    // An assumed result is only ever computed for a spec that carries
    // rc::trust_me. The entry's own Trusted flag proves nothing: an entry
    // that claims it for any other function is dropped and the function
    // re-verified.
    if (R.Trusted && (!Spec || !Spec->TrustMe)) {
      RS.ReplayFailures.fetch_add(1, std::memory_order_relaxed);
      L2->drop(Name, Key);
      return StoreHit::Miss;
    }
    if (Opts.Recheck && !R.Verified) {
      StoredFailure = true;
      Out = std::move(R);
      return StoreHit::Miss;
    }
    if (Opts.Recheck && R.Verified && !R.Trusted) {
      if (R.Deriv.Steps.empty())
        return StoreHit::Miss; // stored without a derivation: cannot re-certify
      trace::Span ReplaySpan(trace::Category::Cache, "store.l2.replay");
      auto T0 = std::chrono::steady_clock::now();
      std::vector<pure::Lemma> Lemmas;
      if (Spec)
        for (const auto &[LN, LP, LL] : Spec->Lemmas)
          Lemmas.push_back({LN, LP, LL});
      ProofChecker PC(*Rules);
      bool Ok = PC.check(R.Deriv, Lemmas).Ok;
      auto T1 = std::chrono::steady_clock::now();
      RS.ReplayNs.fetch_add(
          static_cast<uint64_t>(std::chrono::nanoseconds(T1 - T0).count()),
          std::memory_order_relaxed);
      RS.Replays.fetch_add(1, std::memory_order_relaxed);
      if (!Ok) {
        // A well-formed entry whose proof does not replay. Drop its file
        // and fall back to a fresh verification.
        RS.ReplayFailures.fetch_add(1, std::memory_order_relaxed);
        L2->drop(Name, Key);
        return StoreHit::Miss;
      }
      R.Rechecked = true;
      R.RecheckOk = true;
    }
    // Validated (or hash-trusted under --no-recheck): put it into the
    // trusted in-memory L1, so repeated runs hit the cheapest tier.
    L1->put(Name, Key, R);
  }

  R.CacheHit = true;
  Out = std::move(R);
  return Tier;
}

ProgramResult Checker::verifyFunctions(const std::vector<std::string> &Names,
                                       const VerifyOptions &Opts) {
  ProgramResult PR;
  PR.JobsUsed = ThreadPool::resolveJobs(Opts.Jobs);
  auto Start = std::chrono::steady_clock::now();

  // Resolve the trace session: an explicit Opts.Trace wins, then the
  // thread's ambient session; otherwise, if an export was requested, an
  // internal session is created for just this run. The pool propagates the
  // installed session to its workers.
  trace::TraceSession *TS = Opts.Trace ? Opts.Trace : trace::current();
  std::unique_ptr<trace::TraceSession> OwnedTS;
  if (!TS && (!Opts.TraceFile.empty() || Opts.Profile)) {
    OwnedTS = std::make_unique<trace::TraceSession>(Opts.DeterministicTrace,
                                                    Opts.TraceEventCap);
    TS = OwnedTS.get();
  }
  trace::SessionScope TraceScope(TS);
  // Closed explicitly before the exports below so the emitted trace has
  // balanced begin/end events.
  std::optional<trace::Span> RunSpan;
  RunSpan.emplace(trace::Category::Checker, "checker.run");

  // L1 is always there; the run's CacheDir names L2.
  configureStore(Opts);
  const bool UseStore = !Opts.NoCache;
  // Each job resolves its name here instead of in the maps; a name that
  // is no function of the unit resolves through them.
  const auto Index = indexFunctions();

  // Content keys key the store only, so a run without one skips them. The
  // two fingerprints every key folds in are computed once per run; each
  // function's own key is computed by its job.
  uint64_t EnvFp = 0, SessionFp = 0;
  if (UseStore) {
    EnvFp = hashSpecEnvironment(AP);
    SessionFp = sessionFingerprint(Opts);
  }

  PR.Fns.resize(Names.size());
  std::vector<StoreHit> Hits(Names.size(), StoreHit::Miss);
  RunStoreStats RS;
  // The disk tier's lifetime corrupt-drop count: its delta over the run is
  // the run's own.
  auto DiskCorruptDrops = [this]() -> uint64_t {
    return L2 ? L2->corruptDrops() : 0;
  };
  const uint64_t CorruptBase = DiskCorruptDrops();

  // Each job keys its function, probes L1 and L2 at job start (with the
  // replay) and publishes to both at job end.
  ThreadPool Pool(PR.JobsUsed);
  Pool.parallelFor(Names.size(), [&](size_t I) {
    auto It = Index.find(Names[I]);
    const FnRefs Refs = It == Index.end() ? resolve(Names[I]) : It->second;
    if (!UseStore) {
      PR.Fns[I] = verify(Names[I], Refs, Opts);
      return;
    }
    const uint64_t Key = hashFunctionContent(AP, Names[I], Refs.Info, Refs.Fn,
                                             EnvFp, SessionFp);
    FnResult &R = PR.Fns[I];
    bool StoredFailure = false;
    Hits[I] = probeStore(Names[I], Refs, Key, Opts, R, StoredFailure, RS);
    if (Hits[I] != StoreHit::Miss)
      return;
    const std::string Stored =
        StoredFailure ? store::serializeFnResult(R) : std::string();
    R = verify(Names[I], Refs, Opts);
    // The store keeps verdicts, not timings: a hit did no work, and an
    // entry's bytes then depend only on its function, never on the run.
    const double Wall = std::exchange(R.WallMillis, 0.0);
    L1->put(Names[I], Key, R);
    // The same failure L2 already stores keeps its entry file as it is.
    if (L2 && !(StoredFailure && store::serializeFnResult(R) == Stored))
      L2->put(Names[I], Key, R);
    R.WallMillis = Wall;
  });

  for (StoreHit H : Hits) {
    if (H == StoreHit::Miss) {
      ++PR.CacheMisses;
      continue;
    }
    ++PR.CacheHits;
    ++(H == StoreHit::L1 ? PR.L1Hits : PR.L2Hits);
  }
  PR.ReplayedHits = static_cast<unsigned>(RS.Replays.load());
  PR.ReplayFailures = static_cast<unsigned>(RS.ReplayFailures.load());
  PR.ReplayMillis = static_cast<double>(RS.ReplayNs.load()) / 1e6;
  PR.CorruptDrops = static_cast<unsigned>(DiskCorruptDrops() - CorruptBase);

  if (TS) {
    // Fold the per-function EngineStats into the session registry —
    // serially, in index order, from the joined results, so the totals are
    // schedule- and job-count-independent. The engines never live-bump
    // these (they only bump counters EngineStats does not cover).
    trace::MetricsRegistry &MR = TS->metrics();
    for (size_t I = 0; I < PR.Fns.size(); ++I) {
      if (Hits[I] != StoreHit::Miss)
        continue; // store hits did no engine work this run
      const EngineStats &ES = PR.Fns[I].Stats;
      MR.counter("engine.rule_apps").add(ES.RuleApps);
      MR.counter("engine.goal_steps").add(ES.GoalSteps);
      MR.counter("engine.side_cond_auto").add(ES.SideCondAuto);
      MR.counter("engine.side_cond_manual").add(ES.SideCondManual);
      MR.counter("engine.rule.index_hits").add(ES.IndexHits);
      MR.counter("engine.rule.scan_fallbacks").add(ES.ScanFallbacks);
      MR.counter("engine.rule.matches").add(ES.MatchesEvals);
    }
    MR.counter("cache.hits").add(PR.CacheHits);
    MR.counter("cache.misses").add(PR.CacheMisses);
    if (UseStore) {
      // Per-tier store accounting, mirrored from the joined results (and,
      // for corrupt drops, from the disk tier's own lifetime counter) so
      // the exported values are schedule-independent.
      MR.counter("store.l1.hits").add(PR.L1Hits);
      if (L2) {
        MR.counter("store.l2.hits").add(PR.L2Hits);
        MR.counter("store.l2.replays").add(PR.ReplayedHits);
        MR.counter("store.l2.replay_failures").add(PR.ReplayFailures);
        MR.duration("store.l2.replay_us")
            .add(std::chrono::nanoseconds(RS.ReplayNs.load()));
        MR.counter("store.l2.corrupt_drops").add(PR.CorruptDrops);
      }
    }
    MR.counter("checker.functions").add(Names.size());
  }

  auto End = std::chrono::steady_clock::now();
  PR.WallMillis =
      std::chrono::duration<double, std::milli>(End - Start).count();

  // Deterministic mode extends the byte-identical guarantee from traces to
  // the ProgramResult itself: wall times are the only schedule-dependent
  // fields, so zeroing them makes `--format=json --deterministic-trace`
  // output comparable across job counts and runs.
  if (Opts.DeterministicTrace) {
    PR.WallMillis = 0.0;
    PR.ReplayMillis = 0.0;
    for (FnResult &R : PR.Fns)
      R.WallMillis = 0.0;
  }

  RunSpan.reset();
  if (TS) {
    PR.Metrics = TS->metrics().toJson(TS->deterministic());
    if (Opts.Profile)
      PR.ProfileReport = trace::renderProfile(*TS);
    if (!Opts.TraceFile.empty()) {
      std::string Err;
      if (!trace::writeChromeTrace(*TS, Opts.TraceFile, &Err))
        fprintf(stderr, "warning: %s\n", Err.c_str());
    }
  }
  return PR;
}

ProgramResult Checker::verifyAll(const VerifyOptions &Opts) {
  std::vector<std::string> Names;
  // Both maps are ordered by name: one merge pass pairs them.
  auto SIt = Env.FnSpecs.begin();
  for (const auto &[Name, FI] : AP.Fns) {
    while (SIt != Env.FnSpecs.end() && SIt->first < Name)
      ++SIt;
    if (SIt == Env.FnSpecs.end() || SIt->first != Name)
      continue; // unannotated functions (e.g. test mains) are not verified
    if (!FI.HasBody && !SIt->second->TrustMe)
      continue;
    Names.push_back(Name);
  }
  return verifyFunctions(Names, Opts);
}
