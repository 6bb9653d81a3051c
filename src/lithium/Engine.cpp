//===- Engine.cpp ---------------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "lithium/Engine.h"

#include "caesium/Ast.h"
#include "support/Hash.h"
#include "support/Util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace rcc::lithium;
using namespace rcc::refinedc;
using namespace rcc::pure;

//===----------------------------------------------------------------------===//
// Rule keys
//===----------------------------------------------------------------------===//

RuleKey RuleKey::onTy(std::initializer_list<TypeKind> Ks) {
  RuleKey K;
  for (TypeKind T : Ks)
    K.Head.push_back(static_cast<uint16_t>(T));
  return K;
}

RuleKey RuleKey::onTyNot(std::initializer_list<TypeKind> Ks) {
  RuleKey K;
  for (uint32_t I = 0; I < NumTypeKinds; ++I) {
    bool Excluded = false;
    for (TypeKind T : Ks)
      Excluded |= static_cast<uint32_t>(T) == I;
    if (!Excluded)
      K.Head.push_back(static_cast<uint16_t>(I));
  }
  return K;
}

RuleKey RuleKey::onPair(std::initializer_list<TypeKind> Have,
                        std::initializer_list<TypeKind> WantKs) {
  RuleKey K;
  for (TypeKind T : Have)
    K.Head.push_back(static_cast<uint16_t>(T));
  for (TypeKind T : WantKs)
    K.Want.push_back(static_cast<uint16_t>(T));
  return K;
}

//===----------------------------------------------------------------------===//
// Rule registry
//===----------------------------------------------------------------------===//

/// The constructor of \p T, through Constraint wrappers. Purely structural:
/// evar resolution rewrites terms only, never the type head, so this agrees
/// with the kind of the resolveTy'd type.
static TypeKind peeledKind(TypeRef T) {
  while (T->K == TypeKind::Constraint)
    T = T->Children[0];
  return T->K;
}

/// Packs a (have, want) peeled-kind pair into one bucket discriminator.
static uint32_t packPair(uint32_t Have, uint32_t Want) {
  return Have * NumTypeKinds + Want;
}

uint32_t RuleRegistry::discriminatorOf(const Judgment &J) {
  switch (J.K) {
  case JudgKind::IfJ:
  case JudgKind::ReadJ:
  case JudgKind::WriteJ:
  case JudgKind::CASJ:
  case JudgKind::CallJ:
    // Null payloads occur only in hand-built test judgments; real goals
    // always carry their scrutinee. 0 (= TypeKind::Int's bucket) is a safe
    // answer for those: selection still runs the wildcard list.
    return J.T1 ? static_cast<uint32_t>(peeledKind(J.T1)) : 0;
  case JudgKind::BinOpJ:
  case JudgKind::UnOpJ:
    return static_cast<uint32_t>(J.Op);
  case JudgKind::SubsumeV:
  case JudgKind::SubsumeL:
    if (!J.T1 || !J.T2)
      return 0;
    return packPair(static_cast<uint32_t>(peeledKind(J.T1)),
                    static_cast<uint32_t>(peeledKind(J.T2)));
  case JudgKind::BlockJ:
    return J.Fn && J.Fn->Blocks[J.BlockId].AnnotId >= 0 ? 1 : 0;
  case JudgKind::Stmt:
  case JudgKind::Expr:
    break;
  }
  return 0;
}

RuleRegistry::RuleRegistry(const RuleRegistry &O)
    : Mode(O.Mode), Fp(O.Fp) {
  std::vector<const Rule *> All;
  for (const auto &[K, T] : O.Kinds)
    for (const Rule &R : T.All)
      All.push_back(&R);
  std::sort(All.begin(), All.end(),
            [](const Rule *A, const Rule *B) { return A->Seq < B->Seq; });
  for (const Rule *R : All)
    insert(*R);
}

void RuleRegistry::add(std::vector<Rule> Rs) {
  for (Rule &R : Rs)
    insert(std::move(R));
  Fp = hashSchema();
}

void RuleRegistry::add(Rule R) {
  insert(std::move(R));
  Fp = hashSchema();
}

void RuleRegistry::insert(Rule R) {
  R.Lbl = Label::intern(R.Name);
  if (R.Lbl.id() >= ByLabel.size())
    ByLabel.resize(R.Lbl.id() + 1, nullptr);
  if (ByLabel[R.Lbl.id()]) {
    std::fprintf(stderr,
                 "rcc: duplicate typing rule registration '%s' — rule names "
                 "key derivation replay and must be unique\n",
                 R.Name.c_str());
    std::abort();
  }
  R.Seq = NextSeq++;
  KindTable &T = Kinds[R.Kind];
  T.All.push_back(std::move(R));
  const Rule &Stored = T.All.back();
  ByLabel[Stored.Lbl.id()] = &Stored;
  ++NumRulesTotal;

  const RuleKey &K = Stored.Key;
  if (K.wildcard()) {
    T.Wildcards.push_back(&Stored);
    return;
  }
  T.AnyIndexed = true;
  bool IsPair =
      Stored.Kind == JudgKind::SubsumeV || Stored.Kind == JudgKind::SubsumeL;
  auto bucket = [&](uint32_t D) { T.Buckets[D].push_back(&Stored); };
  if (!IsPair) {
    // Single-dimension kinds: Want is meaningless, Head lists the values.
    for (uint16_t H : K.Head)
      bucket(H);
    return;
  }
  if (K.Diagonal) {
    for (uint32_t I = 0; I < NumTypeKinds; ++I)
      bucket(packPair(I, I));
    return;
  }
  // Pair kinds: an empty dimension is a wildcard over all TypeKinds.
  std::vector<uint16_t> Have(K.Head), Want(K.Want);
  if (Have.empty())
    for (uint32_t I = 0; I < NumTypeKinds; ++I)
      Have.push_back(static_cast<uint16_t>(I));
  if (Want.empty())
    for (uint32_t I = 0; I < NumTypeKinds; ++I)
      Want.push_back(static_cast<uint16_t>(I));
  for (uint16_t H : Have)
    for (uint16_t W : Want)
      bucket(packPair(H, W));
}

uint64_t RuleRegistry::hashSchema() const {
  // The dispatch schema, per judgment kind in registration order.
  ContentHasher H;
  H.mix("rule-dispatch-v2"); // format salt: bump on dispatch-semantics change
  H.mix(NumRulesTotal);
  for (const auto &[K, T] : Kinds) {
    for (const Rule &R : T.All) {
      H.mix(R.Name);
      H.mix(static_cast<uint64_t>(R.Kind));
      H.mix(static_cast<uint64_t>(static_cast<int64_t>(R.Priority)));
      H.mix(R.Key.Diagonal ? 1 : 0);
      H.mix(R.Key.Head.size());
      for (uint16_t V : R.Key.Head)
        H.mix(V);
      H.mix(R.Key.Want.size());
      for (uint16_t V : R.Key.Want)
        H.mix(V);
    }
  }
  return H.get();
}

template <typename F>
void RuleRegistry::forEachCandidate(const KindTable &T, uint32_t D, F &&Fn) {
  const std::vector<const Rule *> *B = nullptr;
  if (T.AnyIndexed) {
    auto It = T.Buckets.find(D);
    if (It != T.Buckets.end())
      B = &It->second;
  }
  const auto &W = T.Wildcards;
  size_t I = 0, K = 0, NB = B ? B->size() : 0;
  while (I < NB || K < W.size()) {
    if (K >= W.size() || (I < NB && (*B)[I]->Seq < W[K]->Seq))
      Fn(*(*B)[I++]);
    else
      Fn(*W[K++]);
  }
}

namespace {
/// Running best-candidate state, shared by the linear and indexed paths so
/// selection semantics (highest priority wins, equal-priority tie is an
/// ambiguity error) are identical by construction.
struct SelectState {
  const Rule *Best = nullptr;
  bool Ambiguous = false;
};
} // namespace

const Rule *RuleRegistry::lookup(Engine &E, const Judgment &J,
                                 std::string &Err) const {
  auto It = Kinds.find(J.K);
  if (It == Kinds.end()) {
    Err = "no typing rules registered for judgment '" +
          std::string(judgKindName(J.K)) + "'";
    return nullptr;
  }
  const KindTable &T = It->second;
  EngineStats &ES = E.stats();

  auto consider = [&](SelectState &S, const Rule &R, std::string &E2) {
    // A null Matches is a total rule: the key is the whole dispatch
    // condition, so there is no residual guard to evaluate (or count).
    if (R.Matches) {
      ++ES.MatchesEvals;
      if (!R.Matches(E, J))
        return;
    }
    if (!S.Best || R.Priority > S.Best->Priority) {
      S.Best = &R;
      S.Ambiguous = false;
    } else if (R.Priority == S.Best->Priority) {
      S.Ambiguous = true;
      E2 = "ambiguous typing rules '" + S.Best->Name + "' and '" + R.Name +
           "' for " + J.str() +
           " (Lithium requires a unique applicable rule)";
    }
  };
  auto runScan = [&](std::string &E2) {
    SelectState S;
    for (const Rule &R : T.All)
      consider(S, R, E2);
    return S;
  };
  auto runIndexed = [&](std::string &E2) {
    SelectState S;
    size_t Considered = 0;
    forEachCandidate(T, discriminatorOf(J), [&](const Rule &R) {
      ++Considered;
      consider(S, R, E2);
    });
    // A lookup counts as indexed when the candidate set was pruned (or the
    // kind has a single rule, where there is nothing to prune); a full-width
    // walk of a multi-rule kind is a scan fallback — the check.sh gate keeps
    // those near zero on the corpus.
    if (T.All.size() > 1 && !(T.AnyIndexed && Considered < T.All.size()))
      ++ES.ScanFallbacks;
    else
      ++ES.IndexHits;
    return S;
  };

  SelectState S;
  if (Mode == DispatchMode::Linear) {
    S = runScan(Err);
  } else {
    S = runIndexed(Err);
    if (Mode == DispatchMode::CrossCheck) {
      std::string E2;
      SelectState S2 = runScan(E2);
      if (S2.Best != S.Best || S2.Ambiguous != S.Ambiguous)
        XMismatch.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!S.Best) {
    Err = "no typing rule applies to " + J.str();
    return nullptr;
  }
  if (S.Ambiguous)
    return nullptr;
  return S.Best;
}

std::vector<const Rule *> RuleRegistry::lookupAll(Engine &E,
                                                  const Judgment &J,
                                                  bool Ascending) const {
  auto It = Kinds.find(J.K);
  if (It == Kinds.end())
    return {};
  const KindTable &T = It->second;
  EngineStats &ES = E.stats();

  auto sortByPriority = [Ascending](std::vector<const Rule *> &V) {
    // stable: equal-priority rules keep registration order, making the
    // backtracking-ablation baseline deterministic.
    std::stable_sort(V.begin(), V.end(),
                     [Ascending](const Rule *A, const Rule *B) {
                       return Ascending ? A->Priority < B->Priority
                                        : A->Priority > B->Priority;
                     });
  };
  auto collectScan = [&](bool Count) {
    std::vector<const Rule *> Out;
    for (const Rule &R : T.All) {
      if (R.Matches && Count)
        ++ES.MatchesEvals;
      if (!R.Matches || R.Matches(E, J))
        Out.push_back(&R);
    }
    sortByPriority(Out);
    return Out;
  };

  if (Mode == DispatchMode::Linear)
    return collectScan(/*Count=*/true);

  std::vector<const Rule *> Out;
  size_t Considered = 0;
  forEachCandidate(T, discriminatorOf(J), [&](const Rule &R) {
    ++Considered;
    if (R.Matches)
      ++ES.MatchesEvals;
    if (!R.Matches || R.Matches(E, J))
      Out.push_back(&R);
  });
  if (T.All.size() > 1 && !(T.AnyIndexed && Considered < T.All.size()))
    ++ES.ScanFallbacks;
  else
    ++ES.IndexHits;
  sortByPriority(Out);
  if (Mode == DispatchMode::CrossCheck && Out != collectScan(/*Count=*/false))
    XMismatch.fetch_add(1, std::memory_order_relaxed);
  return Out;
}

//===----------------------------------------------------------------------===//
// Failure and context rendering
//===----------------------------------------------------------------------===//

void Engine::fail(const std::string &Msg, rcc::SourceLoc Loc) {
  if (!Failure.empty())
    return; // keep the first (deepest) failure
  Failure = Msg;
  FailureLoc = Loc.isValid() ? Loc : CurrentLoc;
  FailureContext = renderContext();
  FailureRule = CurrentRule;
}

std::vector<std::string> Engine::renderContext() const {
  std::vector<std::string> Out;
  for (TermRef T : Gamma)
    Out.push_back("H : " + Evars.resolve(T)->str());
  for (const ResAtom &A : Delta) {
    ResAtom R = A;
    if (R.Subject)
      R.Subject = Evars.resolve(R.Subject);
    if (R.Ty)
      R.Ty = resolveType(R.Ty, Evars);
    Out.push_back(R.str());
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Context manipulation
//===----------------------------------------------------------------------===//

TermRef Engine::freshUniversal(const std::string &Hint, Sort S) {
  std::string Name =
      (Hint.empty() ? "x" : Hint) + "!" + std::to_string(++FreshCounter);
  return mkVar(Name, S);
}

TermRef Engine::freshEvar(const std::string &Hint, Sort S) {
  return Evars.fresh(S, Hint);
}

void Engine::addFact(TermRef Phi) {
  for (TermRef F : Solver.simplifier().expandHyp(Evars.resolve(Phi))) {
    if (F->isFalse())
      Vacuous = true;
    Gamma.push_back(F);
  }
}

void Engine::pushAtom(ResAtom A) {
  if (A.K == ResAtom::Pure) {
    addFact(A.Prop);
    return;
  }
  A.Ty = resolveTy(A.Ty);
  if (A.Subject)
    A.Subject = resolve(A.Subject);
  const RType &T = *A.Ty;
  switch (T.K) {
  case TypeKind::Exists: {
    TermRef X = freshUniversal(T.Binder, T.BinderSort);
    ResAtom Inner = A;
    Inner.Ty = substTypeVar(T.Children[0], T.Binder, X);
    pushAtom(std::move(Inner));
    return;
  }
  case TypeKind::Constraint: {
    addFact(T.Refn);
    ResAtom Inner = A;
    Inner.Ty = T.Children[0];
    pushAtom(std::move(Inner));
    return;
  }
  case TypeKind::Struct: {
    if (A.K != ResAtom::LocType)
      break; // struct values are not split
    const caesium::StructLayout *L = T.Layout;
    assert(L && L->Fields.size() == T.Children.size() &&
           "struct type/layout mismatch");
    uint64_t Covered = 0;
    for (size_t I = 0; I < L->Fields.size(); ++I) {
      const caesium::FieldLayout &F = L->Fields[I];
      if (F.Offset > Covered)
        Delta.push_back(ResAtom::loc(locOffset(A.Subject, Covered),
                                     tyUninit(mkNat(F.Offset - Covered))));
      pushAtom(ResAtom::loc(locOffset(A.Subject, F.Offset), T.Children[I]));
      Covered = F.Offset + F.Ly.Size;
    }
    if (Covered < L->Size)
      Delta.push_back(ResAtom::loc(locOffset(A.Subject, Covered),
                                   tyUninit(mkNat(L->Size - Covered))));
    return;
  }
  case TypeKind::Padded: {
    if (A.K != ResAtom::LocType)
      break;
    uint64_t Inner = knownByteSize(T.Children[0]);
    if (Inner == 0)
      break; // cannot split without a known inner size
    pushAtom(ResAtom::loc(A.Subject, T.Children[0]));
    TermRef Rest = Solver.simplifier().simplify(
        mkSub(T.Size, mkNat(static_cast<int64_t>(Inner))));
    pushAtom(ResAtom::loc(locOffset(A.Subject, Inner), tyUninit(Rest)));
    return;
  }
  default:
    break;
  }
  Delta.push_back(std::move(A));
}

bool Engine::popValAtom(TermRef V, ResAtom &Out, rcc::SourceLoc Loc) {
  V = resolve(V);
  for (size_t I = 0; I < Delta.size(); ++I) {
    if (Delta[I].K != ResAtom::ValType)
      continue;
    if (resolve(Delta[I].Subject) != V)
      continue;
    Out = Delta[I];
    Delta.erase(Delta.begin() + I);
    record(DerivStep::AtomMatch, Builtin::PopVal);
    if (CtSubsumePop)
      CtSubsumePop->add(1);
    return true;
  }
  fail("no ownership found for value " + V->str(), Loc);
  return false;
}

bool Engine::popLocAtom(TermRef L, uint64_t Size, ResAtom &Out,
                        rcc::SourceLoc Loc) {
  for (int Round = 0; Round < 32; ++Round) {
    if (Round > 0 && CtSubsumeReshape)
      CtSubsumeReshape->add(1);
    L = resolve(L);
    // 1. Exact subject match. Composite types (named/struct/padded) whose
    //    size exceeds the requested access are unfolded/split first, so a
    //    field access into a folded struct lands on the field atom.
    bool Reshaped = false;
    for (size_t I = 0; I < Delta.size(); ++I) {
      if (Delta[I].K != ResAtom::LocType)
        continue;
      if (resolve(Delta[I].Subject) != L)
        continue;
      TypeRef Ty = resolveTy(Delta[I].Ty);
      bool Composite = Ty->K == refinedc::TypeKind::Named ||
                       Ty->K == refinedc::TypeKind::Struct ||
                       Ty->K == refinedc::TypeKind::Padded;
      // Named struct-refining types always unfold on access; named
      // pointer-typedef types (rc::ptr_type) behave like pointers and move.
      bool NamedStructLike = Ty->K == refinedc::TypeKind::Named &&
                             Ty->Def && !Ty->Def->IsPtrType;
      if (Composite && Size != 0 &&
          (knownByteSize(Ty) != Size || NamedStructLike)) {
        ResAtom A = Delta[I];
        Delta.erase(Delta.begin() + I);
        if (Ty->K == refinedc::TypeKind::Named)
          A.Ty = unfoldNamed(*Ty);
        else
          A.Ty = Ty;
        pushAtom(std::move(A)); // normalization splits struct/padded
        record(DerivStep::RuleApp, Builtin::UnfoldNamed);
        Reshaped = true;
        break;
      }
      // An uninit/any block larger than the requested access splits into
      // the accessed prefix and the remaining tail.
      if ((Ty->K == refinedc::TypeKind::Uninit ||
           Ty->K == refinedc::TypeKind::Any) &&
          Size != 0) {
        TermRef N = Ty->Size;
        bool Exact = N->isConst() && N->num() == static_cast<int64_t>(Size);
        if (!Exact) {
          TermRef SzT = mkNat(static_cast<int64_t>(Size));
          pure::SolveResult EqR = Solver.prove(Gamma, mkEq(SzT, N), Evars);
          if (!EqR.Proved) {
            TermRef Need = mkLe(SzT, N);
            pure::SolveResult SR = Solver.prove(Gamma, Need, Evars);
            if (SR.Proved) {
              recordSideCond(Need, SR);
              bool IsAny = Ty->K == refinedc::TypeKind::Any;
              TermRef Rest = Solver.simplifier().simplify(
                  Evars.resolve(mkSub(N, SzT)));
              Delta.erase(Delta.begin() + I);
              Delta.push_back(refinedc::ResAtom::loc(
                  locOffset(L, Size),
                  IsAny ? refinedc::tyAny(Rest) : refinedc::tyUninit(Rest)));
              Out = refinedc::ResAtom::loc(
                  L, IsAny ? refinedc::tyAny(SzT) : refinedc::tyUninit(SzT));
              record(DerivStep::AtomMatch, Builtin::PopLocSplit);
              if (CtSubsumePop)
                CtSubsumePop->add(1);
              return true;
            }
          }
        }
      }
      Out = Delta[I];
      Out.Subject = L;
      Out.Ty = Ty;
      Delta.erase(Delta.begin() + I);
      record(DerivStep::AtomMatch, Builtin::PopLoc);
      if (CtSubsumePop)
        CtSubsumePop->add(1);
      return true;
    }
    if (Reshaped)
      continue;

    TermRef Base;
    uint64_t Off = 0;
    bool HaveConstOff = splitLocConst(L, Base, Off);

    // 2. Split a covering uninit/any block.
    if (HaveConstOff && Size > 0) {
      bool Split = false;
      for (size_t I = 0; I < Delta.size(); ++I) {
        ResAtom &A = Delta[I];
        if (A.K != ResAtom::LocType)
          continue;
        TypeRef Ty = resolveTy(A.Ty);
        if (Ty->K != TypeKind::Uninit && Ty->K != TypeKind::Any)
          continue;
        TermRef ABase;
        uint64_t AOff = 0;
        if (!splitLocConst(resolve(A.Subject), ABase, AOff))
          continue;
        if (ABase != Base || AOff > Off)
          continue;
        uint64_t Lead = Off - AOff;
        // Need Lead + Size <= n.
        TermRef N = Ty->Size;
        TermRef Need =
            mkLe(mkNat(static_cast<int64_t>(Lead + Size)), N);
        pure::SolveResult SR = Solver.prove(Gamma, Need, Evars);
        if (!SR.Proved)
          continue;
        recordSideCond(Need, SR);
        // Split into [lead][target][rest].
        bool IsAny = Ty->K == TypeKind::Any;
        auto Piece = [&](TermRef Sz) {
          return IsAny ? tyAny(Sz) : tyUninit(Sz);
        };
        TermRef SubjA = A.Subject;
        Delta.erase(Delta.begin() + I);
        if (Lead > 0)
          Delta.push_back(ResAtom::loc(SubjA, Piece(mkNat(Lead))));
        Delta.push_back(
            ResAtom::loc(L, Piece(mkNat(static_cast<int64_t>(Size)))));
        TermRef Rest = Solver.simplifier().simplify(
            mkSub(N, mkNat(static_cast<int64_t>(Lead + Size))));
        if (!(Rest->isConst() && Rest->num() == 0))
          Delta.push_back(ResAtom::loc(
              locOffset(Base, Off + Size), Piece(Rest)));
        Split = true;
        break;
      }
      if (Split)
        continue;
    }

    // 3. Focus: extract the pointee of an &own whose target is our base, or
    //    unfold a named type sitting at our base.
    bool Focused = false;
    for (size_t I = 0; I < Delta.size() && !Focused; ++I) {
      ResAtom A = Delta[I];
      TypeRef Ty = resolveTy(A.Ty);
      // Unfold a named type at the base location.
      if (A.K == ResAtom::LocType && Ty->K == TypeKind::Named &&
          resolve(A.Subject) == Base && Base != L) {
        Delta.erase(Delta.begin() + I);
        ResAtom N = A;
        N.Ty = unfoldNamed(*Ty);
        pushAtom(std::move(N));
        record(DerivStep::RuleApp, Builtin::UnfoldNamed);
        Focused = true;
        break;
      }
      if (Ty->K != TypeKind::Own || !Ty->Refn)
        continue;
      TermRef Pointee = resolve(Ty->Refn);
      if (Pointee != Base)
        continue;
      // Extract ownership of the pointee.
      Delta.erase(Delta.begin() + I);
      if (A.K == ResAtom::LocType)
        Delta.push_back(ResAtom::loc(
            A.Subject, tyValueOf(Pointee, mkNat(caesium::PtrBytes))));
      pushAtom(ResAtom::loc(Pointee, Ty->Children[0]));
      record(DerivStep::RuleApp, Builtin::FocusOwn);
      Focused = true;
    }
    if (Focused)
      continue;

    // 4. Chase valueOf indirection: a slot containing exactly the pointer
    //    value `Base` whose ownership sits in a value atom.
    bool Chased = false;
    for (size_t I = 0; I < Delta.size(); ++I) {
      ResAtom &A = Delta[I];
      if (A.K != ResAtom::ValType)
        continue;
      if (resolve(A.Subject) != Base)
        continue;
      TypeRef Ty = resolveTy(A.Ty);
      if (Ty->K == TypeKind::Own) {
        // The value IS the pointer; its pointee ownership becomes a loc atom.
        Delta.erase(Delta.begin() + I);
        pushAtom(ResAtom::loc(Base, Ty->Children[0]));
        record(DerivStep::RuleApp, Builtin::FocusOwnVal);
        Chased = true;
        break;
      }
    }
    if (Chased)
      continue;

    break;
  }

  fail("no ownership found for location " + resolve(L)->str() +
           " (the location is not accessible in the current context)",
       Loc);
  return false;
}

void Engine::recordSideCond(TermRef Phi, const pure::SolveResult &R) {
  if (R.Manual)
    ++Stats.SideCondManual;
  else
    ++Stats.SideCondAuto;
  if (!Deriv)
    return;
  // The resolved Γ is built in a per-thread buffer; only a list no step
  // of this process recorded before is copied into the hypothesis table.
  thread_local std::vector<TermRef> Resolved;
  Resolved.clear();
  for (TermRef H : Gamma)
    Resolved.push_back(Evars.resolve(H));
  Deriv->Steps.push_back({DerivStep::SideCond, R.Manual,
                          Label::intern(R.Engine), Evars.resolve(Phi),
                          HypList::intern(Resolved)});
}

bool Engine::flushPending(bool Final) {
  for (size_t I = 0; I < Pending.size();) {
    auto [Phi, Loc] = Pending[I];
    bool Ground = !containsEVar(Evars.resolve(Phi));
    if (!Ground && !Final) {
      ++I;
      continue;
    }
    pure::SolveResult R = Solver.prove(Gamma, Phi, Evars);
    if (R.Proved) {
      recordSideCond(Phi, R);
      Pending.erase(Pending.begin() + I);
      continue;
    }
    if (Ground || Final) {
      record(DerivStep::SideCond, Builtin::Failed, Evars.resolve(Phi));
      fail("Cannot prove side condition!\nGoal: " + resolve(Phi)->str(), Loc);
      return false;
    }
    ++I;
  }
  return true;
}

bool Engine::solveSideCond(TermRef Phi, rcc::SourceLoc Loc) {
  pure::SolveResult R = Solver.prove(Gamma, Phi, Evars);
  if (!R.Proved) {
    // Postpone conditions that still mention unbound evars: the evars are
    // typically determined by the subsumptions that follow (Section 5).
    if (containsEVar(Evars.resolve(Phi))) {
      record(DerivStep::Intro, Builtin::Postpone, Evars.resolve(Phi));
      Pending.push_back({Phi, Loc});
      return true;
    }
    record(DerivStep::SideCond, Builtin::Failed, Evars.resolve(Phi));
    fail("Cannot prove side condition!\nGoal: " + resolve(Phi)->str(), Loc);
    return false;
  }
  recordSideCond(Phi, R);
  // Solving may have instantiated evars; postponed conditions may now be
  // ground (and must then hold).
  return flushPending(/*Final=*/false);
}

//===----------------------------------------------------------------------===//
// The search loop
//===----------------------------------------------------------------------===//

bool Engine::prove(GoalRef G) {
  // One span per prove() activation (top-level call and Conj/backtracking
  // recursion), not per goal step: goal steps are counted, not spanned, to
  // keep traced runs from drowning in hundreds of thousands of events.
  trace::Span ProveSpan(trace::Category::Engine, "engine.prove");
  const unsigned MaxSteps = MaxStepsOverride ? MaxStepsOverride : 400000;
  while (true) {
    if (trace::Counter *C = CtGoal[static_cast<size_t>(G->K)])
      C->add(1);
    // RCC_TRACE debug dump, through the mutex-guarded log: raw fprintf here
    // interleaved garbage under --jobs>1, and a getenv per goal step was
    // measurable (debugTraceLevel caches the environment read).
    if (int Dbg = debugTraceLevel()) {
      if (Stats.GoalSteps && Stats.GoalSteps % 1000 == 0)
        debugLog("[engine] step " + std::to_string(Stats.GoalSteps));
      if (Dbg >= 2 && G->K == GoalKind::Judg)
        debugLog("[goal] " + G->J->str().substr(0, 200));
    }
    if (++Stats.GoalSteps > MaxSteps) {
      fail("proof search exceeded its step budget (diverging rules?)");
      return false;
    }
    if (Vacuous)
      return true; // the branch assumption is False: holds vacuously
    switch (G->K) {
    case GoalKind::True:
      // All postponed side conditions must close with the goal.
      return flushPending(/*Final=*/true);
    case GoalKind::Conj: {
      // Case 2: fork Γ/Δ (evars are shared, as in sequential Lithium).
      std::vector<TermRef> SavedG = Gamma;
      std::vector<ResAtom> SavedD = Delta;
      auto SavedP = Pending;
      bool SavedV = Vacuous;
      if (!prove(G->A))
        return false;
      Gamma = std::move(SavedG);
      Delta = std::move(SavedD);
      Pending = std::move(SavedP);
      Vacuous = SavedV;
      G = G->B;
      continue;
    }
    case GoalKind::All: {
      TermRef X = freshUniversal(G->Binder, G->BSort);
      G = G->Body(X);
      continue;
    }
    case GoalKind::Ex: {
      TermRef X = freshEvar(G->Binder, G->BSort);
      G = G->Body(X);
      continue;
    }
    case GoalKind::WandH: {
      // Case 7: normalize the hypotheses into the contexts.
      for (const ResAtom &A : G->H)
        pushAtom(A);
      G = G->Next;
      continue;
    }
    case GoalKind::StarH: {
      GoalRef Out = nullptr;
      if (!proveStar(G->H, G->Next, Out))
        return false;
      G = Out;
      continue;
    }
    case GoalKind::Judg: {
      if (G->J->Loc.isValid())
        CurrentLoc = G->J->Loc;

      // Ablation baseline: try every matching rule, worst first, with full
      // rollback between attempts. Unlike the deterministic loop, this
      // recurses per rule application; cap the depth so pathological
      // searches fail instead of exhausting the stack.
      if (BacktrackMode) {
        if (++BtDepth > 2000) {
          --BtDepth;
          fail("backtracking search exceeded its depth budget");
          return false;
        }
        struct DepthGuard {
          unsigned &D;
          ~DepthGuard() { --D; }
        } Guard{BtDepth};
        std::vector<const Rule *> Cands =
            Rules.lookupAll(*this, *G->J, /*Ascending=*/true);
        if (Cands.empty()) {
          fail("no typing rule applies to " + G->J->str(), G->J->Loc);
          return false;
        }
        for (size_t I = 0; I < Cands.size(); ++I) {
          std::vector<TermRef> SavedG = Gamma;
          std::vector<ResAtom> SavedD = Delta;
          auto SavedP = Pending;
          bool SavedV = Vacuous;
          pure::EvarEnv SavedE = Evars;
          ++Stats.RuleApps;
          Stats.RulesUsed.insert(Cands[I]->Lbl);
          GoalRef Next = nullptr;
          {
            trace::Span RuleSpan(trace::Category::Rule, Cands[I]->Name);
            CurrentRule = Cands[I]->Lbl;
            Next = Cands[I]->Apply(*this, *G->J);
          }
          if (Next && prove(Next))
            return true;
          // Roll back and try the next candidate.
          ++BacktrackedSteps;
          Failure.clear();
          Gamma = std::move(SavedG);
          Delta = std::move(SavedD);
          Pending = std::move(SavedP);
          Vacuous = SavedV;
          Evars = SavedE;
        }
        fail("backtracking exhausted all rules for " + G->J->str(),
             G->J->Loc);
        return false;
      }

      // Case 5: unique rule application.
      std::string Err;
      const Rule *R = Rules.lookup(*this, *G->J, Err);
      if (!R) {
        fail(Err, G->J->Loc);
        return false;
      }
      ++Stats.RuleApps;
      Stats.RulesUsed.insert(R->Lbl);
      record(DerivStep::RuleApp, R->Lbl);
      GoalRef Next = nullptr;
      {
        trace::Span RuleSpan(trace::Category::Rule, R->Name);
        CurrentRule = R->Lbl;
        Next = R->Apply(*this, *G->J);
      }
      if (!Next) {
        if (Failure.empty())
          fail("rule '" + R->Name + "' failed on " + G->J->str(), G->J->Loc);
        return false;
      }
      G = Next;
      continue;
    }
    }
  }
}

bool Engine::proveStar(const ResList &H, GoalRef Next, GoalRef &Out) {
  // Case 6: process the first element of H; the rest is re-queued.
  assert(!H.empty() && "gStar normalizes empty H away");
  const ResAtom &A = H.front();
  ResList Rest(H.begin() + 1, H.end());
  GoalRef Cont = gStar(std::move(Rest), Next);

  if (A.K == ResAtom::Pure) {
    // Case 6c.
    if (!solveSideCond(A.Prop, {}))
      return false;
    Out = Cont;
    return true;
  }

  // Wand goals introduce directly (no related atom needed): assume the
  // hole, prove the result; whatever the sub-proof consumes is captured by
  // the wand (Section 2.2's partial data structures).
  if (A.K == ResAtom::LocType) {
    TypeRef Ty = resolveTy(A.Ty);
    while (Ty->K == refinedc::TypeKind::Constraint)
      Ty = resolveTy(Ty->Children[0]);
    if (Ty->K == refinedc::TypeKind::Wand) {
      ResAtom Hole = ResAtom::loc(Ty->WandLoc, Ty->Children[1]);
      ResAtom Result = ResAtom::loc(A.Subject, Ty->Children[0]);
      record(DerivStep::RuleApp, Builtin::WandIntroGoal);
      Out = gWand({Hole}, gStar({Result}, Cont));
      return true;
    }
  }

  // Case 6d: find the related atom and reduce to subsumption.
  Judgment J;
  J.V1 = A.Subject;
  J.T2 = A.Ty;
  J.KGoal = Cont;
  if (A.K == ResAtom::ValType) {
    ResAtom Found;
    if (!popValAtom(A.Subject, Found, {}))
      return false;
    J.K = JudgKind::SubsumeV;
    J.T1 = Found.Ty;
  } else {
    ResAtom Found;
    uint64_t Size = knownByteSize(A.Ty);
    if (!popLocAtom(A.Subject, Size, Found, {}))
      return false;
    J.K = JudgKind::SubsumeL;
    J.V1 = Found.Subject;
    J.T1 = Found.Ty;
  }
  Out = gJudg(std::move(J));
  return true;
}
