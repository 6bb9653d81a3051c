//===- Types.cpp ----------------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "refinedc/Types.h"

#include "pure/EvarEnv.h"
#include "support/Arena.h"

#include <sstream>

using namespace rcc::refinedc;
using namespace rcc::pure;
using rcc::newNode;

const char *rcc::refinedc::typeKindName(TypeKind K) {
  switch (K) {
  case TypeKind::Int:
    return "int";
  case TypeKind::Bool:
    return "bool";
  case TypeKind::Own:
    return "&own";
  case TypeKind::Uninit:
    return "uninit";
  case TypeKind::Null:
    return "null";
  case TypeKind::Optional:
    return "optional";
  case TypeKind::Wand:
    return "wand";
  case TypeKind::Struct:
    return "struct";
  case TypeKind::Exists:
    return "exists";
  case TypeKind::Constraint:
    return "constraint";
  case TypeKind::Padded:
    return "padded";
  case TypeKind::Named:
    return "named";
  case TypeKind::ValueOf:
    return "valueOf";
  case TypeKind::Place:
    return "place";
  case TypeKind::Array:
    return "array";
  case TypeKind::AtomicBool:
    return "atomicbool";
  case TypeKind::FnPtr:
    return "fn";
  case TypeKind::Any:
    return "any";
  }
  return "?";
}

std::string ResAtom::str() const {
  switch (K) {
  case LocType:
    return Subject->str() + " @l " + Ty->str();
  case ValType:
    return Subject->str() + " @v " + Ty->str();
  case Pure:
    return "[" + Prop->str() + "]";
  }
  return "?";
}

std::string RType::str() const {
  std::ostringstream OS;
  auto Ref = [&](const char *Inner) {
    if (Refn)
      OS << Refn->str() << " @ ";
    OS << Inner;
  };
  switch (K) {
  case TypeKind::Int:
    Ref(("int<" + Ity.str() + ">").c_str());
    return OS.str();
  case TypeKind::Bool:
    Ref("bool");
    return OS.str();
  case TypeKind::Own:
    Ref(("&own<" + Children[0]->str() + ">").c_str());
    return OS.str();
  case TypeKind::Uninit:
    return "uninit<" + Size->str() + ">";
  case TypeKind::Null:
    return "null";
  case TypeKind::Optional:
    return Refn->str() + " @ optional<" + Children[0]->str() + ", " +
           Children[1]->str() + ">";
  case TypeKind::Wand:
    return "wand<own " + WandLoc->str() + " : " + Children[1]->str() + ", " +
           Children[0]->str() + ">";
  case TypeKind::Struct: {
    OS << "struct " << (Layout ? Layout->Name : "?") << " [";
    for (size_t I = 0; I < Children.size(); ++I) {
      if (I)
        OS << ", ";
      OS << Children[I]->str();
    }
    OS << "]";
    return OS.str();
  }
  case TypeKind::Exists:
    return "exists " + Binder + ". " + Children[0]->str();
  case TypeKind::Constraint:
    return "{" + Children[0]->str() + " | " + Refn->str() + "}";
  case TypeKind::Padded:
    return "padded<" + Children[0]->str() + ", " + Size->str() + ">";
  case TypeKind::Named:
    Ref(Def->Name.c_str());
    return OS.str();
  case TypeKind::ValueOf:
    return "valueOf(" + Refn->str() + ")";
  case TypeKind::Place:
    return "place(" + Refn->str() + ")";
  case TypeKind::Array:
    Ref(("array<" + Children[0]->str() + ">").c_str());
    return OS.str();
  case TypeKind::AtomicBool:
    Ref("atomicbool");
    return OS.str();
  case TypeKind::FnPtr:
    return "fn<" + (Spec ? Spec->Name : std::string("?")) + ">";
  case TypeKind::Any:
    return "any<" + Size->str() + ">";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Builders
//===----------------------------------------------------------------------===//

namespace {
RType *mk(TypeKind K) {
  RType *T = newNode<RType>();
  T->K = K;
  return T;
}
} // namespace

TypeRef rcc::refinedc::tyInt(caesium::IntType Ity, TermRef Refn) {
  auto T = mk(TypeKind::Int);
  T->Ity = Ity;
  T->Refn = Refn;
  return T;
}
TypeRef rcc::refinedc::tyBool(caesium::IntType Ity, TermRef Refn) {
  auto T = mk(TypeKind::Bool);
  T->Ity = Ity;
  T->Refn = Refn;
  return T;
}
TypeRef rcc::refinedc::tyOwn(TypeRef Inner, TermRef Loc) {
  auto T = mk(TypeKind::Own);
  T->Children.push_back(std::move(Inner));
  T->Refn = Loc;
  return T;
}
TypeRef rcc::refinedc::tyUninit(TermRef Size) {
  auto T = mk(TypeKind::Uninit);
  T->Size = Size;
  return T;
}
TypeRef rcc::refinedc::tyNull() {
  // A static node: it outlives every arena.
  static const RType T = [] {
    RType N;
    N.K = TypeKind::Null;
    return N;
  }();
  return &T;
}
TypeRef rcc::refinedc::tyOptional(TermRef Phi, TypeRef T1, TypeRef T2) {
  auto T = mk(TypeKind::Optional);
  T->Refn = Phi;
  T->Children.push_back(std::move(T1));
  T->Children.push_back(std::move(T2));
  return T;
}
TypeRef rcc::refinedc::tyWand(TermRef HoleLoc, TypeRef HoleTy, TypeRef Inner) {
  auto T = mk(TypeKind::Wand);
  T->WandLoc = HoleLoc;
  T->Children.push_back(std::move(Inner)); // [0] = result
  T->Children.push_back(std::move(HoleTy)); // [1] = hole type
  return T;
}
TypeRef rcc::refinedc::tyStruct(const caesium::StructLayout *Layout,
                                std::vector<TypeRef> Fields) {
  auto T = mk(TypeKind::Struct);
  T->Layout = Layout;
  T->Children = std::move(Fields);
  return T;
}
TypeRef rcc::refinedc::tyExists(const std::string &Binder, Sort S,
                                TypeRef Body) {
  auto T = mk(TypeKind::Exists);
  T->Binder = Binder;
  T->BinderSort = S;
  T->Children.push_back(std::move(Body));
  return T;
}
TypeRef rcc::refinedc::tyConstraint(TypeRef Inner, TermRef Phi) {
  auto T = mk(TypeKind::Constraint);
  T->Refn = Phi;
  T->Children.push_back(std::move(Inner));
  return T;
}
TypeRef rcc::refinedc::tyPadded(TypeRef Inner, TermRef Size) {
  auto T = mk(TypeKind::Padded);
  T->Size = Size;
  T->Children.push_back(std::move(Inner));
  return T;
}
TypeRef rcc::refinedc::tyNamed(const NamedTypeDef *Def, TermRef Refn) {
  auto T = mk(TypeKind::Named);
  T->Def = Def;
  T->Refn = Refn;
  return T;
}
TypeRef rcc::refinedc::tyValueOf(TermRef V, TermRef Size) {
  auto T = mk(TypeKind::ValueOf);
  T->Refn = V;
  T->Size = Size;
  return T;
}
TypeRef rcc::refinedc::tyPlace(TermRef Loc) {
  auto T = mk(TypeKind::Place);
  T->Refn = Loc;
  return T;
}
TypeRef rcc::refinedc::tyArray(TypeRef ElemPattern,
                               const std::string &ElemBinder,
                               uint64_t ElemSize, TermRef Xs) {
  auto T = mk(TypeKind::Array);
  T->Children.push_back(std::move(ElemPattern));
  T->ElemBinder = ElemBinder;
  T->ElemSize = ElemSize;
  T->Refn = Xs;
  return T;
}
TypeRef rcc::refinedc::tyAtomicBool(caesium::IntType Ity, TermRef Refn,
                                    ResList HTrue, ResList HFalse) {
  auto T = mk(TypeKind::AtomicBool);
  T->Ity = Ity;
  T->Refn = Refn;
  T->HTrue = std::move(HTrue);
  T->HFalse = std::move(HFalse);
  return T;
}
TypeRef rcc::refinedc::tyFnPtr(const FnSpec *Spec) {
  auto T = mk(TypeKind::FnPtr);
  T->Spec = Spec;
  return T;
}
TypeRef rcc::refinedc::tyAny(TermRef Size) {
  auto T = mk(TypeKind::Any);
  T->Size = Size;
  return T;
}

TypeRef rcc::refinedc::withRefn(TypeRef T, TermRef Refn) {
  RType *N = newNode<RType>(*T);
  N->Refn = Refn;
  return N;
}

//===----------------------------------------------------------------------===//
// Substitution / resolution
//===----------------------------------------------------------------------===//

namespace {
/// Maps \p F over the term positions of the node \p T and \p G over its
/// child types (Children and the atoms' types). Copy-on-write: the node is
/// copied only once a position changes, so an unchanged type, the common
/// case during search, is returned as is without allocating.
template <typename TermFn, typename TypeFn>
TypeRef mapTypeNode(TypeRef T, TermFn &&F, TypeFn &&G) {
  RType *N = nullptr;
  auto Mut = [&]() -> RType & {
    if (!N)
      N = newNode<RType>(*T);
    return *N;
  };
  auto Slot = [&](TermRef RType::*P) {
    if (TermRef Old = (*T).*P) {
      TermRef R = F(Old);
      if (R != Old)
        Mut().*P = R;
    }
  };
  Slot(&RType::Refn);
  Slot(&RType::Size);
  Slot(&RType::WandLoc);
  for (size_t I = 0; I < T->Children.size(); ++I) {
    TypeRef R = G(T->Children[I]);
    if (R != T->Children[I])
      Mut().Children[I] = R;
  }
  auto Res = [&](ResList RType::*P) {
    const ResList &L = (*T).*P;
    for (size_t I = 0; I < L.size(); ++I) {
      const ResAtom &A = L[I];
      TermRef S = A.Subject ? F(A.Subject) : nullptr;
      TermRef Pr = A.Prop ? F(A.Prop) : nullptr;
      TypeRef Ty = A.Ty ? G(A.Ty) : nullptr;
      if (S != A.Subject || Pr != A.Prop || Ty != A.Ty) {
        ResAtom &M = (Mut().*P)[I];
        M.Subject = S;
        M.Prop = Pr;
        M.Ty = Ty;
      }
    }
  };
  Res(&RType::HTrue);
  Res(&RType::HFalse);
  return N ? N : T;
}

/// True if \p Name occurs free in any term position of \p T (respecting the
/// shadowing of Exists and Array binders).
bool typeMentionsFreeVar(TypeRef T, const std::string &Name) {
  if (T->K == TypeKind::Exists && T->Binder == Name)
    return false;
  if (T->K == TypeKind::Array && T->ElemBinder == Name)
    return T->Refn && containsFreeVar(T->Refn, Name);
  if ((T->Refn && containsFreeVar(T->Refn, Name)) ||
      (T->Size && containsFreeVar(T->Size, Name)) ||
      (T->WandLoc && containsFreeVar(T->WandLoc, Name)))
    return true;
  for (const TypeRef &C : T->Children)
    if (typeMentionsFreeVar(C, Name))
      return true;
  auto InRes = [&](const ResList &L) {
    for (const ResAtom &A : L) {
      if ((A.Subject && containsFreeVar(A.Subject, Name)) ||
          (A.Prop && containsFreeVar(A.Prop, Name)))
        return true;
      if (A.Ty && typeMentionsFreeVar(A.Ty, Name))
        return true;
    }
    return false;
  };
  return InRes(T->HTrue) || InRes(T->HFalse);
}
} // namespace

TypeRef rcc::refinedc::substTypeVar(TypeRef T, const std::string &Name,
                                    TermRef Repl) {
  // Exists binders shadow; when the replacement mentions the binder's name
  // (e.g. unfolding `∃n. ...` at a refinement containing the function
  // parameter n), the binder is renamed to avoid capture.
  if (T->K == TypeKind::Exists) {
    if (T->Binder == Name)
      return T;
    if (containsFreeVar(Repl, T->Binder)) {
      // The rename must be deterministic for a given substitution — a
      // global counter would leak the interleaving of concurrent
      // verification jobs into rendered types and error messages. '^' is
      // not a user-identifier character, so appending it until the name is
      // fresh w.r.t. both the replacement and the body terminates quickly.
      std::string Fresh = T->Binder + "^";
      while (containsFreeVar(Repl, Fresh) ||
             typeMentionsFreeVar(T->Children[0], Fresh))
        Fresh += "^";
      TermRef FreshVar = mkVar(Fresh, T->BinderSort);
      RType *N = newNode<RType>(*T);
      N->Binder = Fresh;
      N->Children[0] =
          substTypeVar(substTypeVar(T->Children[0], T->Binder, FreshVar),
                       Name, Repl);
      return N;
    }
    TypeRef Body = substTypeVar(T->Children[0], Name, Repl);
    if (Body == T->Children[0])
      return T;
    RType *N = newNode<RType>(*T);
    N->Children[0] = Body;
    return N;
  }
  if (T->K == TypeKind::Array && T->ElemBinder == Name) {
    // The element binder shadows inside the element pattern; other term
    // positions (Refn) still substitute.
    TermRef Refn = T->Refn ? substVar(T->Refn, Name, Repl) : nullptr;
    if (Refn == T->Refn)
      return T;
    RType *N = newNode<RType>(*T);
    N->Refn = Refn;
    return N;
  }

  // All other nodes: substitute term slots here and recurse into children
  // through this function (so nested binders keep their shadowing and
  // capture-avoidance behavior).
  return mapTypeNode(
      T, [&](TermRef X) { return substVar(X, Name, Repl); },
      [&](TypeRef C) { return substTypeVar(C, Name, Repl); });
}

ResList rcc::refinedc::substResVar(const ResList &H, const std::string &Name,
                                   TermRef Repl) {
  ResList Out;
  for (const ResAtom &A : H) {
    ResAtom N = A;
    if (N.Subject)
      N.Subject = substVar(N.Subject, Name, Repl);
    if (N.Prop)
      N.Prop = substVar(N.Prop, Name, Repl);
    if (N.Ty)
      N.Ty = substTypeVar(N.Ty, Name, Repl);
    Out.push_back(std::move(N));
  }
  return Out;
}

TypeRef rcc::refinedc::resolveType(TypeRef T, const pure::EvarEnv &Env) {
  return mapTypeNode(
      T, [&](TermRef X) { return Env.resolve(X); },
      [&](TypeRef C) { return resolveType(C, Env); });
}

bool rcc::refinedc::typeEqual(TypeRef A, TypeRef B) {
  if (A == B)
    return true;
  if (A->K != B->K || A->Refn != B->Refn || A->Size != B->Size ||
      A->WandLoc != B->WandLoc || !(A->Ity == B->Ity) ||
      A->Layout != B->Layout || A->Def != B->Def || A->Spec != B->Spec ||
      A->Children.size() != B->Children.size() || A->Binder != B->Binder ||
      A->ElemBinder != B->ElemBinder || A->ElemSize != B->ElemSize)
    return false;
  for (size_t I = 0; I < A->Children.size(); ++I)
    if (!typeEqual(A->Children[I], B->Children[I]))
      return false;
  auto ResEq = [](const ResList &X, const ResList &Y) {
    if (X.size() != Y.size())
      return false;
    for (size_t I = 0; I < X.size(); ++I) {
      if (X[I].K != Y[I].K || X[I].Subject != Y[I].Subject ||
          X[I].Prop != Y[I].Prop)
        return false;
      if (!X[I].Ty != !Y[I].Ty ||
          (X[I].Ty && !typeEqual(X[I].Ty, Y[I].Ty)))
        return false;
    }
    return true;
  };
  return ResEq(A->HTrue, B->HTrue) && ResEq(A->HFalse, B->HFalse);
}

TypeRef rcc::refinedc::unfoldNamed(const RType &Named) {
  assert(Named.K == TypeKind::Named && "unfoldNamed on non-named type");
  const NamedTypeDef &D = *Named.Def;
  TermRef R = Named.Refn;
  if (!R)
    R = mkVar(D.RefnVar, D.RefnSort);
  return substTypeVar(D.Body, D.RefnVar, R);
}

uint64_t rcc::refinedc::knownByteSize(TypeRef T) {
  switch (T->K) {
  case TypeKind::Int:
  case TypeKind::Bool:
  case TypeKind::AtomicBool:
    return T->Ity.ByteSize;
  case TypeKind::Own:
  case TypeKind::Null:
  case TypeKind::FnPtr:
    return caesium::PtrBytes;
  case TypeKind::Optional: {
    uint64_t A = knownByteSize(T->Children[0]);
    uint64_t B = knownByteSize(T->Children[1]);
    return A == B ? A : 0;
  }
  case TypeKind::Struct:
    return T->Layout ? T->Layout->Size : 0;
  case TypeKind::Uninit:
  case TypeKind::Padded:
  case TypeKind::Any:
  case TypeKind::ValueOf:
    return (T->Size && T->Size->isConst())
               ? static_cast<uint64_t>(T->Size->num())
               : 0;
  case TypeKind::Constraint:
  case TypeKind::Exists:
    return knownByteSize(T->Children[0]);
  case TypeKind::Named: {
    TypeRef U = unfoldNamed(*T);
    return knownByteSize(U);
  }
  case TypeKind::Wand:
    return knownByteSize(T->Children[0]);
  case TypeKind::Array:
    return 0;
  case TypeKind::Place:
    return caesium::PtrBytes;
  }
  return 0;
}

bool rcc::refinedc::isCopyable(TypeRef T) {
  switch (T->K) {
  case TypeKind::Int:
  case TypeKind::Bool:
  case TypeKind::Null:
  case TypeKind::Place:
  case TypeKind::ValueOf:
  case TypeKind::FnPtr:
    return true;
  case TypeKind::Constraint:
    return isCopyable(T->Children[0]);
  default:
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Location offsets
//===----------------------------------------------------------------------===//

TermRef rcc::refinedc::locOffset(TermRef Base, TermRef Off) {
  using namespace rcc::pure;
  Off = Off; // terms are already simplified by callers where needed
  if (Off->isConst() && Off->num() == 0)
    return Base;
  // at(at(b, x), y) = at(b, x + y) with constant folding.
  if (Base->kind() == TermKind::App && Base->name() == "at") {
    TermRef Inner = Base->arg(0);
    TermRef X = Base->arg(1);
    if (X->isConst() && Off->isConst())
      return locOffset(Inner, mkNat(X->num() + Off->num()));
    return mkApp("at", Sort::Loc, {Inner, mkAdd(X, Off)});
  }
  return mkApp("at", Sort::Loc, {Base, Off});
}

TermRef rcc::refinedc::locOffset(TermRef Base, uint64_t Off) {
  return locOffset(Base, pure::mkNat(static_cast<int64_t>(Off)));
}

bool rcc::refinedc::splitLocConst(TermRef L, TermRef &Base, uint64_t &Off) {
  using namespace rcc::pure;
  if (L->kind() == TermKind::App && L->name() == "at") {
    if (!L->arg(1)->isConst())
      return false;
    Base = L->arg(0);
    Off = static_cast<uint64_t>(L->arg(1)->num());
    return true;
  }
  Base = L;
  Off = 0;
  return true;
}
