//===- Term.cpp -----------------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "pure/Term.h"

#include <algorithm>
#include <functional>
#include <sstream>

using namespace rcc::pure;

const char *rcc::pure::sortName(Sort S) {
  switch (S) {
  case Sort::Bool:
    return "bool";
  case Sort::Nat:
    return "nat";
  case Sort::Int:
    return "int";
  case Sort::Loc:
    return "loc";
  case Sort::MSet:
    return "multiset";
  case Sort::Set:
    return "set";
  case Sort::List:
    return "list";
  case Sort::Unknown:
    return "?";
  }
  return "?";
}

const char *rcc::pure::kindName(TermKind K) {
  switch (K) {
  case TermKind::Var:
    return "var";
  case TermKind::EVar:
    return "evar";
  case TermKind::NatConst:
    return "nat-const";
  case TermKind::IntConst:
    return "int-const";
  case TermKind::BoolConst:
    return "bool-const";
  case TermKind::Add:
    return "+";
  case TermKind::Sub:
    return "-";
  case TermKind::Mul:
    return "*";
  case TermKind::Div:
    return "/";
  case TermKind::Mod:
    return "%";
  case TermKind::Min2:
    return "min";
  case TermKind::Max2:
    return "max";
  case TermKind::Eq:
    return "=";
  case TermKind::Ne:
    return "!=";
  case TermKind::Lt:
    return "<";
  case TermKind::Le:
    return "<=";
  case TermKind::Not:
    return "!";
  case TermKind::And:
    return "&&";
  case TermKind::Or:
    return "||";
  case TermKind::Implies:
    return "->";
  case TermKind::Ite:
    return "ite";
  case TermKind::MEmpty:
    return "mset-empty";
  case TermKind::MSingle:
    return "mset-single";
  case TermKind::MUnion:
    return "(+)";
  case TermKind::MDiff:
    return "(-)";
  case TermKind::MElem:
    return "∈m";
  case TermKind::MSize:
    return "msize";
  case TermKind::SEmpty:
    return "set-empty";
  case TermKind::SSingle:
    return "set-single";
  case TermKind::SUnion:
    return "∪";
  case TermKind::SElem:
    return "∈s";
  case TermKind::LNil:
    return "nil";
  case TermKind::LCons:
    return "::";
  case TermKind::LApp:
    return "++";
  case TermKind::LLen:
    return "length";
  case TermKind::LNth:
    return "!!";
  case TermKind::LUpdate:
    return "update";
  case TermKind::LRepeat:
    return "repeat";
  case TermKind::Forall:
    return "forall";
  case TermKind::Exists:
    return "exists";
  case TermKind::App:
    return "app";
  }
  return "?";
}

size_t TermArena::KeyHash::operator()(const KeyView &Ky) const {
  size_t H = std::hash<int>()(static_cast<int>(Ky.K)) * 31 +
             std::hash<int>()(static_cast<int>(Ky.S));
  H = H * 31 + std::hash<std::string_view>()(Ky.Name);
  H = H * 31 + std::hash<int64_t>()(Ky.Num);
  for (TermRef A : Ky.Args)
    H = H * 31 + std::hash<const void *>()(A);
  return H;
}

size_t TermArena::KeyHash::operator()(TermRef T) const {
  return (*this)(
      KeyView{T->kind(), T->sort(), T->name(), T->num(), T->args()});
}

bool TermArena::KeyEq::operator()(const KeyView &Ky, TermRef T) const {
  return Ky.K == T->kind() && Ky.S == T->sort() && Ky.Num == T->num() &&
         Ky.Name == T->name() &&
         std::equal(Ky.Args.begin(), Ky.Args.end(), T->args().begin(),
                    T->args().end());
}

TermRef TermArena::make(TermKind K, Sort S, std::string_view Name,
                        int64_t Num, std::span<const TermRef> Args) {
  const KeyView Ky{K, S, Name, Num, Args};
  Shard &Sh = Shards[KeyHash()(Ky) % NumShards];
  std::lock_guard<std::mutex> G(Sh.M);
  auto It = Sh.Unique.find(Ky);
  if (It != Sh.Unique.end())
    return *It;
  Sh.Storage.push_back(Term(K, S, std::string(Name), Num,
                            std::vector<TermRef>(Args.begin(), Args.end())));
  TermRef T = &Sh.Storage.back();
  Sh.Unique.insert(T);
  return T;
}

size_t TermArena::size() const {
  size_t N = 0;
  for (const Shard &Sh : Shards) {
    std::lock_guard<std::mutex> G(Sh.M);
    N += Sh.Storage.size();
  }
  return N;
}

TermArena &rcc::pure::arena() {
  static TermArena A;
  return A;
}

//===----------------------------------------------------------------------===//
// Builders
//===----------------------------------------------------------------------===//

namespace {
Sort numericJoin(TermRef A, TermRef B) {
  // Prefer Int if either side is Int; otherwise Nat.
  if (A->sort() == Sort::Int || B->sort() == Sort::Int)
    return Sort::Int;
  return Sort::Nat;
}
} // namespace

TermRef rcc::pure::mkVar(const std::string &Name, Sort S) {
  return arena().make(TermKind::Var, S, Name, 0, {});
}
TermRef rcc::pure::mkEVar(int64_t Id, Sort S) {
  return arena().make(TermKind::EVar, S, "", Id, {});
}
TermRef rcc::pure::mkNat(int64_t V) {
  assert(V >= 0 && "negative natural literal");
  return arena().make(TermKind::NatConst, Sort::Nat, "", V, {});
}
TermRef rcc::pure::mkInt(int64_t V) {
  return arena().make(TermKind::IntConst, Sort::Int, "", V, {});
}
TermRef rcc::pure::mkBool(bool V) {
  return arena().make(TermKind::BoolConst, Sort::Bool, "", V ? 1 : 0, {});
}
TermRef rcc::pure::mkTrue() { return mkBool(true); }
TermRef rcc::pure::mkFalse() { return mkBool(false); }

TermRef rcc::pure::mkBinArith(TermKind K, TermRef A, TermRef B) {
  return arena().make(K, numericJoin(A, B), "", 0, {A, B});
}
TermRef rcc::pure::mkAdd(TermRef A, TermRef B) {
  return mkBinArith(TermKind::Add, A, B);
}
TermRef rcc::pure::mkSub(TermRef A, TermRef B) {
  return mkBinArith(TermKind::Sub, A, B);
}
TermRef rcc::pure::mkMul(TermRef A, TermRef B) {
  return mkBinArith(TermKind::Mul, A, B);
}
TermRef rcc::pure::mkDiv(TermRef A, TermRef B) {
  return mkBinArith(TermKind::Div, A, B);
}
TermRef rcc::pure::mkMod(TermRef A, TermRef B) {
  return mkBinArith(TermKind::Mod, A, B);
}
TermRef rcc::pure::mkMin(TermRef A, TermRef B) {
  return mkBinArith(TermKind::Min2, A, B);
}
TermRef rcc::pure::mkMax(TermRef A, TermRef B) {
  return mkBinArith(TermKind::Max2, A, B);
}

TermRef rcc::pure::mkEq(TermRef A, TermRef B) {
  return arena().make(TermKind::Eq, Sort::Bool, "", 0, {A, B});
}
TermRef rcc::pure::mkNe(TermRef A, TermRef B) {
  return arena().make(TermKind::Ne, Sort::Bool, "", 0, {A, B});
}
TermRef rcc::pure::mkLt(TermRef A, TermRef B) {
  return arena().make(TermKind::Lt, Sort::Bool, "", 0, {A, B});
}
TermRef rcc::pure::mkLe(TermRef A, TermRef B) {
  return arena().make(TermKind::Le, Sort::Bool, "", 0, {A, B});
}
TermRef rcc::pure::mkGt(TermRef A, TermRef B) { return mkLt(B, A); }
TermRef rcc::pure::mkGe(TermRef A, TermRef B) { return mkLe(B, A); }

TermRef rcc::pure::mkNot(TermRef A) {
  return arena().make(TermKind::Not, Sort::Bool, "", 0, {A});
}
TermRef rcc::pure::mkAnd(TermRef A, TermRef B) {
  return arena().make(TermKind::And, Sort::Bool, "", 0, {A, B});
}
TermRef rcc::pure::mkOr(TermRef A, TermRef B) {
  return arena().make(TermKind::Or, Sort::Bool, "", 0, {A, B});
}
TermRef rcc::pure::mkImplies(TermRef A, TermRef B) {
  return arena().make(TermKind::Implies, Sort::Bool, "", 0, {A, B});
}
TermRef rcc::pure::mkIte(TermRef C, TermRef T, TermRef E) {
  return arena().make(TermKind::Ite, T->sort(), "", 0, {C, T, E});
}

TermRef rcc::pure::mkMEmpty() {
  return arena().make(TermKind::MEmpty, Sort::MSet, "", 0, {});
}
TermRef rcc::pure::mkMSingle(TermRef X) {
  return arena().make(TermKind::MSingle, Sort::MSet, "", 0, {X});
}
TermRef rcc::pure::mkMUnion(TermRef A, TermRef B) {
  return arena().make(TermKind::MUnion, Sort::MSet, "", 0, {A, B});
}
TermRef rcc::pure::mkMDiff(TermRef A, TermRef B) {
  return arena().make(TermKind::MDiff, Sort::MSet, "", 0, {A, B});
}
TermRef rcc::pure::mkMElem(TermRef X, TermRef M) {
  return arena().make(TermKind::MElem, Sort::Bool, "", 0, {X, M});
}
TermRef rcc::pure::mkMSize(TermRef M) {
  return arena().make(TermKind::MSize, Sort::Nat, "", 0, {M});
}

TermRef rcc::pure::mkSEmpty() {
  return arena().make(TermKind::SEmpty, Sort::Set, "", 0, {});
}
TermRef rcc::pure::mkSSingle(TermRef X) {
  return arena().make(TermKind::SSingle, Sort::Set, "", 0, {X});
}
TermRef rcc::pure::mkSUnion(TermRef A, TermRef B) {
  return arena().make(TermKind::SUnion, Sort::Set, "", 0, {A, B});
}
TermRef rcc::pure::mkSElem(TermRef X, TermRef S) {
  return arena().make(TermKind::SElem, Sort::Bool, "", 0, {X, S});
}

TermRef rcc::pure::mkLNil() {
  return arena().make(TermKind::LNil, Sort::List, "", 0, {});
}
TermRef rcc::pure::mkLCons(TermRef H, TermRef T) {
  return arena().make(TermKind::LCons, Sort::List, "", 0, {H, T});
}
TermRef rcc::pure::mkLApp(TermRef A, TermRef B) {
  return arena().make(TermKind::LApp, Sort::List, "", 0, {A, B});
}
TermRef rcc::pure::mkLLen(TermRef L) {
  return arena().make(TermKind::LLen, Sort::Nat, "", 0, {L});
}
TermRef rcc::pure::mkLNth(TermRef L, TermRef I) {
  return arena().make(TermKind::LNth, Sort::Nat, "", 0, {L, I});
}
TermRef rcc::pure::mkLUpdate(TermRef L, TermRef I, TermRef V) {
  return arena().make(TermKind::LUpdate, Sort::List, "", 0, {L, I, V});
}
TermRef rcc::pure::mkLRepeat(TermRef V, TermRef N) {
  return arena().make(TermKind::LRepeat, Sort::List, "", 0, {V, N});
}

TermRef rcc::pure::mkForall(const std::string &Binder, Sort BSort,
                            TermRef Body) {
  return arena().make(TermKind::Forall, Sort::Bool, Binder,
                      static_cast<int64_t>(BSort), {Body});
}
TermRef rcc::pure::mkExists(const std::string &Binder, Sort BSort,
                            TermRef Body) {
  return arena().make(TermKind::Exists, Sort::Bool, Binder,
                      static_cast<int64_t>(BSort), {Body});
}

TermRef rcc::pure::mkApp(const std::string &Fn, Sort ResultSort,
                         std::vector<TermRef> Args) {
  return arena().make(TermKind::App, ResultSort, Fn, 0, Args);
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

namespace {
void printTerm(std::ostringstream &OS, TermRef T);

void printInfix(std::ostringstream &OS, TermRef T, const char *Op) {
  OS << '(';
  printTerm(OS, T->arg(0));
  OS << ' ' << Op << ' ';
  printTerm(OS, T->arg(1));
  OS << ')';
}

void printTerm(std::ostringstream &OS, TermRef T) {
  switch (T->kind()) {
  case TermKind::Var:
    OS << T->name();
    return;
  case TermKind::EVar:
    OS << "?e" << T->num();
    return;
  case TermKind::NatConst:
  case TermKind::IntConst:
    OS << T->num();
    return;
  case TermKind::BoolConst:
    OS << (T->num() ? "true" : "false");
    return;
  case TermKind::Add:
    printInfix(OS, T, "+");
    return;
  case TermKind::Sub:
    printInfix(OS, T, "-");
    return;
  case TermKind::Mul:
    printInfix(OS, T, "*");
    return;
  case TermKind::Div:
    printInfix(OS, T, "/");
    return;
  case TermKind::Mod:
    printInfix(OS, T, "%");
    return;
  case TermKind::Min2:
  case TermKind::Max2:
    OS << (T->kind() == TermKind::Min2 ? "min(" : "max(");
    printTerm(OS, T->arg(0));
    OS << ", ";
    printTerm(OS, T->arg(1));
    OS << ')';
    return;
  case TermKind::Eq:
    printInfix(OS, T, "=");
    return;
  case TermKind::Ne:
    printInfix(OS, T, "!=");
    return;
  case TermKind::Lt:
    printInfix(OS, T, "<");
    return;
  case TermKind::Le:
    printInfix(OS, T, "<=");
    return;
  case TermKind::Not:
    OS << "!";
    printTerm(OS, T->arg(0));
    return;
  case TermKind::And:
    printInfix(OS, T, "&&");
    return;
  case TermKind::Or:
    printInfix(OS, T, "||");
    return;
  case TermKind::Implies:
    printInfix(OS, T, "->");
    return;
  case TermKind::Ite:
    OS << '(';
    printTerm(OS, T->arg(0));
    OS << " ? ";
    printTerm(OS, T->arg(1));
    OS << " : ";
    printTerm(OS, T->arg(2));
    OS << ')';
    return;
  case TermKind::MEmpty:
    OS << "{[]}";
    return;
  case TermKind::MSingle:
    OS << "{[";
    printTerm(OS, T->arg(0));
    OS << "]}";
    return;
  case TermKind::MUnion:
    printInfix(OS, T, "(+)");
    return;
  case TermKind::MDiff:
    printInfix(OS, T, "(-)");
    return;
  case TermKind::MElem:
  case TermKind::SElem:
    printInfix(OS, T, "in");
    return;
  case TermKind::MSize:
    OS << "size(";
    printTerm(OS, T->arg(0));
    OS << ')';
    return;
  case TermKind::SEmpty:
    OS << "{}";
    return;
  case TermKind::SSingle:
    OS << "{";
    printTerm(OS, T->arg(0));
    OS << "}";
    return;
  case TermKind::SUnion:
    printInfix(OS, T, "(u)");
    return;
  case TermKind::LNil:
    OS << "[]";
    return;
  case TermKind::LCons:
    printInfix(OS, T, "::");
    return;
  case TermKind::LApp:
    printInfix(OS, T, "++");
    return;
  case TermKind::LLen:
    OS << "length(";
    printTerm(OS, T->arg(0));
    OS << ')';
    return;
  case TermKind::LNth:
    printInfix(OS, T, "!!");
    return;
  case TermKind::LUpdate:
    OS << "(<[";
    printTerm(OS, T->arg(1));
    OS << " := ";
    printTerm(OS, T->arg(2));
    OS << "]> ";
    printTerm(OS, T->arg(0));
    OS << ')';
    return;
  case TermKind::LRepeat:
    OS << "repeat(";
    printTerm(OS, T->arg(0));
    OS << ", ";
    printTerm(OS, T->arg(1));
    OS << ')';
    return;
  case TermKind::Forall:
  case TermKind::Exists:
    OS << (T->kind() == TermKind::Forall ? "forall " : "exists ") << T->name()
       << " : " << sortName(T->binderSort()) << ". ";
    printTerm(OS, T->arg(0));
    return;
  case TermKind::App:
    OS << T->name() << '(';
    for (unsigned I = 0; I < T->numArgs(); ++I) {
      if (I)
        OS << ", ";
      printTerm(OS, T->arg(I));
    }
    OS << ')';
    return;
  }
}
} // namespace

std::string Term::str() const {
  std::ostringstream OS;
  printTerm(OS, this);
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Traversals
//===----------------------------------------------------------------------===//

namespace {
/// Generic bottom-up rebuild with a leaf transformer. \p OnLeaf returns
/// nullptr to keep the leaf unchanged.
template <typename LeafFn> TermRef rebuild(TermRef T, LeafFn &&OnLeaf) {
  if (T->numArgs() == 0) {
    TermRef R = OnLeaf(T);
    return R ? R : T;
  }
  // Binders are handled by the callers (which need capture management).
  return mapArgs(T, [&](TermRef A) { return rebuild(A, OnLeaf); });
}
} // namespace

TermRef rcc::pure::substVar(TermRef T, const std::string &Name, TermRef Repl) {
  if (T->kind() == TermKind::Var)
    return T->name() == Name ? Repl : T;
  if (T->isBinder()) {
    if (T->name() == Name || !containsFreeVar(T->arg(0), Name))
      return T; // shadowed, or nothing to substitute
    if (containsFreeVar(Repl, T->name())) {
      // Rename the binder to avoid capture, to the first name!k that
      // neither the body nor the replacement mentions freely.
      std::string Fresh;
      for (unsigned K = 1;; ++K) {
        Fresh = T->name() + "!" + std::to_string(K);
        if (!containsFreeVar(T->arg(0), Fresh) &&
            !containsFreeVar(Repl, Fresh))
          break;
      }
      TermRef FreshVar = mkVar(Fresh, T->binderSort());
      TermRef Body = substVar(T->arg(0), T->name(), FreshVar);
      Body = substVar(Body, Name, Repl);
      return arena().make(T->kind(), T->sort(), Fresh, T->num(), {Body});
    }
    TermRef Body = substVar(T->arg(0), Name, Repl);
    if (Body == T->arg(0))
      return T;
    return arena().make(T->kind(), T->sort(), T->name(), T->num(), {Body});
  }
  return mapArgs(T, [&](TermRef A) { return substVar(A, Name, Repl); });
}

TermRef rcc::pure::substVars(
    TermRef T, const std::unordered_map<std::string, TermRef> &Map) {
  TermRef R = T;
  for (const auto &[Name, Repl] : Map)
    R = substVar(R, Name, Repl);
  return R;
}

TermRef rcc::pure::substEVar(TermRef T, int64_t Id, TermRef Repl) {
  return rebuild(T, [&](TermRef L) -> TermRef {
    if (L->kind() == TermKind::EVar && L->num() == Id)
      return Repl;
    return nullptr;
  });
}

void rcc::pure::collectEVars(TermRef T, std::vector<int64_t> &Out) {
  if (T->kind() == TermKind::EVar) {
    Out.push_back(T->num());
    return;
  }
  for (TermRef A : T->args())
    collectEVars(A, Out);
}

bool rcc::pure::containsEVar(TermRef T) {
  if (T->kind() == TermKind::EVar)
    return true;
  for (TermRef A : T->args())
    if (containsEVar(A))
      return true;
  return false;
}

bool rcc::pure::containsEVar(TermRef T, int64_t Id) {
  if (T->kind() == TermKind::EVar)
    return T->num() == Id;
  for (TermRef A : T->args())
    if (containsEVar(A, Id))
      return true;
  return false;
}

void rcc::pure::collectFreeVars(TermRef T, std::vector<std::string> &Out) {
  if (T->kind() == TermKind::Var) {
    Out.push_back(T->name());
    return;
  }
  if (T->isBinder()) {
    std::vector<std::string> Inner;
    collectFreeVars(T->arg(0), Inner);
    for (std::string &N : Inner)
      if (N != T->name())
        Out.push_back(std::move(N));
    return;
  }
  for (TermRef A : T->args())
    collectFreeVars(A, Out);
}

bool rcc::pure::containsFreeVar(TermRef T, const std::string &Name) {
  if (T->kind() == TermKind::Var)
    return T->name() == Name;
  if (T->isBinder() && T->name() == Name)
    return false;
  for (TermRef A : T->args())
    if (containsFreeVar(A, Name))
      return true;
  return false;
}
