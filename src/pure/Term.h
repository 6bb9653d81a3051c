//===- Term.h - Sorted symbolic terms for refinements ----------*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pure term language in which RefinedC refinements, pure side conditions
/// and loop-invariant constraints are expressed. This plays the role of the
/// "pure Coq propositions" of the paper (Section 1, step C): refinements
/// range over mathematical naturals/integers, booleans, locations, lists and
/// (multi)sets, and verification conditions are Bool-sorted terms over them.
///
/// Terms are immutable and hash-consed in a TermArena, so structural equality
/// of resolved terms is pointer equality. Existential variables (evars) are
/// first-class leaves; their bindings live externally in an EvarEnv so that
/// instantiation never mutates shared structure (Section 5, "Handling of
/// evars": evars are created sealed and only instantiated at controlled
/// points).
///
//===----------------------------------------------------------------------===//

#ifndef RCC_PURE_TERM_H
#define RCC_PURE_TERM_H

#include <cassert>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace rcc::pure {

/// The sorts of the pure term language. Propositions are Bool-sorted terms.
enum class Sort : uint8_t {
  Bool,
  Nat,  ///< mathematical natural numbers (subtraction truncates at 0)
  Int,  ///< mathematical integers
  Loc,  ///< abstract memory locations
  MSet, ///< multisets of naturals (gmultiset nat in the paper's Figure 3)
  Set,  ///< finite sets of naturals
  List, ///< lists of naturals/values
  Unknown,
};

const char *sortName(Sort S);

enum class TermKind : uint8_t {
  // Leaves.
  Var,       ///< universally quantified / program variable (payload: Name)
  EVar,      ///< existential unification variable (payload: Num = id)
  NatConst,  ///< payload: Num (>= 0)
  IntConst,  ///< payload: Num
  BoolConst, ///< payload: Num (0/1)

  // Arithmetic (Nat/Int sorted).
  Add,
  Sub, ///< truncated at 0 for Nat-sorted terms
  Mul,
  Div,
  Mod,
  Min2,
  Max2,

  // Comparisons (Bool sorted; Eq/Ne apply at every sort).
  Eq,
  Ne,
  Lt,
  Le,

  // Propositional connectives and conditional.
  Not,
  And,
  Or,
  Implies,
  Ite, ///< Args = {cond, then, else}; sort of then/else

  // Multisets of naturals.
  MEmpty,
  MSingle, ///< {[ x ]}
  MUnion,  ///< disjoint union ⊎
  MDiff,   ///< multiset difference ∖
  MElem,   ///< x ∈ m (Bool)
  MSize,   ///< size m (Nat)

  // Finite sets of naturals.
  SEmpty,
  SSingle,
  SUnion,
  SElem, ///< x ∈ s (Bool)

  // Lists.
  LNil,
  LCons,
  LApp,    ///< append
  LLen,    ///< length (Nat)
  LNth,    ///< Args = {list, index}; element (Nat-sorted by convention)
  LUpdate, ///< Args = {list, index, value}; <[i := v]> l
  LRepeat, ///< Args = {value, count}

  // Bounded quantifiers over propositions (payload: Name = binder,
  // Num = binder sort; Args = {body}).
  Forall,
  Exists,

  // Uninterpreted function application (payload: Name = function symbol).
  // Used for example-specific abstractions such as the hashmap's functional
  // probing function, whose properties are supplied as manual lemmas.
  App,
};

const char *kindName(TermKind K);

class TermArena;

/// An immutable, arena-allocated, hash-consed term.
class Term {
public:
  TermKind kind() const { return K; }
  Sort sort() const { return S; }
  const std::string &name() const { return Name; }
  int64_t num() const { return Num; }
  const std::vector<const Term *> &args() const { return Args; }
  const Term *arg(unsigned I) const {
    assert(I < Args.size() && "term argument index out of range");
    return Args[I];
  }
  unsigned numArgs() const { return static_cast<unsigned>(Args.size()); }

  bool isConst() const {
    return K == TermKind::NatConst || K == TermKind::IntConst ||
           K == TermKind::BoolConst;
  }
  bool isTrue() const { return K == TermKind::BoolConst && Num == 1; }
  bool isFalse() const { return K == TermKind::BoolConst && Num == 0; }
  bool isBinder() const {
    return K == TermKind::Forall || K == TermKind::Exists;
  }
  /// For binders: the sort of the bound variable.
  Sort binderSort() const {
    assert(isBinder() && "binderSort on non-binder");
    return static_cast<Sort>(Num);
  }

  /// Renders the term in ASCII math notation (e.g. "{[n]} (+) s").
  std::string str() const;

private:
  friend class TermArena;
  Term(TermKind K, Sort S, std::string Name, int64_t Num,
       std::vector<const Term *> Args)
      : K(K), S(S), Name(std::move(Name)), Num(Num), Args(std::move(Args)) {}

  TermKind K;
  Sort S;
  std::string Name;
  int64_t Num;
  std::vector<const Term *> Args;
};

using TermRef = const Term *;

/// Owns and hash-conses terms. All terms created through the same arena with
/// identical structure are the same pointer.
///
/// Thread safety: `make` may be called concurrently from any number of
/// threads (the parallel verification driver creates terms from every job).
/// The unique-table is sharded by key hash — structurally equal terms always
/// land in the same shard, so global pointer equality is preserved while
/// unrelated creations rarely contend on the same lock. Term storage uses
/// deques, whose elements never move, so handing out `TermRef`s outside the
/// lock is safe. Terms are never freed; nothing else about a published Term
/// is ever mutated.
///
/// `make` borrows its name and arguments: the unique-table holds only
/// `TermRef`s and is searched with a view of the requested fields, so a
/// lookup that finds its term allocates nothing, and each term's name and
/// argument vector exist once, inside the Term.
class TermArena {
public:
  TermRef make(TermKind K, Sort S, std::string_view Name, int64_t Num,
               std::span<const TermRef> Args);
  TermRef make(TermKind K, Sort S, std::string_view Name, int64_t Num,
               std::initializer_list<TermRef> Args) {
    return make(K, S, Name, Num, std::span<const TermRef>(Args));
  }

  /// Number of distinct terms allocated (for tests / stats).
  size_t size() const;

private:
  /// The fields `make` is asked for, borrowed from the caller.
  struct KeyView {
    TermKind K;
    Sort S;
    std::string_view Name;
    int64_t Num;
    std::span<const TermRef> Args;
  };
  /// Hashes and compares a stored TermRef and a KeyView alike, so the table
  /// can be searched without building a Term.
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(const KeyView &Ky) const;
    size_t operator()(TermRef T) const;
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(TermRef A, TermRef B) const { return A == B; }
    bool operator()(const KeyView &Ky, TermRef T) const;
    bool operator()(TermRef T, const KeyView &Ky) const {
      return (*this)(Ky, T);
    }
  };

  static constexpr size_t NumShards = 32;
  struct Shard {
    mutable std::mutex M;
    std::deque<Term> Storage;
    std::unordered_set<TermRef, KeyHash, KeyEq> Unique;
  };
  Shard Shards[NumShards];
};

/// The process-wide term arena. All verifier components share one arena so
/// pointer equality is global.
TermArena &arena();

//===----------------------------------------------------------------------===//
// Builders
//===----------------------------------------------------------------------===//

TermRef mkVar(const std::string &Name, Sort S);
TermRef mkEVar(int64_t Id, Sort S);
TermRef mkNat(int64_t V);
TermRef mkInt(int64_t V);
TermRef mkBool(bool V);
TermRef mkTrue();
TermRef mkFalse();

TermRef mkBinArith(TermKind K, TermRef A, TermRef B);
TermRef mkAdd(TermRef A, TermRef B);
TermRef mkSub(TermRef A, TermRef B);
TermRef mkMul(TermRef A, TermRef B);
TermRef mkDiv(TermRef A, TermRef B);
TermRef mkMod(TermRef A, TermRef B);
TermRef mkMin(TermRef A, TermRef B);
TermRef mkMax(TermRef A, TermRef B);

TermRef mkEq(TermRef A, TermRef B);
TermRef mkNe(TermRef A, TermRef B);
TermRef mkLt(TermRef A, TermRef B);
TermRef mkLe(TermRef A, TermRef B);
/// a > b and a >= b are represented as flipped Lt/Le.
TermRef mkGt(TermRef A, TermRef B);
TermRef mkGe(TermRef A, TermRef B);

TermRef mkNot(TermRef A);
TermRef mkAnd(TermRef A, TermRef B);
TermRef mkOr(TermRef A, TermRef B);
TermRef mkImplies(TermRef A, TermRef B);
TermRef mkIte(TermRef C, TermRef T, TermRef E);

TermRef mkMEmpty();
TermRef mkMSingle(TermRef X);
TermRef mkMUnion(TermRef A, TermRef B);
TermRef mkMDiff(TermRef A, TermRef B);
TermRef mkMElem(TermRef X, TermRef M);
TermRef mkMSize(TermRef M);

TermRef mkSEmpty();
TermRef mkSSingle(TermRef X);
TermRef mkSUnion(TermRef A, TermRef B);
TermRef mkSElem(TermRef X, TermRef S);

TermRef mkLNil();
TermRef mkLCons(TermRef H, TermRef T);
TermRef mkLApp(TermRef A, TermRef B);
TermRef mkLLen(TermRef L);
TermRef mkLNth(TermRef L, TermRef I);
TermRef mkLUpdate(TermRef L, TermRef I, TermRef V);
TermRef mkLRepeat(TermRef V, TermRef N);

TermRef mkForall(const std::string &Binder, Sort BSort, TermRef Body);
TermRef mkExists(const std::string &Binder, Sort BSort, TermRef Body);

TermRef mkApp(const std::string &Fn, Sort ResultSort,
              std::vector<TermRef> Args);

//===----------------------------------------------------------------------===//
// Traversals
//===----------------------------------------------------------------------===//

/// Rebuilds \p T with each argument replaced by `F(arg)`, calling F on the
/// arguments in order. When every argument maps to itself this returns
/// \p T and allocates nothing; otherwise the new arguments sit in a stack
/// buffer (a heap one only past four arguments) until `make` hash-conses
/// them.
template <typename Fn> TermRef mapArgs(TermRef T, Fn &&F) {
  const unsigned N = T->numArgs();
  unsigned I = 0;
  TermRef First = nullptr;
  for (; I < N; ++I)
    if ((First = F(T->arg(I))) != T->arg(I))
      break;
  if (I == N)
    return T;
  constexpr unsigned Inline = 4;
  TermRef Small[Inline] = {};
  std::vector<TermRef> Large;
  TermRef *Buf = Small;
  if (N > Inline) {
    Large.resize(N);
    Buf = Large.data();
  }
  for (unsigned J = 0; J < I; ++J)
    Buf[J] = T->arg(J);
  Buf[I] = First;
  for (unsigned J = I + 1; J < N; ++J)
    Buf[J] = F(T->arg(J));
  return arena().make(T->kind(), T->sort(), T->name(), T->num(),
                      std::span<const TermRef>(Buf, N));
}

/// Capture-avoiding substitution of free variable \p Name by \p Repl. A
/// binder that would capture \p Repl is renamed to the first `name!k`
/// (k = 1, 2, ...) free in neither its body nor \p Repl, so the result
/// depends only on the terms.
TermRef substVar(TermRef T, const std::string &Name, TermRef Repl);

/// Simultaneous substitution.
TermRef substVars(TermRef T,
                  const std::unordered_map<std::string, TermRef> &Map);

/// Replaces every occurrence of evar \p Id with \p Repl.
TermRef substEVar(TermRef T, int64_t Id, TermRef Repl);

/// Collects the ids of all evars occurring in \p T.
void collectEVars(TermRef T, std::vector<int64_t> &Out);
bool containsEVar(TermRef T);
bool containsEVar(TermRef T, int64_t Id);

/// Collects the free variable names in \p T.
void collectFreeVars(TermRef T, std::vector<std::string> &Out);
bool containsFreeVar(TermRef T, const std::string &Name);

} // namespace rcc::pure

#endif // RCC_PURE_TERM_H
