//===- Types.h - The RefinedC refinement/ownership types -------*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The RefinedC type grammar (Figure 4 of the paper, plus the value-tracking
/// and array types the case studies need):
///
///   n @ int(α)            integer of C type α encoding n
///   φ @ bool(α)           boolean reflecting φ
///   ℓ @ &own(τ)           unique ownership of τ at ℓ
///   uninit(n)             n uninitialized bytes
///   null                  the NULL pointer
///   φ @ optional(τ1, τ2)  φ ? τ1 : τ2
///   wand(ℓ ◁ τh, τ)       τ with hole ℓ ◁ τh (magic wand)
///   struct σ [τs]         struct with layout σ
///   ∃x. τ(x)              type-level existential
///   { τ | φ }             constraint type
///   padded(τ, n)          τ padded to n bytes
///   r @ Name              user-defined (possibly recursive) type
///   valueOf(v, n)         exactly the value v (n bytes), no ownership
///   place(ℓ)              the address ℓ itself (result of &x)
///   xs @ array(elem, sz)  each cell i typed elem(xs !! i)
///   atomicbool(α, HT, HF) SC boolean owning HT when true / HF when false
///   fn(spec)              function pointer with a RefinedC function type
///   any(n)                n bytes of unknown (but initialized) data
///
/// Types are immutable nodes, referred to by plain `const` pointer and
/// owned by the arena that built them (support/Arena.h): a session's arenas
/// hold the types of its environment, a job's arena the types built while
/// one function is verified, and `tyNull()` is a static node. A type points
/// to its NamedTypeDef or FnSpec by plain pointer; the TypeEnv owns those.
/// Refinements are pure terms.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_REFINEDC_TYPES_H
#define RCC_REFINEDC_TYPES_H

#include "caesium/Layout.h"
#include "pure/EvarEnv.h"
#include "pure/Term.h"
#include "support/SourceLoc.h"

#include <string>
#include <vector>

namespace rcc::refinedc {

using pure::Sort;
using pure::TermRef;

enum class TypeKind : uint8_t {
  Int,
  Bool,
  Own,
  Uninit,
  Null,
  Optional,
  Wand,
  Struct,
  Exists,
  Constraint,
  Padded,
  Named,
  ValueOf,
  Place,
  Array,
  AtomicBool,
  FnPtr,
  Any,
};

const char *typeKindName(TypeKind K);

class RType;
using TypeRef = const RType *;
struct FnSpec;
struct NamedTypeDef;

/// An atom of the separation-logic resource language: either a typed
/// location (ℓ ◁ₗ τ), a typed value (v ◁ᵥ τ), or a pure proposition ⌜φ⌝.
/// Lists of ResAtoms are separating conjunctions (the paper's left goals H,
/// flattened).
struct ResAtom {
  enum AKind : uint8_t { LocType, ValType, Pure } K = Pure;
  TermRef Subject = nullptr; ///< location or value term
  TypeRef Ty = nullptr;      ///< for LocType/ValType
  TermRef Prop = nullptr;    ///< for Pure

  static ResAtom loc(TermRef L, TypeRef T) { return {LocType, L, T, nullptr}; }
  static ResAtom val(TermRef V, TypeRef T) { return {ValType, V, T, nullptr}; }
  static ResAtom pure(TermRef P) { return {Pure, nullptr, nullptr, P}; }
  std::string str() const;
};
using ResList = std::vector<ResAtom>;

/// A RefinedC type.
class RType {
public:
  TypeKind K;

  // --- Payloads (validity depends on K) ---
  TermRef Refn = nullptr;   ///< Int: n; Bool/Optional/Constraint: φ; Own: ℓ;
                            ///< Named: r; Array: xs; ValueOf: v; Place: ℓ
  caesium::IntType Ity;     ///< Int / Bool / AtomicBool
  TermRef Size = nullptr;   ///< Uninit / Padded / Any: byte count
  std::vector<TypeRef> Children; ///< Own/Optional/Wand/Struct/Exists/...
  TermRef WandLoc = nullptr;     ///< Wand: the hole's location
  std::string Binder;            ///< Exists: bound variable name
  Sort BinderSort = Sort::Nat;   ///< Exists
  const caesium::StructLayout *Layout = nullptr; ///< Struct
  const NamedTypeDef *Def = nullptr;             ///< Named
  const FnSpec *Spec = nullptr;                  ///< FnPtr
  ResList HTrue, HFalse;                         ///< AtomicBool
  /// Array: element byte size and the binder used in the element pattern.
  uint64_t ElemSize = 0;
  std::string ElemBinder;

  std::string str() const;
};

//===----------------------------------------------------------------------===//
// Function specifications
//===----------------------------------------------------------------------===//

/// fn(∀x. args; Pre) → ∃y. ret; Post  (Section 4).
struct FnSpec {
  std::string Name;
  std::vector<std::pair<std::string, Sort>> Params;
  std::vector<TypeRef> Args;
  ResList Requires;
  std::vector<std::pair<std::string, Sort>> RetExists;
  TypeRef Ret = nullptr;
  ResList Ensures;
  std::vector<std::string> Tactics; ///< extra solvers (rc::tactics)
  bool TrustMe = false;             ///< assume, do not verify (rc::trust_me)
  /// Manual lemmas (rc::lemma): name, proposition, modeled pure-proof lines.
  std::vector<std::tuple<std::string, TermRef, unsigned>> Lemmas;
};

/// A user-defined named type (from struct/typedef annotations); body may
/// mention the type itself (recursive types unfold on demand, Section 2.2).
struct NamedTypeDef {
  std::string Name;
  std::string RefnVar;
  Sort RefnSort = Sort::Nat;
  bool IsPtrType = false; ///< rc::ptr_type: refines the pointer typedef
  TypeRef Body = nullptr; ///< with Var(RefnVar) free
  const caesium::StructLayout *Layout = nullptr;
};

//===----------------------------------------------------------------------===//
// Builders
//===----------------------------------------------------------------------===//

TypeRef tyInt(caesium::IntType Ity, TermRef Refn = nullptr);
TypeRef tyBool(caesium::IntType Ity, TermRef Refn = nullptr);
TypeRef tyOwn(TypeRef Inner, TermRef Loc = nullptr);
TypeRef tyUninit(TermRef Size);
TypeRef tyNull();
TypeRef tyOptional(TermRef Phi, TypeRef T1, TypeRef T2);
TypeRef tyWand(TermRef HoleLoc, TypeRef HoleTy, TypeRef Inner);
TypeRef tyStruct(const caesium::StructLayout *Layout,
                 std::vector<TypeRef> Fields);
TypeRef tyExists(const std::string &Binder, Sort S, TypeRef Body);
TypeRef tyConstraint(TypeRef Inner, TermRef Phi);
TypeRef tyPadded(TypeRef Inner, TermRef Size);
TypeRef tyNamed(const NamedTypeDef *Def, TermRef Refn);
TypeRef tyValueOf(TermRef V, TermRef Size);
TypeRef tyPlace(TermRef Loc);
TypeRef tyArray(TypeRef ElemPattern, const std::string &ElemBinder,
                uint64_t ElemSize, TermRef Xs);
TypeRef tyAtomicBool(caesium::IntType Ity, TermRef Refn, ResList HTrue,
                     ResList HFalse);
TypeRef tyFnPtr(const FnSpec *Spec);
TypeRef tyAny(TermRef Size);

/// Sets/replaces the refinement of \p T.
TypeRef withRefn(TypeRef T, TermRef Refn);

//===----------------------------------------------------------------------===//
// Operations
//===----------------------------------------------------------------------===//

/// Substitutes pure variable \p Name by \p Repl in all refinement positions.
TypeRef substTypeVar(TypeRef T, const std::string &Name, TermRef Repl);
ResList substResVar(const ResList &H, const std::string &Name, TermRef Repl);

/// Resolves evars in all refinement positions.
TypeRef resolveType(TypeRef T, const pure::EvarEnv &Env);

/// Structural equality (terms compared by pointer after hash-consing).
bool typeEqual(TypeRef A, TypeRef B);

/// Unfolds one layer of a Named type at refinement \p Refn.
TypeRef unfoldNamed(const RType &Named);

/// The byte size denoted by a type, when statically known from layouts
/// (structs, ints, pointers, padded with constant size). Returns 0 when
/// unknown (e.g. uninit with symbolic size).
uint64_t knownByteSize(TypeRef T);

/// True if reading a value of this type copies it (ints, bools, null,
/// places, valueOf); ownership types move instead.
bool isCopyable(TypeRef T);

/// Canonical location-offset term: locOffset(ℓ, 0) = ℓ; nested offsets
/// combine; constant offsets fold.
TermRef locOffset(TermRef Base, TermRef Off);
TermRef locOffset(TermRef Base, uint64_t Off);

/// Decomposes a location term into (base, constant offset) when possible.
/// Returns true and fills outputs if \p L is `base` or `at(base, k)`.
bool splitLocConst(TermRef L, TermRef &Base, uint64_t &Off);

} // namespace rcc::refinedc

#endif // RCC_REFINEDC_TYPES_H
