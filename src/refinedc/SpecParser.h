//===- SpecParser.h - Parser for the rc:: specification DSL ----*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the strings carried by `[[rc::...]]` annotations into pure terms
/// and RefinedC types. The syntax follows the paper (Figures 1 and 3):
///
///   parameters:   "a: nat", "s: {gmultiset nat}", "p: loc"
///   types:        "p @ &own<a @ mem_t>", "{n <= a} @ optional<...>, null>"
///   terms:        braces delimit term syntax: "{s = {[n]} (+) tail}"
///   atoms:        "own p : {…} @ mem_t" (rc::ensures / wand holes)
///
/// Unicode operators from the paper (≤ ≠ ∅ ⊎ ∈ ∀ →) are accepted alongside
/// ASCII spellings (<=, !=, {[]}, (+), in, forall, ->).
///
//===----------------------------------------------------------------------===//

#ifndef RCC_REFINEDC_SPECPARSER_H
#define RCC_REFINEDC_SPECPARSER_H

#include "refinedc/Types.h"
#include "support/Diagnostics.h"

#include <map>
#include <string>

namespace rcc::refinedc {

/// The specification-level environment: named types, function specs, the
/// specs of function-type typedefs, and struct layouts (for sizeof and
/// array element sizes).
struct TypeEnv {
  std::map<std::string, std::shared_ptr<NamedTypeDef>> Named;
  std::map<std::string, std::shared_ptr<FnSpec>> FnSpecs;
  /// What `fn<NAME>` resolves against: specs on function-type typedefs
  /// only, so no function's spec depends on another function's.
  std::map<std::string, std::shared_ptr<FnSpec>> FnTypeSpecs;
  std::map<std::string, const caesium::StructLayout *> Layouts;

  std::shared_ptr<NamedTypeDef> named(const std::string &N) const {
    auto It = Named.find(N);
    return It == Named.end() ? nullptr : It->second;
  }
};

/// Variable scope for spec parsing: name -> sort.
using SpecScope = std::map<std::string, pure::Sort>;

/// Parses "name: sort" (e.g. "a: nat", "s: {gmultiset nat}").
bool parseBinder(const std::string &S, std::string &Name, pure::Sort &Sort,
                 rcc::DiagnosticEngine &Diags, rcc::SourceLoc Loc);

class SpecParser {
public:
  SpecParser(std::string Text, const TypeEnv &Env, const SpecScope &Scope,
             rcc::DiagnosticEngine &Diags, rcc::SourceLoc Loc)
      : Text(std::move(Text)), Env(Env), Scope(Scope), Diags(Diags),
        Loc(Loc) {}

  /// Parses a complete type (consuming all input).
  TypeRef parseTypeFull();
  /// Parses a complete term.
  TermRef parseTermFull();
  /// Parses a spec atom: `own <loc> : <type>` or a type-free pure prop.
  bool parseAtomFull(ResAtom &Out);
  /// Parses "var: type" (rc::inv_vars).
  bool parseInvVarFull(std::string &Var, TypeRef &Ty);

  /// The `...` placeholder target used inside rc::ptr_type bodies.
  TypeRef SelfStructType;

  bool hadError() const { return HadError; }

private:
  // Lexing (on demand, over UTF-8 text).
  void skipWs();
  bool eat(const std::string &S);
  bool peekIs(const std::string &S);
  std::string ident();
  bool atIdent();
  void error(const std::string &Msg);

  // Terms.
  TermRef term();
  TermRef ternary();
  TermRef implication();
  TermRef disjunction();
  TermRef conjunction();
  TermRef comparison();
  TermRef additive();
  TermRef multiplicative();
  TermRef unary();
  TermRef primary();
  pure::Sort sortName();

  // Types.
  TypeRef type();
  TypeRef typeCore();
  TermRef refinement();
  caesium::IntType intTypeName();

  std::string Text;
  size_t Pos = 0;
  const TypeEnv &Env;
  SpecScope Scope;
  rcc::DiagnosticEngine &Diags;
  rcc::SourceLoc Loc;
  bool HadError = false;
  /// Suppresses diagnostics during speculative parses (refinement '@' ...).
  bool Quiet = false;
  /// Inside `<...>` type brackets, bare '<'/'>' close the bracket instead of
  /// acting as comparisons; braces re-enable them.
  bool NoAngle = false;
};

} // namespace rcc::refinedc

#endif // RCC_REFINEDC_SPECPARSER_H
