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
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rcc::refinedc {

/// The specification-level environment: named types, function specs, the
/// specs of function-type typedefs, and struct layouts (for sizeof and
/// array element sizes). It owns its definitions and specs; types point to
/// them by plain pointer.
struct TypeEnv {
  std::map<std::string, std::unique_ptr<NamedTypeDef>> Named;
  std::map<std::string, std::unique_ptr<FnSpec>> FnSpecs;
  /// What `fn<NAME>` resolves against: specs on function-type typedefs
  /// only, so no function's spec depends on another function's.
  std::map<std::string, std::unique_ptr<FnSpec>> FnTypeSpecs;
  std::map<std::string, const caesium::StructLayout *> Layouts;

  const NamedTypeDef *named(const std::string &N) const {
    auto It = Named.find(N);
    return It == Named.end() ? nullptr : It->second.get();
  }
};

/// Variable scope for spec parsing: name -> sort.
using SpecScope = std::map<std::string, pure::Sort, std::less<>>;

/// Parses "name: sort" (e.g. "a: nat", "s: {gmultiset nat}").
bool parseBinder(std::string_view S, std::string &Name, pure::Sort &Sort,
                 rcc::DiagnosticEngine &Diags, rcc::SourceLoc Loc);

/// Parses one spec string. The constructor scans the text once into tokens
/// that view it; the parser then compares tokens, never building strings,
/// and copies the caller's scope only when a binder opens.
class SpecParser {
public:
  /// \p Text must outlive the parser.
  SpecParser(std::string_view Text, const TypeEnv &Env,
             const SpecScope &Scope, rcc::DiagnosticEngine &Diags,
             rcc::SourceLoc Loc);
  SpecParser(const char *Text, const TypeEnv &Env, const SpecScope &Scope,
             rcc::DiagnosticEngine &Diags, rcc::SourceLoc Loc)
      : SpecParser(std::string_view(Text), Env, Scope, Diags, Loc) {}
  /// A temporary text would leave the tokens dangling.
  SpecParser(std::string &&, const TypeEnv &, const SpecScope &,
             rcc::DiagnosticEngine &, rcc::SourceLoc) = delete;
  SpecParser(const SpecParser &) = delete;
  SpecParser &operator=(const SpecParser &) = delete;

  /// Parses a complete type (consuming all input).
  TypeRef parseTypeFull();
  /// Parses a complete term.
  TermRef parseTermFull();
  /// Parses a spec atom: `own <loc> : <type>` or a type-free pure prop.
  bool parseAtomFull(ResAtom &Out);
  /// Parses "var: type" (rc::inv_vars).
  bool parseInvVarFull(std::string &Var, TypeRef &Ty);

  /// The `...` placeholder target used inside rc::ptr_type bodies.
  TypeRef SelfStructType = nullptr;

  bool hadError() const { return HadError; }

private:
  /// A word ([A-Za-z_][A-Za-z0-9_]*), a digit run, or any other single
  /// byte (so a UTF-8 operator is a run of glued byte tokens). A word
  /// directly after a digit run is its own token, as the number ends there.
  enum class TokKind : uint8_t { End, Word, Num, Char };
  struct Tok {
    uint32_t Off = 0; ///< byte offset in Text
    uint32_t Len = 0;
    TokKind K = TokKind::End;
    /// No whitespace between this token and the one before it: `f(x)` is
    /// an application and `ls (+) rs` a union only by this bit.
    bool Glued = false;
  };

  // Tokens.
  void scan(size_t From);
  const Tok &tok(size_t I) const {
    return Toks[I < Toks.size() ? I : Toks.size() - 1];
  }
  const Tok &cur() const { return tok(Pos); }
  std::string_view text(const Tok &T) const {
    return Text.substr(T.Off, T.Len);
  }
  bool atChar(char C) const {
    return cur().K == TokKind::Char && Text[cur().Off] == C;
  }
  /// The number of tokens \p S spans from the current one, or 0 when the
  /// text there does not start with \p S. \p Partial receives the bytes of
  /// the last token that \p S covers when it covers only a prefix of it.
  size_t matchLen(std::string_view S, size_t &Partial) const;
  bool eat(std::string_view S);
  bool peekIs(std::string_view S) const {
    size_t Partial;
    return matchLen(S, Partial) != 0;
  }
  std::string_view ident();
  bool atIdent() const { return cur().K == TokKind::Word; }
  int64_t number();
  void error(const std::string &Msg);
  /// The scope to bind in: a copy of the caller's, made on first use.
  SpecScope &ownScope();

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
  TermRef variable(std::string_view Id, const char *What);
  pure::Sort sortName();

  // Types.
  TypeRef type();
  TypeRef typeCore();
  TermRef refinement();
  caesium::IntType intTypeName();

  std::string_view Text;
  std::vector<Tok> Toks; ///< ends with one End token
  size_t Pos = 0; ///< current token
  const TypeEnv &Env;
  const SpecScope *Scope;
  std::optional<SpecScope> OwnScope;
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
