//===- Parser.h - Recursive-descent parser for annotated C -----*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the C subset the case studies need: struct definitions (with
/// `[[rc::...]]` annotations in C2x attribute position), typedefs (including
/// the pointer-typedef idiom of Figure 3 and function-pointer typedefs),
/// globals, and function definitions with statements/expressions covering
/// loops, goto, pointer arithmetic, member access, calls through function
/// pointers, and the atomic builtins.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_FRONTEND_PARSER_H
#define RCC_FRONTEND_PARSER_H

#include "frontend/CAst.h"
#include "frontend/Lexer.h"

#include <map>
#include <string_view>

namespace rcc::front {

/// Typedef names, each with the token index of every declaration of it, so
/// that a parser started at a definition resolves only the typedefs
/// declared before that definition. C cannot tell a type name from an
/// identifier without them.
class TypedefTable {
public:
  void declare(std::string_view Name, size_t At, CTypePtr Ty);
  /// The type \p Name was last declared as before token \p Before, or
  /// null.
  const CTypePtr *lookup(std::string_view Name, size_t Before) const;

private:
  std::map<std::string, std::vector<std::pair<size_t, CTypePtr>>,
           std::less<>>
      Decls;
};

class Parser {
public:
  /// \p Tokens view the source they were lexed from, which must outlive
  /// the parser; the returned unit owns all of its strings.
  Parser(std::vector<Token> Tokens, rcc::DiagnosticEngine &Diags)
      : OwnToks(std::move(Tokens)), Toks(OwnToks), Diags(Diags) {}
  Parser(const Parser &) = delete;
  Parser &operator=(const Parser &) = delete;

  /// Parses the whole token stream. On errors, diagnostics are reported and
  /// a best-effort (possibly partial) unit is returned.
  CTranslationUnit parseTranslationUnit();

  /// Parses the unit as parseTranslationUnit does, except that it skips
  /// each function definition's annotation lists and body by token
  /// matching and records their token ranges (CFuncDecl::Deferred) for
  /// parseDeferred. Any reported error means the input has one.
  CTranslationUnit outlineTranslationUnit();

  /// Parses the annotation lists and body that the outline deferred for
  /// \p FD into FD.Annots and FD.Body. It reads only the tokens and the
  /// typedefs declared before the definition, so tasks may parse several
  /// definitions at once. Returns false when it reported an error or did
  /// not end where the outline's range does.
  bool parseDeferred(CFuncDecl &FD, rcc::DiagnosticEngine &Diags) const;

  /// Hands the tokens back, leaving this parser empty.
  std::vector<Token> takeTokens() { return std::move(OwnToks); }

private:
  /// A parser over another parser's tokens and typedefs that sees only the
  /// typedefs declared before token \p Limit.
  Parser(const Parser &Outer, size_t Limit, rcc::DiagnosticEngine &Diags)
      : Toks(Outer.Toks), Diags(Diags), View(&Outer.Typedefs),
        TypedefLimit(Limit) {}

  // Token stream helpers.
  const Token &peek(int Ahead = 0) const;
  const Token &cur() const { return Toks[Pos]; }
  const Token &advance();
  bool at(Pu P) const { return cur().is(P); }
  bool at(Kw K) const { return cur().is(K); }
  bool eat(Pu P);
  bool eat(Kw K);
  bool expect(Pu P);
  void error(const std::string &Msg);
  void skipTo(Pu P);

  // Annotations.
  std::vector<RcAnnot> parseAnnotList();
  /// The outline's annotation lists: skipped, or parsed from their range.
  void skipAnnotLists();
  std::vector<RcAnnot> annotsAt(size_t Begin, size_t End);

  // Types.
  const CTypePtr *lookupTypedef(std::string_view Name) const {
    return (View ? *View : Typedefs).lookup(Name, TypedefLimit);
  }
  bool atTypeStart() const;
  CTypePtr parseTypeSpecifier(std::vector<RcAnnot> *StructAnnotsOut = nullptr);
  CTypePtr parseDeclarator(CTypePtr Base, std::string &Name,
                           bool AllowAbstract = false);
  CTypePtr parseFullType(); ///< specifier + abstract declarator (casts/sizeof)

  // Declarations.
  CTranslationUnit parseUnit();
  void parseTopLevel(CTranslationUnit &TU, std::vector<RcAnnot> Annots,
                     size_t AnnotBegin);
  void parseStructBody(CStructDecl &SD);
  std::vector<CParam> parseParamList();

  // Statements.
  CStmtPtr parseStmt();
  CStmtPtr parseCompound();
  CStmtPtr parseDeclStmt();

  // Expressions (precedence climbing).
  CExprPtr parseExpr();
  CExprPtr parseAssign();
  CExprPtr parseCond();
  CExprPtr parseBinary(int MinPrec);
  CExprPtr parseUnary();
  CExprPtr parsePostfix();
  CExprPtr parsePrimary();

  std::vector<Token> OwnToks;
  const std::vector<Token> &Toks;
  size_t Pos = 0;
  rcc::DiagnosticEngine &Diags;

  /// Range of the most recent name token consumed by parseDeclarator, so
  /// parseTopLevel can attribute a declaration to its name (for editor
  /// diagnostics, which want to underline the name, not the return type).
  rcc::SourceLoc LastNameLoc;
  rcc::SourceLoc LastNameEnd;

  /// Set while outlining: definitions' annotation lists and bodies are
  /// skipped.
  bool Outline = false;

  TypedefTable Typedefs;
  /// The outline's typedefs, for a parser of one deferred definition.
  const TypedefTable *View = nullptr;
  size_t TypedefLimit = ~static_cast<size_t>(0);
};

} // namespace rcc::front

#endif // RCC_FRONTEND_PARSER_H
