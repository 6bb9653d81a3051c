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

namespace rcc::front {

class Parser {
public:
  /// \p Tokens view the source they were lexed from, which must outlive
  /// the parser; the returned unit owns all of its strings.
  Parser(std::vector<Token> Tokens, rcc::DiagnosticEngine &Diags)
      : Toks(std::move(Tokens)), Diags(Diags) {}

  /// Parses the whole token stream. On errors, diagnostics are reported and
  /// a best-effort (possibly partial) unit is returned.
  CTranslationUnit parseTranslationUnit();

private:
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

  // Types.
  bool atTypeStart() const;
  CTypePtr parseTypeSpecifier(std::vector<RcAnnot> *StructAnnotsOut = nullptr);
  CTypePtr parseDeclarator(CTypePtr Base, std::string &Name,
                           bool AllowAbstract = false);
  CTypePtr parseFullType(); ///< specifier + abstract declarator (casts/sizeof)

  // Declarations.
  void parseTopLevel(CTranslationUnit &TU, std::vector<RcAnnot> Annots);
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

  std::vector<Token> Toks;
  size_t Pos = 0;
  rcc::DiagnosticEngine &Diags;

  /// Range of the most recent name token consumed by parseDeclarator, so
  /// parseTopLevel can attribute a declaration to its name (for editor
  /// diagnostics, which want to underline the name, not the return type).
  rcc::SourceLoc LastNameLoc;
  rcc::SourceLoc LastNameEnd;

  /// Typedef names seen so far; C cannot tell a type name from an
  /// identifier without them.
  std::map<std::string, CTypePtr, std::less<>> Typedefs;
};

} // namespace rcc::front

#endif // RCC_FRONTEND_PARSER_H
