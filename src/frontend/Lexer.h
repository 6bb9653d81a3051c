//===- Lexer.h - Lexer for the annotated C subset --------------*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A hand-written lexer for the C subset accepted by the front end, including
/// C2x attribute brackets `[[` `]]` (used for the `[[rc::...]]` annotations of
/// the paper) and string literals carrying specification DSL text.
///
/// Tokens do not own their text: each holds a view of its spelling in the
/// source buffer and, for keywords and punctuators, an id the parser
/// compares instead of the spelling. The source must outlive the tokens.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_FRONTEND_LEXER_H
#define RCC_FRONTEND_LEXER_H

#include "support/Diagnostics.h"
#include "support/SourceLoc.h"

#include <string>
#include <string_view>
#include <vector>

namespace rcc::front {

enum class TokKind : uint8_t {
  Eof,
  Ident,
  Keyword,
  Number,   ///< integer or character literal (IntVal holds the value)
  String,   ///< "..."; Text is the raw body between the quotes
  Punct,    ///< operators and punctuation
  AttrOpen, ///< [[
  AttrClose ///< ]]
};

/// Keyword ids (Token::Id of a Keyword token).
enum class Kw : uint8_t {
  None, Void, Char, Short, Int, Long, Unsigned, Signed, Struct, Union,
  Typedef, Return, If, Else, While, For, Do, Break, Continue, Goto, Sizeof,
  Null, SizeT, Uint8, Uint16, Uint32, Uint64, Int8, Int16, Int32, Int64,
  Bool, True, False, Const, Static, Switch, Case, Default, UBool, Uintptr
};

/// Punctuator ids (Token::Id of a Punct token), in the order of their
/// spellings: <<= >>= -> ++ -- << >> <= >= == != && || += -= *= /= %= &=
/// |= ^= ... + - * / % & | ^ ~ ! < > = ( ) { } [ ] ; , . : ?
enum class Pu : uint8_t {
  None, ShlAssign, ShrAssign, Arrow, Inc, Dec, Shl, Shr, Le, Ge, EqEq, Ne,
  AndAnd, OrOr, AddAssign, SubAssign, MulAssign, DivAssign, ModAssign,
  AndAssign, OrAssign, XorAssign, Ellipsis, Plus, Minus, Star, Slash,
  Percent, Amp, Pipe, Caret, Tilde, Bang, Lt, Gt, Assign, LParen, RParen,
  LBrace, RBrace, LBracket, RBracket, Semi, Comma, Dot, Colon, Question
};

/// The spelling of a punctuator id, e.g. "<<=" for Pu::ShlAssign.
const char *punctSpelling(Pu P);

struct Token {
  TokKind K = TokKind::Eof;
  /// Kw for keywords, Pu for punctuators; for Number tokens, 1 marks a
  /// character literal.
  uint8_t Id = 0;
  /// The spelling in the source: for numbers the digits without their
  /// suffix, for string and character literals the raw body between the
  /// quotes (escapes unresolved).
  std::string_view Text;
  uint64_t IntVal = 0;
  rcc::SourceLoc Loc;
  /// One past the token's last character, giving parsers real ranges for
  /// diagnostics.
  rcc::SourceLoc End = {};

  bool is(TokKind Kind) const { return K == Kind; }
  bool is(Pu P) const {
    return K == TokKind::Punct && Id == static_cast<uint8_t>(P);
  }
  bool is(Kw W) const {
    return K == TokKind::Keyword && Id == static_cast<uint8_t>(W);
  }
  bool isIdent() const { return K == TokKind::Ident; }
  bool isCharLiteral() const { return K == TokKind::Number && Id == 1; }
};

/// Tokenizes \p Source. Errors are reported to \p Diags; lexing continues
/// best-effort so the parser can report more issues. The tokens view
/// \p Source, so it must outlive them.
std::vector<Token> lexSource(const std::string &Source,
                             rcc::DiagnosticEngine &Diags);
/// A temporary source would leave the tokens dangling.
std::vector<Token> lexSource(std::string &&, rcc::DiagnosticEngine &) = delete;

/// Resolves the escapes of a string literal's raw body (\n, \t, \", \\; any
/// other escaped character stands for itself).
std::string decodeStringLiteral(std::string_view Raw);

/// The text diagnostics print for \p T: its spelling, with string and
/// character literals decoded.
std::string tokenSpelling(const Token &T);

} // namespace rcc::front

#endif // RCC_FRONTEND_LEXER_H
