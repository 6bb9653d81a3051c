//===- Lexer.cpp ----------------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"

#include <array>
#include <cstring>

using namespace rcc::front;

namespace {

// Character classes of the "C" locale, which the token grammar is defined
// in: identifiers are ASCII only, and every other byte is an error.
enum : uint8_t { IdentStart = 1, Digit = 2, HexDigit = 4, Space = 8 };

constexpr std::array<uint8_t, 256> makeCharClasses() {
  std::array<uint8_t, 256> T{};
  for (int C = 'a'; C <= 'z'; ++C)
    T[C] |= IdentStart;
  for (int C = 'A'; C <= 'Z'; ++C)
    T[C] |= IdentStart;
  T['_'] |= IdentStart;
  for (int C = '0'; C <= '9'; ++C)
    T[C] |= Digit | HexDigit;
  for (int C = 'a'; C <= 'f'; ++C)
    T[C] |= HexDigit;
  for (int C = 'A'; C <= 'F'; ++C)
    T[C] |= HexDigit;
  for (char C : {' ', '\t', '\n', '\v', '\f', '\r'})
    T[static_cast<unsigned char>(C)] |= Space;
  return T;
}
constexpr std::array<uint8_t, 256> CharClasses = makeCharClasses();

bool hasClass(char C, uint8_t Class) {
  return CharClasses[static_cast<unsigned char>(C)] & Class;
}

Kw keywordId(std::string_view S) {
  switch (S.size()) {
  case 2:
    return S == "if" ? Kw::If : S == "do" ? Kw::Do : Kw::None;
  case 3:
    return S == "int" ? Kw::Int : S == "for" ? Kw::For : Kw::None;
  case 4:
    return S == "void"   ? Kw::Void
           : S == "char" ? Kw::Char
           : S == "long" ? Kw::Long
           : S == "else" ? Kw::Else
           : S == "goto" ? Kw::Goto
           : S == "NULL" ? Kw::Null
           : S == "bool" ? Kw::Bool
           : S == "true" ? Kw::True
           : S == "case" ? Kw::Case
                         : Kw::None;
  case 5:
    return S == "short"   ? Kw::Short
           : S == "union" ? Kw::Union
           : S == "while" ? Kw::While
           : S == "break" ? Kw::Break
           : S == "false" ? Kw::False
           : S == "const" ? Kw::Const
           : S == "_Bool" ? Kw::UBool
                          : Kw::None;
  case 6:
    return S == "signed"   ? Kw::Signed
           : S == "struct" ? Kw::Struct
           : S == "return" ? Kw::Return
           : S == "sizeof" ? Kw::Sizeof
           : S == "size_t" ? Kw::SizeT
           : S == "int8_t" ? Kw::Int8
           : S == "static" ? Kw::Static
           : S == "switch" ? Kw::Switch
                           : Kw::None;
  case 7:
    return S == "typedef"   ? Kw::Typedef
           : S == "uint8_t" ? Kw::Uint8
           : S == "int16_t" ? Kw::Int16
           : S == "int32_t" ? Kw::Int32
           : S == "int64_t" ? Kw::Int64
           : S == "default" ? Kw::Default
                            : Kw::None;
  case 8:
    return S == "unsigned"   ? Kw::Unsigned
           : S == "continue" ? Kw::Continue
           : S == "uint16_t" ? Kw::Uint16
           : S == "uint32_t" ? Kw::Uint32
           : S == "uint64_t" ? Kw::Uint64
                             : Kw::None;
  case 9:
    return S == "uintptr_t" ? Kw::Uintptr : Kw::None;
  }
  return Kw::None;
}

/// The punctuator that the input \p In (padded with '\0' past the end)
/// starts with, and its length; Pu::None if none does. The first character
/// selects the candidates, listed longest first: the longest match wins.
Pu scanPunct(const char (&In)[3], unsigned &Len) {
  auto Longest = [&](std::initializer_list<Pu> Candidates) {
    for (Pu P : Candidates) {
      const char *S = punctSpelling(P);
      unsigned N = 0;
      while (S[N] && S[N] == In[N])
        ++N;
      if (!S[N]) {
        Len = N;
        return P;
      }
    }
    return Pu::None;
  };
  switch (In[0]) {
  case '<':
    return Longest({Pu::ShlAssign, Pu::Shl, Pu::Le, Pu::Lt});
  case '>':
    return Longest({Pu::ShrAssign, Pu::Shr, Pu::Ge, Pu::Gt});
  case '-':
    return Longest({Pu::Arrow, Pu::Dec, Pu::SubAssign, Pu::Minus});
  case '+':
    return Longest({Pu::Inc, Pu::AddAssign, Pu::Plus});
  case '&':
    return Longest({Pu::AndAnd, Pu::AndAssign, Pu::Amp});
  case '|':
    return Longest({Pu::OrOr, Pu::OrAssign, Pu::Pipe});
  case '=':
    return Longest({Pu::EqEq, Pu::Assign});
  case '!':
    return Longest({Pu::Ne, Pu::Bang});
  case '*':
    return Longest({Pu::MulAssign, Pu::Star});
  case '/':
    return Longest({Pu::DivAssign, Pu::Slash});
  case '%':
    return Longest({Pu::ModAssign, Pu::Percent});
  case '^':
    return Longest({Pu::XorAssign, Pu::Caret});
  case '.':
    return Longest({Pu::Ellipsis, Pu::Dot});
  }
  // Single-character punctuators, the most frequent first.
  static const char Singles[] = "();,{}[]:?~";
  static const Pu SingleIds[] = {Pu::LParen,   Pu::RParen, Pu::Semi,
                                 Pu::Comma,    Pu::LBrace, Pu::RBrace,
                                 Pu::LBracket, Pu::RBracket, Pu::Colon,
                                 Pu::Question, Pu::Tilde};
  const char *At = In[0] ? std::strchr(Singles, In[0]) : nullptr;
  if (!At)
    return Pu::None;
  Len = 1;
  return SingleIds[At - Singles];
}

} // namespace

const char *rcc::front::punctSpelling(Pu P) {
  static const char *const Spellings[] = {
      "",   "<<=", ">>=", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
      "&&", "||",  "+=",  "-=", "*=", "/=", "%=", "&=", "|=", "^=", "...",
      "+",  "-",   "*",   "/",  "%",  "&",  "|",  "^",  "~",  "!",  "<",
      ">",  "=",   "(",   ")",  "{",  "}",  "[",  "]",  ";",  ",",  ".",
      ":",  "?"};
  static_assert(sizeof(Spellings) / sizeof(Spellings[0]) ==
                static_cast<size_t>(Pu::Question) + 1);
  return Spellings[static_cast<size_t>(P)];
}

std::string rcc::front::decodeStringLiteral(std::string_view Raw) {
  std::string Out;
  Out.reserve(Raw.size());
  for (size_t I = 0; I < Raw.size(); ++I) {
    char D = Raw[I];
    if (D == '\\' && I + 1 < Raw.size()) {
      char E = Raw[++I];
      Out += E == 'n' ? '\n' : E == 't' ? '\t' : E;
      continue;
    }
    Out += D;
  }
  return Out;
}

std::string rcc::front::tokenSpelling(const Token &T) {
  if (T.is(TokKind::String))
    return decodeStringLiteral(T.Text);
  if (T.isCharLiteral())
    return std::string(1, static_cast<char>(T.IntVal));
  return std::string(T.Text);
}

std::vector<Token> rcc::front::lexSource(const std::string &Source,
                                         rcc::DiagnosticEngine &Diags) {
  const char *const Src = Source.data();
  const size_t N = Source.size();
  size_t Pos = 0;
  uint32_t Line = 1;
  size_t LineStart = 0; ///< offset of the current line's first character

  // A few bytes per token in practice; one reservation avoids regrowing
  // through every power of two.
  std::vector<Token> Out;
  Out.reserve(N / 3 + 16);

  // Positions past the end read as '\0': a character literal at the end of
  // the input consumes such phantom characters, and its end column counts
  // them.
  auto peek = [&](size_t Ahead) {
    return Pos + Ahead < N ? Src[Pos + Ahead] : '\0';
  };
  auto loc = [&] {
    return rcc::SourceLoc{Line, static_cast<uint32_t>(Pos - LineStart + 1)};
  };
  // Consumes one character, keeping the line count.
  auto bump = [&] {
    char C = peek(0);
    ++Pos;
    if (C == '\n') {
      ++Line;
      LineStart = Pos;
    }
    return C;
  };
  auto view = [&](size_t B, size_t E) {
    return std::string_view(Src + B, std::min(E, N) - B);
  };
  // Every token is pushed through here so its end position (one past the
  // last consumed character) is recorded.
  auto push = [&](TokKind K, uint8_t Id, std::string_view Text, uint64_t Val,
                  rcc::SourceLoc Loc) {
    Token &T = Out.emplace_back();
    T.K = K;
    T.Id = Id;
    T.Text = Text;
    T.IntVal = Val;
    T.Loc = Loc;
    T.End = loc();
  };

  while (Pos < N) {
    const char C = Src[Pos];
    if (hasClass(C, Space)) {
      bump();
      continue;
    }
    const char C1 = peek(1);
    // Comments.
    if (C == '/' && C1 == '/') {
      const void *NL = std::memchr(Src + Pos, '\n', N - Pos);
      Pos = NL ? static_cast<size_t>(static_cast<const char *>(NL) - Src) : N;
      continue;
    }
    const rcc::SourceLoc Loc = loc();
    const size_t Start = Pos;
    if (C == '/' && C1 == '*') {
      Pos += 2;
      while (Pos < N && !(Src[Pos] == '*' && peek(1) == '/'))
        bump();
      if (Pos < N)
        Pos += 2;
      else
        Diags.error(Loc, "unterminated comment");
      continue;
    }

    // Attribute brackets.
    if ((C == '[' && C1 == '[') || (C == ']' && C1 == ']')) {
      Pos += 2;
      push(C == '[' ? TokKind::AttrOpen : TokKind::AttrClose, 0,
           view(Start, Pos), 0, Loc);
      continue;
    }

    // Identifiers and keywords.
    if (hasClass(C, IdentStart)) {
      do
        ++Pos;
      while (Pos < N && hasClass(Src[Pos], IdentStart | Digit));
      std::string_view Text = view(Start, Pos);
      Kw W = keywordId(Text);
      push(W == Kw::None ? TokKind::Ident : TokKind::Keyword,
           static_cast<uint8_t>(W), Text, 0, Loc);
      continue;
    }

    // Numbers (decimal and hex; optional U/L suffixes ignored). Literals
    // that do not fit in 64 bits are a hard diagnostic: silently wrapping
    // would hand the type checker a wrong constant, and a wrong constant in
    // an otherwise well-formed program is far worse than a rejection.
    if (hasClass(C, Digit)) {
      uint64_t Val = 0;
      bool Overflow = false;
      if (C == '0' && (C1 == 'x' || C1 == 'X')) {
        Pos += 2;
        bool AnyDigit = false;
        while (Pos < N && hasClass(Src[Pos], HexDigit)) {
          char D = Src[Pos++];
          AnyDigit = true;
          uint64_t Dig = hasClass(D, Digit)
                             ? static_cast<uint64_t>(D - '0')
                             : static_cast<uint64_t>((D | 0x20) - 'a' + 10);
          if (Val > (UINT64_MAX - Dig) / 16)
            Overflow = true;
          else
            Val = Val * 16 + Dig;
        }
        // A bare "0x" must not lex as the number 0 (with the 'x' then
        // re-lexed as an identifier, or worse).
        if (!AnyDigit)
          Diags.error(Loc, "hexadecimal literal '" +
                               std::string(view(Start, Pos)) +
                               "' expects at least one digit");
      } else {
        while (Pos < N && hasClass(Src[Pos], Digit)) {
          uint64_t Dig = static_cast<uint64_t>(Src[Pos++] - '0');
          if (Val > (UINT64_MAX - Dig) / 10)
            Overflow = true;
          else
            Val = Val * 10 + Dig;
        }
      }
      std::string_view Text = view(Start, Pos);
      if (Overflow)
        Diags.error(Loc, "integer literal '" + std::string(Text) +
                             "' does not fit in 64 bits");
      while (Pos < N && (Src[Pos] == 'u' || Src[Pos] == 'U' ||
                         Src[Pos] == 'l' || Src[Pos] == 'L'))
        ++Pos;
      push(TokKind::Number, 0, Text, Val, Loc);
      continue;
    }

    // String literals (the payload of rc:: annotations), kept raw:
    // decodeStringLiteral resolves the escapes where the text is used.
    if (C == '"') {
      ++Pos;
      const size_t Body = Pos;
      while (Pos < N && Src[Pos] != '"') {
        if (bump() == '\\' && Pos < N)
          bump();
      }
      const size_t BodyEnd = Pos;
      if (Pos >= N)
        Diags.error(Loc, "unterminated string literal");
      else
        ++Pos; // closing quote
      push(TokKind::String, 0, view(Body, BodyEnd), 0, Loc);
      continue;
    }

    // Character literals -> integer tokens.
    if (C == '\'') {
      ++Pos;
      const size_t Body = Pos;
      char V = bump();
      if (V == '\\') {
        char E = bump();
        V = E == 'n' ? '\n' : E == 't' ? '\t' : E == '0' ? '\0' : E;
      }
      const size_t BodyEnd = Pos;
      if (peek(0) == '\'')
        ++Pos;
      else
        Diags.error(Loc, "unterminated character literal");
      push(TokKind::Number, 1, view(Body, BodyEnd), static_cast<uint64_t>(V),
           Loc);
      continue;
    }

    unsigned Len = 0;
    const char In[3] = {C, C1, peek(2)};
    Pu P = scanPunct(In, Len);
    if (P != Pu::None) {
      Pos += Len;
      push(TokKind::Punct, static_cast<uint8_t>(P), view(Start, Pos), 0, Loc);
      continue;
    }

    Diags.error(Loc, std::string("unexpected character '") + C + "'");
    ++Pos;
  }

  push(TokKind::Eof, 0, std::string_view(), 0, loc());
  return Out;
}
