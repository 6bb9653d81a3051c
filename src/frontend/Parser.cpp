//===- Parser.cpp ---------------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"


using namespace rcc::front;
using rcc::caesium::IntType;

//===----------------------------------------------------------------------===//
// CType helpers
//===----------------------------------------------------------------------===//

std::string CType::str() const {
  switch (K) {
  case CTypeKind::Void:
    return "void";
  case CTypeKind::Int:
    return Ity.str();
  case CTypeKind::Pointer:
    return Pointee->str() + "*";
  case CTypeKind::Struct:
    return "struct " + StructName;
  case CTypeKind::Array:
    return Pointee->str() + "[" + std::to_string(ArrayLen) + "]";
  case CTypeKind::Func: {
    std::string S = Ret->str() + "(";
    for (size_t I = 0; I < Params.size(); ++I) {
      if (I)
        S += ", ";
      S += Params[I]->str();
    }
    return S + ")";
  }
  }
  return "?";
}

CTypePtr rcc::front::ctVoid() {
  static CTypePtr T = std::make_shared<CType>();
  return T;
}
CTypePtr rcc::front::ctInt(IntType Ity) {
  auto T = std::make_shared<CType>();
  T->K = CTypeKind::Int;
  T->Ity = Ity;
  return T;
}
CTypePtr rcc::front::ctPtr(CTypePtr Pointee) {
  auto T = std::make_shared<CType>();
  T->K = CTypeKind::Pointer;
  T->Pointee = std::move(Pointee);
  return T;
}
CTypePtr rcc::front::ctStruct(const std::string &Name) {
  auto T = std::make_shared<CType>();
  T->K = CTypeKind::Struct;
  T->StructName = Name;
  return T;
}
CTypePtr rcc::front::ctArray(CTypePtr Elem, uint64_t Len) {
  auto T = std::make_shared<CType>();
  T->K = CTypeKind::Array;
  T->Pointee = std::move(Elem);
  T->ArrayLen = Len;
  return T;
}
CTypePtr rcc::front::ctFunc(CTypePtr Ret, std::vector<CTypePtr> Params) {
  auto T = std::make_shared<CType>();
  T->K = CTypeKind::Func;
  T->Ret = std::move(Ret);
  T->Params = std::move(Params);
  return T;
}

//===----------------------------------------------------------------------===//
// Typedef table
//===----------------------------------------------------------------------===//

void TypedefTable::declare(std::string_view Name, size_t At, CTypePtr Ty) {
  auto It = Decls.find(Name);
  if (It == Decls.end())
    It = Decls.try_emplace(std::string(Name)).first;
  It->second.emplace_back(At, std::move(Ty));
}

const CTypePtr *TypedefTable::lookup(std::string_view Name,
                                     size_t Before) const {
  auto It = Decls.find(Name);
  if (It == Decls.end())
    return nullptr;
  // Declarations are recorded in token order.
  for (auto D = It->second.rbegin(); D != It->second.rend(); ++D)
    if (D->first < Before)
      return &D->second;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Token helpers
//===----------------------------------------------------------------------===//

const Token &Parser::peek(int Ahead) const {
  size_t I = Pos + Ahead;
  if (I >= Toks.size())
    I = Toks.size() - 1; // Eof
  return Toks[I];
}

const Token &Parser::advance() {
  const Token &T = cur();
  if (Pos + 1 < Toks.size())
    ++Pos;
  return T;
}

bool Parser::eat(Pu P) {
  if (!at(P))
    return false;
  advance();
  return true;
}

bool Parser::eat(Kw K) {
  if (!at(K))
    return false;
  advance();
  return true;
}

bool Parser::expect(Pu P) {
  if (eat(P))
    return true;
  error(std::string("expected '") + punctSpelling(P) + "' but found '" +
        tokenSpelling(cur()) + "'");
  return false;
}

void Parser::error(const std::string &Msg) { Diags.error(cur().Loc, Msg); }

void Parser::skipTo(Pu P) {
  while (!cur().is(TokKind::Eof) && !at(P))
    advance();
  eat(P);
}

//===----------------------------------------------------------------------===//
// Annotations
//===----------------------------------------------------------------------===//

std::vector<RcAnnot> Parser::parseAnnotList() {
  std::vector<RcAnnot> Out;
  while (cur().is(TokKind::AttrOpen)) {
    advance();
    // rc :: kind ( "arg", ... )  -- possibly multiple attributes per [[ ]].
    while (!cur().is(TokKind::AttrClose) && !cur().is(TokKind::Eof)) {
      RcAnnot A;
      A.Loc = cur().Loc;
      if (!cur().isIdent() || cur().Text != "rc") {
        error("expected 'rc::' attribute");
        break;
      }
      advance();
      expect(Pu::Colon);
      expect(Pu::Colon);
      if (!cur().isIdent()) {
        error("expected annotation name after rc::");
        break;
      }
      A.Kind = advance().Text;
      if (eat(Pu::LParen)) {
        while (!at(Pu::RParen) && !cur().is(TokKind::Eof)) {
          if (cur().is(TokKind::String)) {
            // Adjacent string literals concatenate (used for multi-line
            // annotations, as in Figure 3's ptr_type).
            std::string S = decodeStringLiteral(advance().Text);
            while (cur().is(TokKind::String))
              S += decodeStringLiteral(advance().Text);
            A.Args.push_back(std::move(S));
          } else {
            error("annotation arguments must be string literals");
            advance();
          }
          if (!eat(Pu::Comma))
            break;
        }
        expect(Pu::RParen);
      }
      Out.push_back(std::move(A));
      if (!eat(Pu::Comma))
        break;
    }
    if (!cur().is(TokKind::AttrClose)) {
      error("expected ']]'");
      while (!cur().is(TokKind::AttrClose) && !cur().is(TokKind::Eof))
        advance();
    }
    if (cur().is(TokKind::AttrClose))
      advance();
  }
  return Out;
}

void Parser::skipAnnotLists() {
  while (cur().is(TokKind::AttrOpen)) {
    while (!cur().is(TokKind::AttrClose) && !cur().is(TokKind::Eof))
      advance();
    if (!cur().is(TokKind::AttrClose)) {
      error("expected ']]'");
      return;
    }
    advance();
  }
}

std::vector<RcAnnot> Parser::annotsAt(size_t Begin, size_t End) {
  const size_t Save = Pos;
  Pos = Begin;
  std::vector<RcAnnot> Out = parseAnnotList();
  if (Pos != End)
    error("expected ']]'");
  Pos = Save;
  return Out;
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

bool Parser::atTypeStart() const {
  if (cur().is(TokKind::Keyword)) {
    switch (static_cast<Kw>(cur().Id)) {
    case Kw::Void:
    case Kw::Char:
    case Kw::Short:
    case Kw::Int:
    case Kw::Long:
    case Kw::Unsigned:
    case Kw::Signed:
    case Kw::Struct:
    case Kw::Union:
    case Kw::SizeT:
    case Kw::Uint8:
    case Kw::Uint16:
    case Kw::Uint32:
    case Kw::Uint64:
    case Kw::Int8:
    case Kw::Int16:
    case Kw::Int32:
    case Kw::Int64:
    case Kw::Bool:
    case Kw::UBool:
    case Kw::Const:
    case Kw::Static:
    case Kw::Uintptr:
      return true;
    default:
      return false;
    }
  }
  if (cur().isIdent())
    return lookupTypedef(cur().Text) != nullptr;
  return false;
}

CTypePtr Parser::parseTypeSpecifier(std::vector<RcAnnot> *StructAnnotsOut) {
  while (eat(Kw::Const) || eat(Kw::Static)) {
  }
  if (eat(Kw::Void))
    return ctVoid();
  if (eat(Kw::Struct) || eat(Kw::Union)) {
    std::vector<RcAnnot> Annots = parseAnnotList();
    if (StructAnnotsOut)
      *StructAnnotsOut = std::move(Annots);
    if (!cur().isIdent()) {
      error("expected struct name");
      return ctVoid();
    }
    return ctStruct(std::string(advance().Text));
  }

  // Fixed-width and standard integer types.
  using namespace rcc::caesium;
  static const std::pair<Kw, IntType> NamedInts[] = {
      {Kw::SizeT, intSizeT()}, {Kw::Uintptr, intU64()}, {Kw::Uint8, intU8()},
      {Kw::Uint16, intU16()},  {Kw::Uint32, intU32()},  {Kw::Uint64, intU64()},
      {Kw::Int8, intI8()},     {Kw::Int16, intI16()},   {Kw::Int32, intI32()},
      {Kw::Int64, intI64()},   {Kw::Bool, intU8()},     {Kw::UBool, intU8()},
  };
  for (const auto &[K, Ity] : NamedInts)
    if (eat(K))
      return ctInt(Ity);

  // Combinations of signed/unsigned char/short/int/long.
  bool SawUnsigned = false, SawSigned = false;
  int Longs = 0;
  bool SawChar = false, SawShort = false, SawInt = false;
  bool Any = false;
  while (true) {
    if (eat(Kw::Unsigned)) {
      SawUnsigned = true;
      Any = true;
      continue;
    }
    if (eat(Kw::Signed)) {
      SawSigned = true;
      Any = true;
      continue;
    }
    if (eat(Kw::Long)) {
      ++Longs;
      Any = true;
      continue;
    }
    if (eat(Kw::Char)) {
      SawChar = true;
      Any = true;
      continue;
    }
    if (eat(Kw::Short)) {
      SawShort = true;
      Any = true;
      continue;
    }
    if (eat(Kw::Int)) {
      SawInt = true;
      Any = true;
      continue;
    }
    break;
  }
  (void)SawSigned;
  (void)SawInt;
  if (Any) {
    uint8_t Size = SawChar ? 1 : SawShort ? 2 : Longs >= 1 ? 8 : 4;
    return ctInt(IntType{Size, !SawUnsigned});
  }

  // Typedef name.
  if (cur().isIdent()) {
    if (const CTypePtr *T = lookupTypedef(cur().Text)) {
      advance();
      return *T;
    }
  }
  error("expected a type, found '" + tokenSpelling(cur()) + "'");
  advance();
  return ctVoid();
}

CTypePtr Parser::parseDeclarator(CTypePtr Base, std::string &Name,
                                 bool AllowAbstract) {
  while (eat(Pu::Star)) {
    Base = ctPtr(Base);
    while (eat(Kw::Const)) {
    }
  }
  // Function-pointer declarator: ( * name ) ( params )
  if (at(Pu::LParen) && peek(1).is(Pu::Star)) {
    advance(); // (
    advance(); // *
    if (cur().isIdent()) {
      LastNameLoc = cur().Loc;
      LastNameEnd = cur().End;
      Name = advance().Text;
    } else if (!AllowAbstract) {
      error("expected identifier in function-pointer declarator");
    }
    expect(Pu::RParen);
    expect(Pu::LParen);
    std::vector<CTypePtr> Params;
    if (!at(Pu::RParen)) {
      do {
        CTypePtr PT = parseTypeSpecifier();
        std::string Ignored;
        PT = parseDeclarator(PT, Ignored, /*AllowAbstract=*/true);
        Params.push_back(PT);
      } while (eat(Pu::Comma));
    }
    expect(Pu::RParen);
    return ctPtr(ctFunc(Base, std::move(Params)));
  }
  if (cur().isIdent()) {
    LastNameLoc = cur().Loc;
    LastNameEnd = cur().End;
    Name = advance().Text;
  } else if (!AllowAbstract && !at(Pu::LBracket)) {
    // Nameless declarator only allowed in abstract positions.
  }
  while (eat(Pu::LBracket)) {
    uint64_t Len = 0;
    if (cur().is(TokKind::Number))
      Len = advance().IntVal;
    else
      error("array length must be an integer literal");
    expect(Pu::RBracket);
    Base = ctArray(Base, Len);
  }
  return Base;
}

CTypePtr Parser::parseFullType() {
  CTypePtr T = parseTypeSpecifier();
  std::string Ignored;
  return parseDeclarator(T, Ignored, /*AllowAbstract=*/true);
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

void Parser::parseStructBody(CStructDecl &SD) {
  expect(Pu::LBrace);
  while (!at(Pu::RBrace) && !cur().is(TokKind::Eof)) {
    CStructField F;
    F.Loc = cur().Loc;
    F.Annots = parseAnnotList();
    CTypePtr Base = parseTypeSpecifier();
    F.Ty = parseDeclarator(Base, F.Name);
    if (F.Name.empty())
      error("expected field name");
    expect(Pu::Semi);
    SD.Fields.push_back(std::move(F));
  }
  expect(Pu::RBrace);
}

std::vector<CParam> Parser::parseParamList() {
  std::vector<CParam> Params;
  expect(Pu::LParen);
  if (at(Kw::Void) && peek(1).is(Pu::RParen)) {
    advance();
    expect(Pu::RParen);
    return Params;
  }
  if (!at(Pu::RParen)) {
    do {
      CParam P;
      CTypePtr Base = parseTypeSpecifier();
      P.Ty = parseDeclarator(Base, P.Name, /*AllowAbstract=*/true);
      Params.push_back(std::move(P));
    } while (eat(Pu::Comma));
  }
  expect(Pu::RParen);
  return Params;
}

void Parser::parseTopLevel(CTranslationUnit &TU, std::vector<RcAnnot> Annots,
                           size_t AnnotBegin) {
  rcc::SourceLoc Loc = cur().Loc;
  // The outline skipped the leading annotation lists. It parses them here,
  // except a function definition's, which parseDeferred parses.
  const size_t AnnotEnd = Pos;
  auto LoadAnnots = [&] {
    if (Outline)
      Annots = annotsAt(AnnotBegin, AnnotEnd);
  };

  // typedef ...
  if (eat(Kw::Typedef)) {
    LoadAnnots();
    if (at(Kw::Struct) || at(Kw::Union)) {
      advance();
      // typedef struct [[annots]] name { ... } [*]alias ;
      std::vector<RcAnnot> StructAnnots = parseAnnotList();
      for (RcAnnot &A : StructAnnots)
        Annots.push_back(std::move(A));
      std::string StructName;
      if (cur().isIdent())
        StructName = advance().Text;
      CStructDecl SD;
      SD.Loc = Loc;
      SD.Name = StructName;
      SD.Annots = std::move(Annots);
      if (at(Pu::LBrace))
        parseStructBody(SD);
      bool IsPtr = eat(Pu::Star);
      std::string Alias;
      if (cur().isIdent())
        Alias = advance().Text;
      expect(Pu::Semi);
      if (!Alias.empty()) {
        CTypePtr T = ctStruct(StructName);
        if (IsPtr) {
          T = ctPtr(T);
          SD.PtrTypedefName = Alias;
        }
        Typedefs.declare(Alias, AnnotBegin, T);
        CTypedef TD;
        TD.Name = Alias;
        TD.Ty = T;
        TD.Loc = Loc;
        TU.Typedefs.push_back(std::move(TD));
      }
      if (!SD.Fields.empty() || !SD.Name.empty())
        TU.Structs.push_back(std::move(SD));
      return;
    }
    // typedef of a base/function type: `typedef int cmp_t(void*, void*);`
    // Annotations may follow the typedef keyword (function-type specs).
    for (RcAnnot &A : parseAnnotList())
      Annots.push_back(std::move(A));
    CTypePtr Base = parseTypeSpecifier();
    std::string Name;
    CTypePtr T = parseDeclarator(Base, Name);
    if (at(Pu::LParen)) {
      std::vector<CParam> Params = parseParamList();
      std::vector<CTypePtr> PTs;
      for (CParam &P : Params)
        PTs.push_back(P.Ty);
      T = ctFunc(T, std::move(PTs));
    }
    expect(Pu::Semi);
    if (Name.empty()) {
      error("expected typedef name");
      return;
    }
    Typedefs.declare(Name, AnnotBegin, T);
    CTypedef TD;
    TD.Name = Name;
    TD.Ty = T;
    TD.Annots = std::move(Annots);
    TD.Loc = Loc;
    TU.Typedefs.push_back(std::move(TD));
    return;
  }

  // struct definition (not typedef).
  if (at(Kw::Struct) &&
      (peek(1).is(TokKind::AttrOpen) ||
       (peek(1).isIdent() && peek(2).is(Pu::LBrace)))) {
    advance(); // struct
    LoadAnnots();
    std::vector<RcAnnot> StructAnnots = parseAnnotList();
    for (RcAnnot &A : StructAnnots)
      Annots.push_back(std::move(A));
    CStructDecl SD;
    SD.Loc = Loc;
    SD.Annots = std::move(Annots);
    if (cur().isIdent())
      SD.Name = advance().Text;
    parseStructBody(SD);
    expect(Pu::Semi);
    TU.Structs.push_back(std::move(SD));
    return;
  }

  // Function or global variable.
  CTypePtr Base = parseTypeSpecifier();
  std::string Name;
  CTypePtr T = parseDeclarator(Base, Name);
  // Snapshot the name range now: parseParamList runs parseDeclarator on
  // every parameter and would overwrite it.
  rcc::SourceLoc NameLoc = LastNameLoc;
  rcc::SourceLoc NameEnd = LastNameEnd;
  if (Name.empty()) {
    error("expected declaration name");
    skipTo(Pu::Semi);
    return;
  }

  if (at(Pu::LParen)) {
    CFuncDecl FD;
    FD.Loc = Loc;
    FD.Name = Name;
    FD.NameLoc = NameLoc;
    FD.NameEnd = NameEnd;
    FD.RetTy = T;
    FD.Params = parseParamList();
    if (Outline && at(Pu::LBrace)) {
      // Skip the body by brace matching; parseDeferred parses it.
      FD.Deferred = {AnnotBegin, AnnotEnd, Pos, 0};
      size_t Depth = 0;
      do {
        if (cur().is(TokKind::Eof)) {
          error("expected '}'");
          break;
        }
        if (at(Pu::LBrace))
          ++Depth;
        else if (at(Pu::RBrace))
          --Depth;
        advance();
      } while (Depth);
      FD.Deferred.BodyEnd = Pos;
    } else {
      LoadAnnots();
      FD.Annots = std::move(Annots);
      if (at(Pu::LBrace))
        FD.Body = parseCompound();
      else
        expect(Pu::Semi);
    }
    FD.EndLoc = Pos > 0 ? Toks[Pos - 1].End : cur().Loc;
    TU.Functions.push_back(std::move(FD));
    return;
  }

  CGlobalDecl GD;
  GD.Loc = Loc;
  GD.Name = Name;
  GD.Ty = T;
  LoadAnnots();
  GD.Annots = std::move(Annots);
  if (eat(Pu::Assign)) {
    bool Neg = eat(Pu::Minus);
    if (cur().is(TokKind::Number)) {
      int64_t V = static_cast<int64_t>(advance().IntVal);
      GD.Init = Neg ? -V : V;
    } else {
      error("global initializers must be integer literals");
      skipTo(Pu::Semi);
      TU.Globals.push_back(std::move(GD));
      return;
    }
  }
  expect(Pu::Semi);
  TU.Globals.push_back(std::move(GD));
}

CTranslationUnit Parser::parseTranslationUnit() {
  Outline = false;
  return parseUnit();
}

CTranslationUnit Parser::outlineTranslationUnit() {
  Outline = true;
  return parseUnit();
}

CTranslationUnit Parser::parseUnit() {
  CTranslationUnit TU;
  while (!cur().is(TokKind::Eof)) {
    const size_t AnnotBegin = Pos;
    std::vector<RcAnnot> Annots;
    if (Outline)
      skipAnnotLists();
    else
      Annots = parseAnnotList();
    if (cur().is(TokKind::Eof)) {
      if (Outline)
        annotsAt(AnnotBegin, Pos);
      break;
    }
    size_t Before = Pos;
    parseTopLevel(TU, std::move(Annots), AnnotBegin);
    if (Pos == Before) {
      // Ensure forward progress on malformed input.
      advance();
    }
  }
  return TU;
}

bool Parser::parseDeferred(CFuncDecl &FD, rcc::DiagnosticEngine &D) const {
  const CFuncDecl::TokenRanges &R = FD.Deferred;
  Parser P(*this, R.AnnotBegin, D);
  P.Pos = R.AnnotBegin;
  FD.Annots = P.parseAnnotList();
  if (P.Pos != R.AnnotEnd)
    return false;
  P.Pos = R.BodyBegin;
  FD.Body = P.parseCompound();
  return P.Pos == R.BodyEnd && !D.hasErrors();
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

CStmtPtr Parser::parseCompound() {
  auto S = std::make_unique<CStmt>(CStmtKind::Compound);
  S->Loc = cur().Loc;
  expect(Pu::LBrace);
  while (!at(Pu::RBrace) && !cur().is(TokKind::Eof)) {
    std::vector<RcAnnot> Annots = parseAnnotList();
    size_t Before = Pos;
    CStmtPtr Sub = parseStmt();
    if (Sub) {
      if (!Annots.empty()) {
        if (Sub->K == CStmtKind::While || Sub->K == CStmtKind::For ||
            Sub->K == CStmtKind::DoWhile)
          Sub->LoopAnnots = std::move(Annots);
        else
          Diags.warning(Sub->Loc,
                        "annotations are only meaningful before loops here");
      }
      S->Body.push_back(std::move(Sub));
    }
    if (Pos == Before)
      advance();
  }
  expect(Pu::RBrace);
  return S;
}

CStmtPtr Parser::parseDeclStmt() {
  auto S = std::make_unique<CStmt>(CStmtKind::Decl);
  S->Loc = cur().Loc;
  CTypePtr Base = parseTypeSpecifier();
  S->DeclTy = parseDeclarator(Base, S->DeclName);
  if (S->DeclName.empty())
    error("expected variable name");
  if (eat(Pu::Assign))
    S->Init = parseAssign();
  expect(Pu::Semi);
  return S;
}

CStmtPtr Parser::parseStmt() {
  rcc::SourceLoc Loc = cur().Loc;

  if (at(Pu::LBrace))
    return parseCompound();
  if (eat(Pu::Semi)) {
    auto S = std::make_unique<CStmt>(CStmtKind::Empty);
    S->Loc = Loc;
    return S;
  }
  if (eat(Kw::Return)) {
    auto S = std::make_unique<CStmt>(CStmtKind::Return);
    S->Loc = Loc;
    if (!at(Pu::Semi))
      S->E = parseExpr();
    expect(Pu::Semi);
    return S;
  }
  if (eat(Kw::If)) {
    auto S = std::make_unique<CStmt>(CStmtKind::If);
    S->Loc = Loc;
    expect(Pu::LParen);
    S->E = parseExpr();
    expect(Pu::RParen);
    S->Then = parseStmt();
    if (eat(Kw::Else))
      S->Else = parseStmt();
    return S;
  }
  if (eat(Kw::While)) {
    auto S = std::make_unique<CStmt>(CStmtKind::While);
    S->Loc = Loc;
    expect(Pu::LParen);
    S->E = parseExpr();
    expect(Pu::RParen);
    S->LoopBody = parseStmt();
    return S;
  }
  if (eat(Kw::Do)) {
    auto S = std::make_unique<CStmt>(CStmtKind::DoWhile);
    S->Loc = Loc;
    S->LoopBody = parseStmt();
    if (!eat(Kw::While))
      error("expected 'while' after do-body");
    expect(Pu::LParen);
    S->E = parseExpr();
    expect(Pu::RParen);
    expect(Pu::Semi);
    return S;
  }
  if (eat(Kw::For)) {
    auto S = std::make_unique<CStmt>(CStmtKind::For);
    S->Loc = Loc;
    expect(Pu::LParen);
    if (!eat(Pu::Semi)) {
      if (atTypeStart())
        S->ForInit = parseDeclStmt();
      else {
        auto E = std::make_unique<CStmt>(CStmtKind::ExprSt);
        E->Loc = cur().Loc;
        E->E = parseExpr();
        expect(Pu::Semi);
        S->ForInit = std::move(E);
      }
    }
    if (!at(Pu::Semi))
      S->E = parseExpr();
    expect(Pu::Semi);
    if (!at(Pu::RParen))
      S->ForStep = parseExpr();
    expect(Pu::RParen);
    S->LoopBody = parseStmt();
    return S;
  }
  if (eat(Kw::Break)) {
    auto S = std::make_unique<CStmt>(CStmtKind::Break);
    S->Loc = Loc;
    expect(Pu::Semi);
    return S;
  }
  if (eat(Kw::Continue)) {
    auto S = std::make_unique<CStmt>(CStmtKind::Continue);
    S->Loc = Loc;
    expect(Pu::Semi);
    return S;
  }
  if (eat(Kw::Goto)) {
    auto S = std::make_unique<CStmt>(CStmtKind::Goto);
    S->Loc = Loc;
    if (cur().isIdent())
      S->DeclName = advance().Text;
    else
      error("expected label after goto");
    expect(Pu::Semi);
    return S;
  }
  // Label: ident ':'
  if (cur().isIdent() && peek(1).is(Pu::Colon) && !peek(2).is(Pu::Colon)) {
    auto S = std::make_unique<CStmt>(CStmtKind::Label);
    S->Loc = Loc;
    S->DeclName = advance().Text;
    advance(); // :
    return S;
  }
  if (atTypeStart())
    return parseDeclStmt();

  auto S = std::make_unique<CStmt>(CStmtKind::ExprSt);
  S->Loc = Loc;
  S->E = parseExpr();
  expect(Pu::Semi);
  return S;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

CExprPtr Parser::parseExpr() { return parseAssign(); }

CExprPtr Parser::parseAssign() {
  CExprPtr L = parseCond();
  if (at(Pu::Assign)) {
    rcc::SourceLoc Loc = advance().Loc;
    auto E = std::make_unique<CExpr>(CExprKind::Assign);
    E->Loc = Loc;
    E->Kids.push_back(std::move(L));
    E->Kids.push_back(parseAssign());
    return E;
  }
  switch (cur().is(TokKind::Punct) ? static_cast<Pu>(cur().Id) : Pu::None) {
  case Pu::AddAssign:
  case Pu::SubAssign:
  case Pu::MulAssign:
  case Pu::DivAssign:
  case Pu::ModAssign:
  case Pu::AndAssign:
  case Pu::OrAssign:
  case Pu::XorAssign:
  case Pu::ShlAssign:
  case Pu::ShrAssign: {
    const Token &Op = advance();
    auto E = std::make_unique<CExpr>(CExprKind::CompoundAssign);
    E->Loc = Op.Loc;
    E->OpText = Op.Text.substr(0, Op.Text.size() - 1); // "+=" -> "+"
    E->Kids.push_back(std::move(L));
    E->Kids.push_back(parseAssign());
    return E;
  }
  default:
    return L;
  }
}

CExprPtr Parser::parseCond() {
  CExprPtr C = parseBinary(0);
  if (!at(Pu::Question))
    return C;
  rcc::SourceLoc Loc = advance().Loc;
  auto E = std::make_unique<CExpr>(CExprKind::Cond);
  E->Loc = Loc;
  E->Kids.push_back(std::move(C));
  E->Kids.push_back(parseExpr());
  expect(Pu::Colon);
  E->Kids.push_back(parseCond());
  return E;
}

namespace {
int binPrec(Pu Op) {
  switch (Op) {
  case Pu::OrOr:
    return 1;
  case Pu::AndAnd:
    return 2;
  case Pu::Pipe:
    return 3;
  case Pu::Caret:
    return 4;
  case Pu::Amp:
    return 5;
  case Pu::EqEq:
  case Pu::Ne:
    return 6;
  case Pu::Lt:
  case Pu::Gt:
  case Pu::Le:
  case Pu::Ge:
    return 7;
  case Pu::Shl:
  case Pu::Shr:
    return 8;
  case Pu::Plus:
  case Pu::Minus:
    return 9;
  case Pu::Star:
  case Pu::Slash:
  case Pu::Percent:
    return 10;
  default:
    return -1;
  }
}
} // namespace

CExprPtr Parser::parseBinary(int MinPrec) {
  CExprPtr L = parseUnary();
  while (cur().is(TokKind::Punct)) {
    int Prec = binPrec(static_cast<Pu>(cur().Id));
    if (Prec < 0 || Prec < MinPrec)
      break;
    std::string_view Op = advance().Text;
    CExprPtr R = parseBinary(Prec + 1);
    auto E = std::make_unique<CExpr>(CExprKind::Binary);
    E->Loc = L->Loc;
    E->OpText = Op;
    E->Kids.push_back(std::move(L));
    E->Kids.push_back(std::move(R));
    L = std::move(E);
  }
  return L;
}

CExprPtr Parser::parseUnary() {
  rcc::SourceLoc Loc = cur().Loc;
  if (eat(Pu::Star)) {
    auto E = std::make_unique<CExpr>(CExprKind::Deref);
    E->Loc = Loc;
    E->Kids.push_back(parseUnary());
    return E;
  }
  if (eat(Pu::Amp)) {
    auto E = std::make_unique<CExpr>(CExprKind::AddrOf);
    E->Loc = Loc;
    E->Kids.push_back(parseUnary());
    return E;
  }
  if (at(Pu::Minus) || at(Pu::Bang) || at(Pu::Tilde)) {
    auto E = std::make_unique<CExpr>(CExprKind::Unary);
    E->Loc = Loc;
    E->OpText = advance().Text;
    E->Kids.push_back(parseUnary());
    return E;
  }
  if (at(Pu::Inc) || at(Pu::Dec)) {
    auto E = std::make_unique<CExpr>(CExprKind::IncDec);
    E->Loc = Loc;
    E->IsDecrement = advance().Text == "--";
    E->IsPost = false;
    E->Kids.push_back(parseUnary());
    return E;
  }
  if (eat(Kw::Sizeof)) {
    auto E = std::make_unique<CExpr>(CExprKind::SizeofType);
    E->Loc = Loc;
    expect(Pu::LParen);
    E->SizeofTy = parseFullType();
    expect(Pu::RParen);
    return E;
  }
  // Cast: '(' type ')' unary
  if (at(Pu::LParen)) {
    size_t Save = Pos;
    advance();
    if (atTypeStart()) {
      CTypePtr T = parseFullType();
      if (eat(Pu::RParen)) {
        auto E = std::make_unique<CExpr>(CExprKind::Cast);
        E->Loc = Loc;
        E->CastTo = T;
        E->Kids.push_back(parseUnary());
        return E;
      }
    }
    Pos = Save;
  }
  return parsePostfix();
}

CExprPtr Parser::parsePostfix() {
  CExprPtr E = parsePrimary();
  while (true) {
    rcc::SourceLoc Loc = cur().Loc;
    if (eat(Pu::LParen)) {
      auto C = std::make_unique<CExpr>(CExprKind::Call);
      C->Loc = Loc;
      C->Kids.push_back(std::move(E));
      if (!at(Pu::RParen)) {
        do {
          C->Kids.push_back(parseAssign());
        } while (eat(Pu::Comma));
      }
      expect(Pu::RParen);
      E = std::move(C);
      continue;
    }
    if (eat(Pu::LBracket)) {
      auto C = std::make_unique<CExpr>(CExprKind::Index);
      C->Loc = Loc;
      C->Kids.push_back(std::move(E));
      C->Kids.push_back(parseExpr());
      expect(Pu::RBracket);
      E = std::move(C);
      continue;
    }
    if (at(Pu::Dot) || at(Pu::Arrow)) {
      bool Arrow = advance().Text == "->";
      auto C = std::make_unique<CExpr>(CExprKind::Member);
      C->Loc = Loc;
      C->IsArrow = Arrow;
      if (cur().isIdent())
        C->Name = advance().Text;
      else
        error("expected field name");
      C->Kids.push_back(std::move(E));
      E = std::move(C);
      continue;
    }
    if (at(Pu::Inc) || at(Pu::Dec)) {
      auto C = std::make_unique<CExpr>(CExprKind::IncDec);
      C->Loc = Loc;
      C->IsDecrement = advance().Text == "--";
      C->IsPost = true;
      C->Kids.push_back(std::move(E));
      E = std::move(C);
      continue;
    }
    break;
  }
  return E;
}

CExprPtr Parser::parsePrimary() {
  rcc::SourceLoc Loc = cur().Loc;
  if (cur().is(TokKind::Number)) {
    auto E = std::make_unique<CExpr>(CExprKind::IntLit);
    E->Loc = Loc;
    E->IntVal = advance().IntVal;
    return E;
  }
  if (eat(Kw::Null)) {
    auto E = std::make_unique<CExpr>(CExprKind::Null);
    E->Loc = Loc;
    return E;
  }
  if (eat(Kw::True)) {
    auto E = std::make_unique<CExpr>(CExprKind::IntLit);
    E->Loc = Loc;
    E->IntVal = 1;
    return E;
  }
  if (eat(Kw::False)) {
    auto E = std::make_unique<CExpr>(CExprKind::IntLit);
    E->Loc = Loc;
    E->IntVal = 0;
    return E;
  }
  if (cur().isIdent()) {
    auto E = std::make_unique<CExpr>(CExprKind::Ident);
    E->Loc = Loc;
    E->Name = advance().Text;
    return E;
  }
  if (eat(Pu::LParen)) {
    CExprPtr E = parseExpr();
    expect(Pu::RParen);
    return E;
  }
  error("expected expression, found '" + tokenSpelling(cur()) + "'");
  advance();
  auto E = std::make_unique<CExpr>(CExprKind::IntLit);
  E->Loc = Loc;
  return E;
}
