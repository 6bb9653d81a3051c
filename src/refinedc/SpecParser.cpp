//===- SpecParser.cpp -----------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "refinedc/SpecParser.h"

#include <cctype>

using namespace rcc::refinedc;
using namespace rcc::pure;

//===----------------------------------------------------------------------===//
// Binder parsing
//===----------------------------------------------------------------------===//

static bool sortFromName(std::string_view S, Sort &Out) {
  if (S == "nat") {
    Out = Sort::Nat;
    return true;
  }
  if (S == "int" || S == "Z") {
    Out = Sort::Int;
    return true;
  }
  if (S == "bool") {
    Out = Sort::Bool;
    return true;
  }
  if (S == "loc") {
    Out = Sort::Loc;
    return true;
  }
  if (S == "multiset" || S == "gmultiset nat" || S == "{gmultiset nat}") {
    Out = Sort::MSet;
    return true;
  }
  if (S == "set" || S == "gset nat" || S == "{gset nat}") {
    Out = Sort::Set;
    return true;
  }
  if (S == "list" || S == "list nat" || S == "{list nat}") {
    Out = Sort::List;
    return true;
  }
  return false;
}

static bool isSpace(char C) {
  return std::isspace(static_cast<unsigned char>(C));
}
static bool isWordChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

static std::string_view trimView(std::string_view S) {
  while (!S.empty() && isSpace(S.front()))
    S.remove_prefix(1);
  while (!S.empty() && isSpace(S.back()))
    S.remove_suffix(1);
  return S;
}

bool rcc::refinedc::parseBinder(std::string_view S, std::string &Name,
                                Sort &SortOut, rcc::DiagnosticEngine &Diags,
                                rcc::SourceLoc Loc) {
  size_t Colon = S.find(':');
  if (Colon == std::string_view::npos) {
    Diags.error(Loc, "expected 'name: sort' in binder '" + std::string(S) +
                         "'");
    return false;
  }
  Name = trimView(S.substr(0, Colon));
  std::string_view SortStr = trimView(S.substr(Colon + 1));
  if (!SortStr.empty() && SortStr.front() == '{' && SortStr.back() == '}')
    SortStr = trimView(SortStr.substr(1, SortStr.size() - 2));
  if (!sortFromName(SortStr, SortOut)) {
    Diags.error(Loc, "unknown sort '" + std::string(SortStr) +
                         "' in binder '" + std::string(S) + "'");
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Tokens
//===----------------------------------------------------------------------===//

SpecParser::SpecParser(std::string_view Text, const TypeEnv &Env,
                       const SpecScope &Scope, rcc::DiagnosticEngine &Diags,
                       rcc::SourceLoc Loc)
    : Text(Text), Env(Env), Scope(&Scope), Diags(Diags), Loc(Loc) {
  Toks.reserve(Text.size() + 1); // at most one token per byte, and End
  scan(0);
}

/// Replaces the tokens from the current one on with a scan of the text
/// from byte \p From.
void SpecParser::scan(size_t From) {
  Toks.resize(Pos);
  const size_t N = Text.size();
  size_t I = From;
  while (true) {
    const size_t Start = I;
    while (I < N && isSpace(Text[I]))
      ++I;
    Tok T;
    T.Off = static_cast<uint32_t>(I);
    T.Glued = I == Start;
    if (I == N) {
      Toks.push_back(T);
      return;
    }
    size_t J = I + 1;
    const unsigned char C = static_cast<unsigned char>(Text[I]);
    if (std::isalpha(C) || C == '_') {
      T.K = TokKind::Word;
      while (J < N && isWordChar(Text[J]))
        ++J;
    } else if (std::isdigit(C)) {
      T.K = TokKind::Num;
      while (J < N && std::isdigit(static_cast<unsigned char>(Text[J])))
        ++J;
    } else {
      T.K = TokKind::Char;
    }
    T.Len = static_cast<uint32_t>(J - I);
    Toks.push_back(T);
    I = J;
  }
}

size_t SpecParser::matchLen(std::string_view S, size_t &Partial) const {
  Partial = 0;
  size_t I = Pos;
  size_t J = 0;
  while (J < S.size()) {
    const Tok &T = tok(I);
    if (T.K == TokKind::End || Text[T.Off] != S[J] || (J && !T.Glued))
      return 0;
    if (T.K == TokKind::Char) {
      ++I;
      ++J;
      continue;
    }
    // A letter run of S against a word: a whole token unless S ends there.
    size_t E = J;
    while (E < S.size() && isWordChar(S[E]))
      ++E;
    const std::string_view W = text(T);
    if (E < S.size() ? W != S.substr(J, E - J)
                     : W.substr(0, E - J) != S.substr(J))
      return 0;
    if (W.size() > E - J)
      Partial = E - J;
    ++I;
    J = E;
  }
  return I - Pos;
}

bool SpecParser::eat(std::string_view S) {
  size_t Partial;
  const size_t N = matchLen(S, Partial);
  if (!N)
    return false;
  if (Partial) {
    // A word-like S must end at a word boundary.
    if (isWordChar(S[0]))
      return false;
    // `&own` ends inside the word that follows it: continue from there.
    Pos += N - 1;
    scan(cur().Off + Partial);
    return true;
  }
  Pos += N;
  return true;
}

std::string_view SpecParser::ident() {
  const Tok &T = cur();
  if (T.K == TokKind::Word) {
    ++Pos;
    return text(T);
  }
  if (T.K != TokKind::Num)
    return {};
  // A digit run and the word glued to it read as one identifier.
  size_t End = T.Off + T.Len;
  ++Pos;
  if (cur().K == TokKind::Word && cur().Glued) {
    End = cur().Off + cur().Len;
    ++Pos;
  }
  return Text.substr(T.Off, End - T.Off);
}

int64_t SpecParser::number() {
  uint64_t V = 0;
  for (char C : text(cur()))
    V = V * 10 + static_cast<uint64_t>(C - '0');
  ++Pos;
  return static_cast<int64_t>(V);
}

void SpecParser::error(const std::string &Msg) {
  if (!HadError && !Quiet)
    Diags.error(Loc, "in spec '" + std::string(Text) + "': " + Msg);
  HadError = true;
}

SpecScope &SpecParser::ownScope() {
  if (!OwnScope) {
    OwnScope.emplace(*Scope);
    Scope = &*OwnScope;
  }
  return *OwnScope;
}

TermRef SpecParser::variable(std::string_view Id, const char *What) {
  auto It = Scope->find(Id);
  if (It != Scope->end())
    return mkVar(std::string(Id), It->second);
  error("unbound " + std::string(What) + " variable '" + std::string(Id) +
        "'");
  return mkVar(std::string(Id), Sort::Nat);
}

//===----------------------------------------------------------------------===//
// Sorts (for forall/exists binders in terms)
//===----------------------------------------------------------------------===//

Sort SpecParser::sortName() {
  if (eat("{")) {
    // The raw text up to the next '}'.
    const size_t Begin = tok(Pos - 1).Off + 1;
    while (cur().K != TokKind::End && !atChar('}'))
      ++Pos;
    const std::string_view S = Text.substr(Begin, cur().Off - Begin);
    eat("}");
    Sort Out;
    if (sortFromName(trimView(S), Out))
      return Out;
    error("unknown sort '" + std::string(S) + "'");
    return Sort::Nat;
  }
  const std::string_view S = ident();
  Sort Out;
  if (sortFromName(S, Out))
    return Out;
  error("unknown sort '" + std::string(S) + "'");
  return Sort::Nat;
}

//===----------------------------------------------------------------------===//
// Terms
//===----------------------------------------------------------------------===//

TermRef SpecParser::term() { return ternary(); }

TermRef SpecParser::ternary() {
  TermRef C = implication();
  if (eat("?")) {
    TermRef T = ternary();
    if (!eat(":"))
      error("expected ':' in conditional");
    TermRef E = ternary();
    return mkIte(C, T, E);
  }
  return C;
}

TermRef SpecParser::implication() {
  TermRef L = disjunction();
  if (eat("->") || eat("→"))
    return mkImplies(L, implication());
  return L;
}

TermRef SpecParser::disjunction() {
  TermRef L = conjunction();
  while (eat("||") || eat("\\/"))
    L = mkOr(L, conjunction());
  return L;
}

TermRef SpecParser::conjunction() {
  TermRef L = comparison();
  while (eat("&&") || eat("/\\") || eat("∧"))
    L = mkAnd(L, comparison());
  return L;
}

TermRef SpecParser::comparison() {
  TermRef L = additive();
  if (eat("<=") || eat("≤"))
    return mkLe(L, additive());
  if (eat(">=") || eat("≥"))
    return mkGe(L, additive());
  if (eat("!=") || eat("≠"))
    return mkNe(L, additive());
  if (eat("==") || eat("="))
    return mkEq(L, additive());
  if (!NoAngle && eat("<"))
    return mkLt(L, additive());
  if (!NoAngle && eat(">"))
    return mkGt(L, additive());
  if (eat("∈") || eat("in")) {
    TermRef R = additive();
    if (R->sort() == Sort::Set)
      return mkSElem(L, R);
    return mkMElem(L, R);
  }
  return L;
}

TermRef SpecParser::additive() {
  TermRef L = multiplicative();
  while (true) {
    if (eat("(+)") || eat("⊎")) {
      L = mkMUnion(L, multiplicative());
      continue;
    }
    if (eat("(u)") || eat("∪")) {
      L = mkSUnion(L, multiplicative());
      continue;
    }
    if (eat("++")) {
      L = mkLApp(L, multiplicative());
      continue;
    }
    if (eat("::")) {
      L = mkLCons(L, multiplicative());
      continue;
    }
    if (eat("!!")) {
      L = mkLNth(L, multiplicative());
      continue;
    }
    if (eat("+")) { // "++" was tried first
      L = mkAdd(L, multiplicative());
      continue;
    }
    if (!peekIs("->") && eat("-")) {
      L = mkSub(L, multiplicative());
      continue;
    }
    break;
  }
  return L;
}

TermRef SpecParser::multiplicative() {
  TermRef L = unary();
  while (true) {
    if (eat("*")) {
      L = mkMul(L, unary());
      continue;
    }
    if (eat("/")) {
      L = mkDiv(L, unary());
      continue;
    }
    if (eat("%")) {
      L = mkMod(L, unary());
      continue;
    }
    break;
  }
  return L;
}

TermRef SpecParser::unary() {
  if (eat("!") || eat("¬"))
    return mkNot(unary());
  return primary();
}

TermRef SpecParser::primary() {
  if (cur().K == TokKind::End) {
    error("unexpected end of term");
    return mkNat(0);
  }

  // Multiset literals: {[]} is the empty multiset, {[x]} a singleton.
  if (eat("{[]}"))
    return mkMEmpty();
  if (eat("{[")) {
    TermRef X = term();
    if (!eat("]}"))
      error("expected ']}' closing multiset singleton");
    return mkMSingle(X);
  }
  // Braced sub-term (Coq escape in the paper); comparisons re-enable.
  if (eat("{")) {
    bool Saved = NoAngle;
    NoAngle = false;
    TermRef T = term();
    NoAngle = Saved;
    if (!eat("}"))
      error("expected '}'");
    return T;
  }
  if (eat("∅"))
    return mkMEmpty();

  if (eat("(")) {
    TermRef T = term();
    if (!eat(")"))
      error("expected ')'");
    return T;
  }

  if (cur().K == TokKind::Num)
    return mkNat(number());

  // Quantifiers. The bound variable leaves the scope with the body.
  const bool Forall = eat("forall") || eat("∀");
  if (Forall || eat("exists") || eat("∃")) {
    std::string N(ident());
    Sort S = Sort::Nat;
    if (eat(":"))
      S = sortName();
    if (!eat(","))
      eat(".");
    ownScope()[N] = S;
    TermRef Body = term();
    OwnScope->erase(N);
    return Forall ? mkForall(N, S, Body) : mkExists(N, S, Body);
  }

  if (eat("true"))
    return mkTrue();
  if (eat("false"))
    return mkFalse();
  if (eat("[]"))
    return mkLNil();

  // Builtin function-style operators.
  if (atIdent()) {
    const std::string_view Id = ident();
    const size_t AfterId = Pos;
    const bool AdjacentParen = atChar('(') && cur().Glued;
    if (Id == "sizeof" && eat("(")) {
      eat("struct");
      std::string_view N = ident();
      if (N.empty() && eat("_")) // allow sizeof(struct_chunk) style
        N = ident();
      // Accept both "struct chunk" and "struct_chunk".
      if (N.substr(0, 7) == "struct_")
        N.remove_prefix(7);
      if (!eat(")"))
        error("expected ')' after sizeof");
      auto It = Env.Layouts.find(std::string(N));
      if (It == Env.Layouts.end()) {
        error("sizeof of unknown struct '" + std::string(N) + "'");
        return mkNat(0);
      }
      return mkNat(static_cast<int64_t>(It->second->Size));
    }
    if (Id == "global" && eat("(")) {
      std::string_view N = ident();
      if (!eat(")"))
        error("expected ')' after global(name");
      return mkVar("&g:" + std::string(N), Sort::Loc);
    }
    if (Id == "length" && eat("(")) {
      TermRef T = term();
      if (!eat(")"))
        error("expected ')'");
      return mkLLen(T);
    }
    if (Id == "size" && eat("(")) {
      TermRef T = term();
      if (!eat(")"))
        error("expected ')'");
      return mkMSize(T);
    }
    if (Id == "min" && eat("(")) {
      TermRef A = term();
      eat(",");
      TermRef B = term();
      eat(")");
      return mkMin(A, B);
    }
    if (Id == "max" && eat("(")) {
      TermRef A = term();
      eat(",");
      TermRef B = term();
      eat(")");
      return mkMax(A, B);
    }
    if (Id == "repeat" && eat("(")) {
      TermRef A = term();
      eat(",");
      TermRef B = term();
      eat(")");
      return mkLRepeat(A, B);
    }
    if (Id == "update" && eat("(")) {
      TermRef L = term();
      eat(",");
      TermRef I = term();
      eat(",");
      TermRef V = term();
      eat(")");
      return mkLUpdate(L, I, V);
    }
    // Uninterpreted application: f(args), result sort nat. The paren must be
    // adjacent (no space) so that `ls (+) rs` parses as a multiset union.
    if (AdjacentParen && eat("(")) {
      std::vector<TermRef> Args;
      if (!peekIs(")")) {
        do {
          Args.push_back(term());
        } while (eat(","));
      }
      if (!eat(")"))
        error("expected ')'");
      return mkApp(std::string(Id), Sort::Nat, std::move(Args));
    }
    Pos = AfterId;
    return variable(Id, "specification");
  }

  error(std::string("unexpected character '") + Text[cur().Off] +
        "' in term");
  ++Pos;
  return mkNat(0);
}

TermRef SpecParser::parseTermFull() {
  TermRef T = term();
  if (cur().K != TokKind::End)
    error("trailing input after term");
  return T;
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

rcc::caesium::IntType SpecParser::intTypeName() {
  const std::string_view N = ident();
  using namespace rcc::caesium;
  if (N == "size_t" || N == "u64" || N == "uint64_t" || N == "uintptr_t")
    return intU64();
  if (N == "u8" || N == "uint8_t" || N == "uchar")
    return intU8();
  if (N == "u16" || N == "uint16_t")
    return intU16();
  if (N == "u32" || N == "uint32_t" || N == "unsigned")
    return intU32();
  if (N == "i8" || N == "int8_t" || N == "char")
    return intI8();
  if (N == "i16" || N == "int16_t" || N == "short")
    return intI16();
  if (N == "i32" || N == "int32_t" || N == "int")
    return intI32();
  if (N == "i64" || N == "int64_t" || N == "long")
    return intI64();
  error("unknown integer type '" + std::string(N) + "'");
  return intI32();
}

TermRef SpecParser::refinement() {
  // A refinement is an identifier, a number, or a braced term. A multiset
  // literal `{[..]}` is itself a term, not a brace group.
  if (peekIs("{["))
    return primary();
  if (eat("{")) {
    TermRef T = term();
    if (!eat("}"))
      error("expected '}' after refinement term");
    return T;
  }
  if (cur().K == TokKind::Num)
    return mkNat(number());
  const std::string_view Id = ident();
  // global(name) denotes the address of an annotated global.
  if (Id == "global" && atChar('(') && cur().Glued) {
    eat("(");
    std::string_view N = ident();
    if (!eat(")"))
      error("expected ')' after global(name");
    return mkVar("&g:" + std::string(N), Sort::Loc);
  }
  return variable(Id, "refinement");
}

TypeRef SpecParser::typeCore() {
  // Terms appearing directly between type brackets must not treat '>' as a
  // comparison operator.
  struct AngleGuard {
    SpecParser &P;
    bool Saved;
    explicit AngleGuard(SpecParser &P) : P(P), Saved(P.NoAngle) {
      P.NoAngle = true;
    }
    ~AngleGuard() { P.NoAngle = Saved; }
  } Guard(*this);
  if (eat("...")) {
    if (!SelfStructType) {
      error("'...' is only valid inside rc::ptr_type");
      return tyNull();
    }
    return SelfStructType;
  }
  if (eat("&own")) {
    if (!eat("<"))
      error("expected '<' after &own");
    TypeRef Inner = type();
    if (!eat(">"))
      error("expected '>' after &own<...");
    return tyOwn(Inner);
  }
  const std::string_view Id = ident();
  if (Id == "exists") {
    // Type-level existential: `exists a. <type>` / `exists a: sort. <type>`.
    std::string N(ident());
    pure::Sort S = pure::Sort::Nat;
    if (eat(":"))
      S = sortName();
    if (!eat("."))
      error("expected '.' after exists binder");
    SpecScope Saved = ownScope();
    ownScope()[N] = S;
    TypeRef Body = type();
    *OwnScope = std::move(Saved);
    return tyExists(N, S, Body);
  }
  if (Id == "int") {
    if (!eat("<"))
      error("expected '<' after int");
    caesium::IntType Ity = intTypeName();
    if (!eat(">"))
      error("expected '>' after int<...");
    return tyInt(Ity);
  }
  if (Id == "bool") {
    caesium::IntType Ity = rcc::caesium::intU8();
    if (eat("<")) {
      Ity = intTypeName();
      eat(">");
    }
    return tyBool(Ity);
  }
  if (Id == "null")
    return tyNull();
  if (Id == "void")
    return tyAny(mkNat(0));
  if (Id == "uninit") {
    if (!eat("<"))
      error("expected '<' after uninit");
    TermRef N = nullptr;
    // Either a term or a struct/type name whose size is meant.
    if (atIdent()) {
      const size_t Save = Pos;
      std::string_view Name = ident();
      if (Name.substr(0, 7) == "struct_")
        Name.remove_prefix(7);
      auto It = Env.Layouts.find(std::string(Name));
      if (It != Env.Layouts.end() && peekIs(">"))
        N = mkNat(static_cast<int64_t>(It->second->Size));
      else
        Pos = Save;
    }
    if (!N)
      N = term();
    if (!eat(">"))
      error("expected '>' after uninit<...");
    return tyUninit(N);
  }
  if (Id == "optional") {
    if (!eat("<"))
      error("expected '<' after optional");
    TypeRef T1 = type();
    if (!eat(","))
      error("expected ',' in optional");
    TypeRef T2 = type();
    if (!eat(">"))
      error("expected '>' after optional<...");
    // The refinement is attached by the caller (refn @ optional<..>).
    return tyOptional(mkTrue(), T1, T2);
  }
  if (Id == "wand") {
    // wand<own LOC : TYPE, TYPE>
    if (!eat("<"))
      error("expected '<' after wand");
    if (!eat("own"))
      error("expected 'own' introducing the wand hole");
    TermRef HoleLoc = refinement();
    if (!eat(":"))
      error("expected ':' in wand hole");
    TypeRef HoleTy = type();
    if (!eat(","))
      error("expected ',' in wand");
    TypeRef Res = type();
    if (!eat(">"))
      error("expected '>' after wand<...");
    return tyWand(HoleLoc, HoleTy, Res);
  }
  if (Id == "padded") {
    if (!eat("<"))
      error("expected '<' after padded");
    TypeRef Inner = type();
    if (!eat(","))
      error("expected ',' in padded");
    TermRef N = term();
    if (!eat(">"))
      error("expected '>' after padded<...");
    return tyPadded(Inner, N);
  }
  if (Id == "array") {
    // array<int<ity>>: cell i has type (xs !! i) @ int<ity>, where xs is
    // the refinement list; array<Named> uses a named one-parameter type.
    if (!eat("<"))
      error("expected '<' after array");
    if (eat("int")) {
      if (!eat("<"))
        error("expected '<' after int");
      caesium::IntType Ity = intTypeName();
      if (!eat(">"))
        error("expected '>' closing int<...");
      if (!eat(">"))
        error("expected '>' after array<...");
      TypeRef Elem = tyInt(Ity, mkVar("#e", pure::Sort::Nat));
      return tyArray(Elem, "#e", Ity.ByteSize, nullptr);
    }
    const std::string ElemName(ident());
    if (!eat(">"))
      error("expected '>' after array<...");
    auto Def = Env.named(ElemName);
    if (!Def) {
      error("unknown array element type '" + ElemName + "'");
      return tyNull();
    }
    uint64_t ElemSize = Def->Layout ? Def->Layout->Size : 0;
    TypeRef Elem = tyNamed(Def, mkVar("#e", Def->RefnSort));
    return tyArray(Elem, "#e", ElemSize, nullptr);
  }
  if (Id == "atomicbool") {
    // atomicbool<ity, H_true, H_false> where each payload is `true` (no
    // resource), `own <loc> : <type>`, or `{prop}` (Section 6).
    if (!eat("<"))
      error("expected '<' after atomicbool");
    caesium::IntType Ity = intTypeName();
    auto ParseSpec = [&]() -> ResList {
      ResList Out;
      if (eat("true"))
        return Out;
      if (eat("own")) {
        TermRef L = refinement();
        if (!eat(":"))
          error("expected ':' in atomicbool payload");
        TypeRef T = type();
        Out.push_back(ResAtom::loc(L, T));
        return Out;
      }
      if (eat("{")) {
        bool Saved = NoAngle;
        NoAngle = false;
        TermRef P = term();
        NoAngle = Saved;
        if (!eat("}"))
          error("expected '}' closing atomicbool payload");
        Out.push_back(ResAtom::pure(P));
        return Out;
      }
      error("expected 'true', 'own ...' or '{prop}' in atomicbool payload");
      return Out;
    };
    ResList HT, HF;
    if (eat(",")) {
      HT = ParseSpec();
      if (eat(","))
        HF = ParseSpec();
    }
    if (!eat(">"))
      error("expected '>' after atomicbool<...");
    return tyAtomicBool(Ity, nullptr, std::move(HT), std::move(HF));
  }
  if (Id == "any") {
    if (!eat("<"))
      error("expected '<' after any");
    TermRef N = term();
    if (!eat(">"))
      error("expected '>' after any<...");
    return tyAny(N);
  }
  if (Id == "fn") {
    if (!eat("<"))
      error("expected '<' after fn");
    const std::string SpecName(ident());
    if (!eat(">"))
      error("expected '>' after fn<...");
    auto It = Env.FnTypeSpecs.find(SpecName);
    if (It == Env.FnTypeSpecs.end()) {
      error("fn<> needs a function-type typedef with a spec, and '" +
            SpecName + "' is not one");
      return tyNull();
    }
    return tyFnPtr(It->second.get());
  }
  // Named user types.
  const std::string Name(Id);
  if (auto Def = Env.named(Name))
    return tyNamed(Def, nullptr);
  error("unknown type '" + Name + "'");
  return tyNull();
}

TypeRef SpecParser::type() {
  // Try: refinement '@' typeCore. A refinement is ident/number/{term}.
  if (cur().K == TokKind::Word || cur().K == TokKind::Num || atChar('{')) {
    // Heuristic: parse a refinement, then require '@'. On failure rewind
    // silently (the text is a bare type, not a refined one).
    const size_t Save = Pos;
    bool SavedHadError = HadError;
    bool SavedQuiet = Quiet;
    Quiet = true;
    TermRef R = refinement();
    bool RefnOk = !HadError;
    Quiet = SavedQuiet;
    HadError = SavedHadError;
    if (RefnOk && eat("@")) {
      TypeRef T = typeCore();
      return withRefn(T, R);
    }
    Pos = Save;
  }
  return typeCore();
}

TypeRef SpecParser::parseTypeFull() {
  TypeRef T = type();
  if (cur().K != TokKind::End)
    error("trailing input after type");
  return T;
}

bool SpecParser::parseAtomFull(ResAtom &Out) {
  if (eat("own")) {
    TermRef L = refinement();
    if (!eat(":"))
      error("expected ':' after 'own <loc>'");
    TypeRef T = type();
    if (cur().K != TokKind::End)
      error("trailing input after ensures atom");
    Out = ResAtom::loc(L, T);
    return !HadError;
  }
  // Otherwise a pure proposition.
  TermRef P = term();
  if (cur().K != TokKind::End)
    error("trailing input after proposition");
  Out = ResAtom::pure(P);
  return !HadError;
}

bool SpecParser::parseInvVarFull(std::string &Var, TypeRef &Ty) {
  Var = ident();
  if (!eat(":")) {
    error("expected ':' after variable name in inv_vars");
    return false;
  }
  Ty = type();
  if (cur().K != TokKind::End)
    error("trailing input after inv_vars type");
  return !HadError;
}
