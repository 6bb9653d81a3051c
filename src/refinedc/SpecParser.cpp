//===- SpecParser.cpp -----------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "refinedc/SpecParser.h"

#include "support/Util.h"

#include <cctype>

using namespace rcc::refinedc;
using namespace rcc::pure;

//===----------------------------------------------------------------------===//
// Binder parsing
//===----------------------------------------------------------------------===//

static bool sortFromName(const std::string &S, Sort &Out) {
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

bool rcc::refinedc::parseBinder(const std::string &S, std::string &Name,
                                Sort &SortOut, rcc::DiagnosticEngine &Diags,
                                rcc::SourceLoc Loc) {
  size_t Colon = S.find(':');
  if (Colon == std::string::npos) {
    Diags.error(Loc, "expected 'name: sort' in binder '" + S + "'");
    return false;
  }
  Name = rcc::trim(S.substr(0, Colon));
  std::string SortStr = rcc::trim(S.substr(Colon + 1));
  if (!SortStr.empty() && SortStr.front() == '{' && SortStr.back() == '}')
    SortStr = rcc::trim(SortStr.substr(1, SortStr.size() - 2));
  if (!sortFromName(SortStr, SortOut)) {
    Diags.error(Loc, "unknown sort '" + SortStr + "' in binder '" + S + "'");
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Micro-lexer
//===----------------------------------------------------------------------===//

void SpecParser::skipWs() {
  while (Pos < Text.size() &&
         std::isspace(static_cast<unsigned char>(Text[Pos])))
    ++Pos;
}

bool SpecParser::peekIs(const std::string &S) {
  skipWs();
  return Text.compare(Pos, S.size(), S) == 0;
}

bool SpecParser::eat(const std::string &S) {
  skipWs();
  if (Text.compare(Pos, S.size(), S) != 0)
    return false;
  // For word-like tokens, require a non-identifier character to follow.
  if (!S.empty() && (std::isalpha(static_cast<unsigned char>(S[0])) ||
                     S[0] == '_')) {
    size_t After = Pos + S.size();
    if (After < Text.size() &&
        (std::isalnum(static_cast<unsigned char>(Text[After])) ||
         Text[After] == '_'))
      return false;
  }
  Pos += S.size();
  return true;
}

bool SpecParser::atIdent() {
  skipWs();
  return Pos < Text.size() &&
         (std::isalpha(static_cast<unsigned char>(Text[Pos])) ||
          Text[Pos] == '_');
}

std::string SpecParser::ident() {
  skipWs();
  std::string Out;
  while (Pos < Text.size() &&
         (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
          Text[Pos] == '_'))
    Out += Text[Pos++];
  return Out;
}

void SpecParser::error(const std::string &Msg) {
  if (!HadError && !Quiet)
    Diags.error(Loc, "in spec '" + Text + "': " + Msg);
  HadError = true;
}

//===----------------------------------------------------------------------===//
// Sorts (for forall/exists binders in terms)
//===----------------------------------------------------------------------===//

Sort SpecParser::sortName() {
  if (eat("{")) {
    std::string S;
    while (Pos < Text.size() && Text[Pos] != '}')
      S += Text[Pos++];
    eat("}");
    Sort Out;
    if (sortFromName(rcc::trim(S), Out))
      return Out;
    error("unknown sort '" + S + "'");
    return Sort::Nat;
  }
  std::string S = ident();
  Sort Out;
  if (sortFromName(S, Out))
    return Out;
  error("unknown sort '" + S + "'");
  return Sort::Nat;
}

//===----------------------------------------------------------------------===//
// Terms
//===----------------------------------------------------------------------===//

TermRef SpecParser::term() { return ternary(); }

TermRef SpecParser::ternary() {
  TermRef C = implication();
  skipWs();
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
  if (eat("->") || eat("→")) // →
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
  while (eat("&&") || eat("/\\") || eat("∧")) // ∧
    L = mkAnd(L, comparison());
  return L;
}

TermRef SpecParser::comparison() {
  TermRef L = additive();
  skipWs();
  if (eat("<=") || eat("≤")) // ≤
    return mkLe(L, additive());
  if (eat(">=") || eat("≥")) // ≥
    return mkGe(L, additive());
  if (eat("!=") || eat("≠")) // ≠
    return mkNe(L, additive());
  if (eat("==") || eat("="))
    return mkEq(L, additive());
  if (!NoAngle && eat("<"))
    return mkLt(L, additive());
  if (!NoAngle && eat(">"))
    return mkGt(L, additive());
  if (eat("∈") || eat("in")) { // ∈
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
    skipWs();
    if (eat("(+)") || eat("⊎")) { // ⊎
      L = mkMUnion(L, multiplicative());
      continue;
    }
    if (eat("(u)") || eat("∪")) { // ∪
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
    if (peekIs("+") && !peekIs("++")) {
      eat("+");
      L = mkAdd(L, multiplicative());
      continue;
    }
    if (peekIs("-") && !peekIs("->")) {
      eat("-");
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
    skipWs();
    if (eat("*")) {
      L = mkMul(L, unary());
      continue;
    }
    if (eat("/")) {
      L = mkDiv(L, unary());
      continue;
    }
    if (peekIs("%")) {
      eat("%");
      L = mkMod(L, unary());
      continue;
    }
    break;
  }
  return L;
}

TermRef SpecParser::unary() {
  skipWs();
  if (eat("!") || eat("¬")) // ¬
    return mkNot(unary());
  return primary();
}

TermRef SpecParser::primary() {
  skipWs();
  if (Pos >= Text.size()) {
    error("unexpected end of term");
    return mkNat(0);
  }

  // Multiset literals: {[]} is the empty multiset, {[x]} a singleton.
  if (eat("{[]}"))
    return mkMEmpty();
  if (peekIs("{[")) {
    eat("{[");
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
  if (eat("∅")) // ∅
    return mkMEmpty();

  if (eat("(")) {
    TermRef T = term();
    if (!eat(")"))
      error("expected ')'");
    return T;
  }

  // Numbers.
  if (std::isdigit(static_cast<unsigned char>(Text[Pos]))) {
    int64_t V = 0;
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos])))
      V = V * 10 + (Text[Pos++] - '0');
    return mkNat(V);
  }

  // Quantifiers.
  if (eat("forall") || eat("∀")) { // ∀
    std::string N = ident();
    Sort S = Sort::Nat;
    if (eat(":"))
      S = sortName();
    if (!eat(","))
      eat(".");
    Scope[N] = S;
    TermRef Body = term();
    Scope.erase(N);
    return mkForall(N, S, Body);
  }
  if (eat("exists") || eat("∃")) { // ∃
    std::string N = ident();
    Sort S = Sort::Nat;
    if (eat(":"))
      S = sortName();
    if (!eat(","))
      eat(".");
    Scope[N] = S;
    TermRef Body = term();
    Scope.erase(N);
    return mkExists(N, S, Body);
  }

  if (eat("true"))
    return mkTrue();
  if (eat("false"))
    return mkFalse();
  if (eat("[]"))
    return mkLNil();

  // Builtin function-style operators.
  if (atIdent()) {
    size_t Save = Pos;
    std::string Id = ident();
    bool AdjacentParen = Pos < Text.size() && Text[Pos] == '(';
    skipWs();
    if (Id == "sizeof" && eat("(")) {
      eat("struct");
      std::string N = ident();
      if (N.empty() && eat("_")) // allow sizeof(struct_chunk) style
        N = ident();
      // Accept both "struct chunk" and "struct_chunk".
      if (rcc::startsWith(N, "struct_"))
        N = N.substr(7);
      if (!eat(")"))
        error("expected ')' after sizeof");
      auto It = Env.Layouts.find(N);
      if (It == Env.Layouts.end()) {
        error("sizeof of unknown struct '" + N + "'");
        return mkNat(0);
      }
      return mkNat(static_cast<int64_t>(It->second->Size));
    }
    if (Id == "global" && eat("(")) {
      std::string N = ident();
      if (!eat(")"))
        error("expected ')' after global(name");
      return mkVar("&g:" + N, Sort::Loc);
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
      return mkApp(Id, Sort::Nat, std::move(Args));
    }
    // Variable.
    auto It = Scope.find(Id);
    if (It != Scope.end())
      return mkVar(Id, It->second);
    error("unbound specification variable '" + Id + "'");
    Pos = Save + Id.size();
    return mkVar(Id, Sort::Nat);
  }

  // Multiset forms spelled with braces+brackets: {[x]} / {[]}.
  // (Reached when '{' was consumed above only if grouping; handle directly.)
  error(std::string("unexpected character '") + Text[Pos] + "' in term");
  ++Pos;
  return mkNat(0);
}

TermRef SpecParser::parseTermFull() {
  TermRef T = term();
  skipWs();
  if (Pos != Text.size())
    error("trailing input after term");
  return T;
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

rcc::caesium::IntType SpecParser::intTypeName() {
  std::string N = ident();
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
  error("unknown integer type '" + N + "'");
  return intI32();
}

TermRef SpecParser::refinement() {
  // A refinement is an identifier, a number, or a braced term. A multiset
  // literal `{[..]}` is itself a term, not a brace group.
  skipWs();
  if (peekIs("{[")) {
    return primary();
  }
  if (peekIs("{")) {
    eat("{");
    TermRef T = term();
    if (!eat("}"))
      error("expected '}' after refinement term");
    return T;
  }
  if (Pos < Text.size() &&
      std::isdigit(static_cast<unsigned char>(Text[Pos]))) {
    int64_t V = 0;
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos])))
      V = V * 10 + (Text[Pos++] - '0');
    return mkNat(V);
  }
  std::string Id = ident();
  // global(name) denotes the address of an annotated global.
  if (Id == "global" && Pos < Text.size() && Text[Pos] == '(') {
    eat("(");
    std::string N = ident();
    if (!eat(")"))
      error("expected ')' after global(name");
    return mkVar("&g:" + N, Sort::Loc);
  }
  auto It = Scope.find(Id);
  if (It != Scope.end())
    return mkVar(Id, It->second);
  error("unbound refinement variable '" + Id + "'");
  return mkVar(Id, Sort::Nat);
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
  skipWs();
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
  std::string Id = ident();
  if (Id == "exists") {
    // Type-level existential: `exists a. <type>` / `exists a: sort. <type>`.
    std::string N = ident();
    pure::Sort S = pure::Sort::Nat;
    if (eat(":"))
      S = sortName();
    if (!eat("."))
      error("expected '.' after exists binder");
    SpecScope Saved = Scope;
    Scope[N] = S;
    TypeRef Body = type();
    Scope = Saved;
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
    size_t Save = Pos;
    if (atIdent()) {
      std::string Name = ident();
      if (rcc::startsWith(Name, "struct_"))
        Name = Name.substr(7);
      auto It = Env.Layouts.find(Name);
      if (It != Env.Layouts.end() && peekIs(">")) {
        N = mkNat(static_cast<int64_t>(It->second->Size));
      } else {
        Pos = Save;
      }
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
    std::string ElemName = ident();
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
      skipWs();
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
      if (peekIs("{")) {
        eat("{");
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
    std::string SpecName = ident();
    if (!eat(">"))
      error("expected '>' after fn<...");
    auto It = Env.FnTypeSpecs.find(SpecName);
    if (It == Env.FnTypeSpecs.end()) {
      error("fn<> needs a function-type typedef with a spec, and '" +
            SpecName + "' is not one");
      return tyNull();
    }
    return tyFnPtr(It->second);
  }
  // Named user types.
  if (auto Def = Env.named(Id))
    return tyNamed(Def, nullptr);
  error("unknown type '" + Id + "'");
  return tyNull();
}

TypeRef SpecParser::type() {
  // Try: refinement '@' typeCore. A refinement is ident/number/{term}.
  size_t Save = Pos;
  skipWs();
  bool CouldBeRefn =
      Pos < Text.size() &&
      (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
       Text[Pos] == '_' || Text[Pos] == '{');
  if (CouldBeRefn) {
    // Heuristic: parse a refinement, then require '@'. On failure rewind
    // silently (the text is a bare type, not a refined one).
    bool SavedHadError = HadError;
    bool SavedQuiet = Quiet;
    Quiet = true;
    TermRef R = refinement();
    skipWs();
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
  skipWs();
  if (Pos != Text.size())
    error("trailing input after type");
  return T;
}

bool SpecParser::parseAtomFull(ResAtom &Out) {
  skipWs();
  if (eat("own")) {
    TermRef L = refinement();
    if (!eat(":"))
      error("expected ':' after 'own <loc>'");
    TypeRef T = type();
    skipWs();
    if (Pos != Text.size())
      error("trailing input after ensures atom");
    Out = ResAtom::loc(L, T);
    return !HadError;
  }
  // Otherwise a pure proposition.
  TermRef P = term();
  skipWs();
  if (Pos != Text.size())
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
  skipWs();
  if (Pos != Text.size())
    error("trailing input after inv_vars type");
  return !HadError;
}
