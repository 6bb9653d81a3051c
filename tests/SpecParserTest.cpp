//===- SpecParserTest.cpp - Unit tests for the rc:: specification DSL -----===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "refinedc/SpecParser.h"

#include <gtest/gtest.h>

using namespace rcc;
using namespace rcc::refinedc;
using namespace rcc::pure;

namespace {

struct SpecFixture : ::testing::Test {
  DiagnosticEngine Diags;
  TypeEnv Env;
  SpecScope Scope;
  caesium::StructLayout ChunkLayout;

  void SetUp() override {
    Scope["a"] = Sort::Nat;
    Scope["n"] = Sort::Nat;
    Scope["p"] = Sort::Loc;
    Scope["s"] = Sort::MSet;
    Scope["xs"] = Sort::List;

    ChunkLayout.Name = "chunk";
    ChunkLayout.Fields = {
        {"size", caesium::layoutOfInt(caesium::intU64()), 0},
        {"next", caesium::layoutOfPtr(), 0}};
    ChunkLayout.computeLayout();
    Env.Layouts["chunk"] = &ChunkLayout;

    auto Def = std::make_unique<NamedTypeDef>();
    Def->Name = "chunks_t";
    Def->RefnVar = "s";
    Def->RefnSort = Sort::MSet;
    Def->IsPtrType = true;
    Def->Layout = &ChunkLayout;
    Env.Named["chunks_t"] = std::move(Def);
  }

  TypeRef parseType(const std::string &S) {
    SpecParser P(S, Env, Scope, Diags, {1, 1});
    TypeRef T = P.parseTypeFull();
    EXPECT_FALSE(P.hadError()) << S << "\n" << Diags.render("");
    return T;
  }
  TermRef parseTerm(const std::string &S) {
    SpecParser P(S, Env, Scope, Diags, {1, 1});
    TermRef T = P.parseTermFull();
    EXPECT_FALSE(P.hadError()) << S << "\n" << Diags.render("");
    return T;
  }
  /// The diagnostics of parsing \p S as a type (or, with \p AsTerm, a
  /// term), rendered without source.
  std::string errorsOf(const std::string &S, bool AsTerm = false) {
    DiagnosticEngine D2;
    SpecParser P(S, Env, Scope, D2, {1, 1});
    if (AsTerm)
      P.parseTermFull();
    else
      P.parseTypeFull();
    return D2.render("");
  }
  bool failsType(const std::string &S) {
    DiagnosticEngine D2;
    SpecParser P(S, Env, Scope, D2, {1, 1});
    P.parseTypeFull();
    return P.hadError();
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

TEST_F(SpecFixture, RefinedInt) {
  TypeRef T = parseType("a @ int<size_t>");
  ASSERT_EQ(T->K, TypeKind::Int);
  EXPECT_EQ(T->Ity.ByteSize, 8u);
  EXPECT_FALSE(T->Ity.Signed);
  EXPECT_EQ(T->Refn, mkVar("a", Sort::Nat));
}

TEST_F(SpecFixture, OwnUninit) {
  TypeRef T = parseType("&own<uninit<a>>");
  ASSERT_EQ(T->K, TypeKind::Own);
  ASSERT_EQ(T->Children[0]->K, TypeKind::Uninit);
  EXPECT_EQ(T->Children[0]->Size, mkVar("a", Sort::Nat));
}

TEST_F(SpecFixture, UninitBySizeofStruct) {
  TypeRef T = parseType("uninit<chunk>");
  EXPECT_EQ(T->Size, mkNat(16));
}

TEST_F(SpecFixture, OptionalWithBracedRefinement) {
  TypeRef T = parseType("{n <= a} @ optional<&own<uninit<n>>, null>");
  ASSERT_EQ(T->K, TypeKind::Optional);
  EXPECT_EQ(T->Refn, mkLe(mkVar("n", Sort::Nat), mkVar("a", Sort::Nat)));
  EXPECT_EQ(T->Children[0]->K, TypeKind::Own);
  EXPECT_EQ(T->Children[1]->K, TypeKind::Null);
}

TEST_F(SpecFixture, NamedTypeWithMultisetRefinement) {
  TypeRef T = parseType("{{[n]} (+) s} @ chunks_t");
  ASSERT_EQ(T->K, TypeKind::Named);
  EXPECT_EQ(T->Refn, mkMUnion(mkMSingle(mkVar("n", Sort::Nat)),
                              mkVar("s", Sort::MSet)));
}

TEST_F(SpecFixture, WandType) {
  TypeRef T = parseType("wand<own p : s @ chunks_t, {{[n]} (+) s} @ chunks_t>");
  ASSERT_EQ(T->K, TypeKind::Wand);
  EXPECT_EQ(T->WandLoc, mkVar("p", Sort::Loc));
  EXPECT_EQ(T->Children[1]->K, TypeKind::Named); // hole type
  EXPECT_EQ(T->Children[0]->K, TypeKind::Named); // result type
}

TEST_F(SpecFixture, PaddedType) {
  TypeRef T = parseType("padded<null, {4096}>");
  ASSERT_EQ(T->K, TypeKind::Padded);
  EXPECT_EQ(T->Size, mkNat(4096));
}

TEST_F(SpecFixture, ArrayOfInts) {
  TypeRef T = parseType("xs @ array<int<size_t>>");
  ASSERT_EQ(T->K, TypeKind::Array);
  EXPECT_EQ(T->ElemSize, 8u);
  EXPECT_EQ(T->Refn, mkVar("xs", Sort::List));
  EXPECT_EQ(T->Children[0]->K, TypeKind::Int);
}

TEST_F(SpecFixture, ExistsType) {
  TypeRef T = parseType("exists c. c @ chunks_t");
  ASSERT_EQ(T->K, TypeKind::Exists);
  EXPECT_EQ(T->Binder, "c");
  EXPECT_EQ(T->Children[0]->K, TypeKind::Named);
}

TEST_F(SpecFixture, AtomicBoolWithPayloads) {
  TypeRef T = parseType(
      "atomicbool<u32, true, own global(pool) : exists c. c @ chunks_t>");
  ASSERT_EQ(T->K, TypeKind::AtomicBool);
  EXPECT_TRUE(T->HTrue.empty());
  ASSERT_EQ(T->HFalse.size(), 1u);
  EXPECT_EQ(T->HFalse[0].K, ResAtom::LocType);
  EXPECT_EQ(T->HFalse[0].Subject, mkVar("&g:pool", Sort::Loc));
}

TEST_F(SpecFixture, BoolWithIntType) {
  TypeRef T = parseType("{n <= a} @ bool<i32>");
  ASSERT_EQ(T->K, TypeKind::Bool);
  EXPECT_EQ(T->Ity.ByteSize, 4u);
  EXPECT_TRUE(T->Ity.Signed);
}

TEST_F(SpecFixture, ErrorsAreReported) {
  EXPECT_TRUE(failsType("unknown_type_name"));
  EXPECT_TRUE(failsType("&own<"));
  EXPECT_TRUE(failsType("optional<null>"));
  EXPECT_TRUE(failsType("q @ int<size_t>")); // unbound refinement variable
}

//===----------------------------------------------------------------------===//
// Terms
//===----------------------------------------------------------------------===//

TEST_F(SpecFixture, ArithmeticPrecedence) {
  EXPECT_EQ(parseTerm("a + n * 2"),
            mkAdd(mkVar("a", Sort::Nat),
                  mkMul(mkVar("n", Sort::Nat), mkNat(2))));
}

TEST_F(SpecFixture, ComparisonAndTernary) {
  TermRef T = parseTerm("n <= a ? a - n : a");
  ASSERT_EQ(T->kind(), TermKind::Ite);
  EXPECT_EQ(T->arg(0), mkLe(mkVar("n", Sort::Nat), mkVar("a", Sort::Nat)));
}

TEST_F(SpecFixture, MultisetLiterals) {
  EXPECT_EQ(parseTerm("{[]}"), mkMEmpty());
  EXPECT_EQ(parseTerm("{[n]}"), mkMSingle(mkVar("n", Sort::Nat)));
  EXPECT_EQ(parseTerm("{[n]} (+) s"),
            mkMUnion(mkMSingle(mkVar("n", Sort::Nat)), mkVar("s", Sort::MSet)));
}

TEST_F(SpecFixture, ParenthesizedUnionIsNotApplication) {
  // Regression: `ls (+) rs` must not parse as the application ls(...).
  Scope["ls"] = Sort::MSet;
  Scope["rs"] = Sort::MSet;
  TermRef T = parseTerm("s = {[n]} (+) (ls (+) rs)");
  ASSERT_EQ(T->kind(), TermKind::Eq);
  EXPECT_EQ(T->arg(1)->kind(), TermKind::MUnion);
  EXPECT_EQ(T->arg(1)->arg(1)->kind(), TermKind::MUnion);
}

TEST_F(SpecFixture, BoundedForall) {
  TermRef T = parseTerm("forall k, k in s -> n <= k");
  ASSERT_EQ(T->kind(), TermKind::Forall);
  EXPECT_EQ(T->name(), "k");
  EXPECT_EQ(T->arg(0)->kind(), TermKind::Implies);
}

TEST_F(SpecFixture, UnicodeNotation) {
  // The paper's spellings: ≤ ≠ ⊎ ∈ ∀ →
  EXPECT_EQ(parseTerm("n ≤ a"), parseTerm("n <= a"));
  EXPECT_EQ(parseTerm("s ≠ {[]}"), parseTerm("s != {[]}"));
  EXPECT_EQ(parseTerm("{[n]} ⊎ s"), parseTerm("{[n]} (+) s"));
  EXPECT_EQ(parseTerm("∀ k, k ∈ s → n ≤ k"),
            parseTerm("forall k, k in s -> n <= k"));
}

TEST_F(SpecFixture, WhitespaceSeparatesApplicationFromUnion) {
  // Only the space before '(' tells the application f(x) from the union
  // ls (+) rs, and from a variable applied to nothing.
  Scope["ls"] = Sort::MSet;
  Scope["rs"] = Sort::MSet;
  TermRef App = parseTerm("probe(n)");
  ASSERT_EQ(App->kind(), TermKind::App);
  EXPECT_EQ(App->numArgs(), 1u);
  EXPECT_EQ(parseTerm("ls (+) rs"),
            mkMUnion(mkVar("ls", Sort::MSet), mkVar("rs", Sort::MSet)));
  EXPECT_EQ(errorsOf("ls(+)rs", /*AsTerm=*/true),
            "error: 1:1: in spec 'ls(+)rs': unexpected character '+' in "
            "term\n")
      << "a glued '(' opens an application";
  EXPECT_EQ(errorsOf("probe (n)", /*AsTerm=*/true),
            "error: 1:1: in spec 'probe (n)': unbound specification "
            "variable 'probe'\n");
  EXPECT_EQ(errorsOf("ls (+ rs", /*AsTerm=*/true),
            "error: 1:1: in spec 'ls (+ rs': trailing input after term\n");
  // A word glued to a digit run reads as one name where a name is due.
  EXPECT_EQ(errorsOf("3abc"),
            "error: 1:1: in spec '3abc': unknown type '3abc'\n");
  // `&own` needs no word boundary: the rest of the word follows it.
  EXPECT_EQ(errorsOf("&ownx<a @ int<u32>>"),
            "error: 1:1: in spec '&ownx<a @ int<u32>>': expected '<' after "
            "&own\n");
}

TEST_F(SpecFixture, UnicodeOperatorsMatchTheirAsciiSpellings) {
  EXPECT_EQ(parseTerm("n ≥ a"), parseTerm("n >= a"));
  EXPECT_EQ(parseTerm("n < a ∧ a < 3"), parseTerm("n < a && a < 3"));
  EXPECT_EQ(parseTerm("¬ (n = a)"), parseTerm("!(n = a)"));
  EXPECT_EQ(parseTerm("s = ∅"), parseTerm("s = {[]}"));
  EXPECT_EQ(parseTerm("∃ k, k ∈ s"), parseTerm("exists k, k in s"));
  Scope["t"] = Sort::Set;
  EXPECT_EQ(parseTerm("t ∪ t"), parseTerm("t (u) t"));
  EXPECT_EQ(errorsOf("n ≤", /*AsTerm=*/true),
            "error: 1:1: in spec 'n ≤': unexpected end of term\n");
  // A byte that starts no operator is reported as that byte.
  EXPECT_EQ(errorsOf("n \xc2\xb1 a", /*AsTerm=*/true),
            "error: 1:1: in spec 'n \xc2\xb1 a': trailing input after "
            "term\n");
  EXPECT_EQ(errorsOf("\xc2\xb1", /*AsTerm=*/true),
            "error: 1:1: in spec '\xc2\xb1': unexpected character '\xc2' in "
            "term\n");
}

TEST_F(SpecFixture, AngleBracketsCloseTypesOutsideBraces) {
  // Between type brackets '>' closes the bracket; braces make it a
  // comparison again.
  TypeRef T = parseType("uninit<n>");
  ASSERT_EQ(T->K, TypeKind::Uninit);
  EXPECT_EQ(parseType("any<{a > n}>")->K, TypeKind::Any);
  EXPECT_EQ(errorsOf("any<a > n>"),
            "error: 1:1: in spec 'any<a > n>': trailing input after type\n");
  EXPECT_EQ(errorsOf("n @ int<u32"),
            "error: 1:1: in spec 'n @ int<u32': expected '>' after "
            "int<...\n");
  EXPECT_EQ(parseTerm("n < a"), mkLt(mkVar("n", Sort::Nat),
                                     mkVar("a", Sort::Nat)))
      << "outside a type, '<' compares";
}

TEST_F(SpecFixture, BracedSortNames) {
  TermRef T = parseTerm("forall k: {gmultiset nat}, k = k");
  ASSERT_EQ(T->kind(), TermKind::Forall);
  EXPECT_EQ(T->arg(0), mkEq(mkVar("k", Sort::MSet), mkVar("k", Sort::MSet)));
  EXPECT_EQ(parseTerm("forall k: { gset nat }, k = k")->arg(0),
            mkEq(mkVar("k", Sort::Set), mkVar("k", Sort::Set)));
  // The bound name leaves the scope with the quantifier.
  EXPECT_EQ(errorsOf("(forall k: nat, k = k) && k = 0", /*AsTerm=*/true),
            "error: 1:1: in spec '(forall k: nat, k = k) && k = 0': unbound "
            "specification variable 'k'\n");
  EXPECT_EQ(errorsOf("forall k: { frob }, k = k", /*AsTerm=*/true),
            "error: 1:1: in spec 'forall k: { frob }, k = k': unknown sort "
            "' frob '\n");
  std::string Name;
  Sort S;
  DiagnosticEngine D;
  EXPECT_TRUE(parseBinder("s : { gmultiset nat }", Name, S, D, {1, 1}));
  EXPECT_EQ(Name, "s");
  EXPECT_EQ(S, Sort::MSet);
  EXPECT_FALSE(parseBinder("x: {frob}", Name, S, D, {1, 1}));
  EXPECT_EQ(D.render(""),
            "error: 1:1: unknown sort 'frob' in binder 'x: {frob}'\n");
}

TEST_F(SpecFixture, SizeofAndLengthAndSize) {
  EXPECT_EQ(parseTerm("sizeof(struct chunk)"), mkNat(16));
  EXPECT_EQ(parseTerm("length(xs)"), mkLLen(mkVar("xs", Sort::List)));
  EXPECT_EQ(parseTerm("size(s)"), mkMSize(mkVar("s", Sort::MSet)));
  EXPECT_EQ(parseTerm("xs !! n"),
            mkLNth(mkVar("xs", Sort::List), mkVar("n", Sort::Nat)));
  EXPECT_EQ(parseTerm("update(xs, n, a)"),
            mkLUpdate(mkVar("xs", Sort::List), mkVar("n", Sort::Nat),
                      mkVar("a", Sort::Nat)));
}

TEST_F(SpecFixture, UninterpretedApplication) {
  TermRef T = parseTerm("probe(xs, n)");
  ASSERT_EQ(T->kind(), TermKind::App);
  EXPECT_EQ(T->name(), "probe");
  EXPECT_EQ(T->numArgs(), 2u);
}

TEST_F(SpecFixture, GlobalTerm) {
  EXPECT_EQ(parseTerm("global(counter)"), mkVar("&g:counter", Sort::Loc));
}

//===----------------------------------------------------------------------===//
// Atoms and invariant entries
//===----------------------------------------------------------------------===//

TEST_F(SpecFixture, OwnAtom) {
  SpecParser P("own p : s @ chunks_t", Env, Scope, Diags, {1, 1});
  ResAtom A;
  ASSERT_TRUE(P.parseAtomFull(A));
  EXPECT_EQ(A.K, ResAtom::LocType);
  EXPECT_EQ(A.Subject, mkVar("p", Sort::Loc));
  EXPECT_EQ(A.Ty->K, TypeKind::Named);
}

TEST_F(SpecFixture, PureAtom) {
  SpecParser P("{sizeof(struct chunk) <= n}", Env, Scope, Diags, {1, 1});
  ResAtom A;
  ASSERT_TRUE(P.parseAtomFull(A));
  EXPECT_EQ(A.K, ResAtom::Pure);
  EXPECT_EQ(A.Prop, mkLe(mkNat(16), mkVar("n", Sort::Nat)));
}

TEST_F(SpecFixture, InvVarEntry) {
  SpecParser P("cur: p @ &own<s @ chunks_t>", Env, Scope, Diags, {1, 1});
  std::string Var;
  TypeRef Ty = nullptr;
  ASSERT_TRUE(P.parseInvVarFull(Var, Ty));
  EXPECT_EQ(Var, "cur");
  EXPECT_EQ(Ty->K, TypeKind::Own);
}

TEST_F(SpecFixture, BinderParsing) {
  std::string Name;
  Sort S;
  DiagnosticEngine D;
  EXPECT_TRUE(parseBinder("a: nat", Name, S, D, {1, 1}));
  EXPECT_EQ(Name, "a");
  EXPECT_EQ(S, Sort::Nat);
  EXPECT_TRUE(parseBinder("s: {gmultiset nat}", Name, S, D, {1, 1}));
  EXPECT_EQ(S, Sort::MSet);
  EXPECT_TRUE(parseBinder("p: loc", Name, S, D, {1, 1}));
  EXPECT_EQ(S, Sort::Loc);
  EXPECT_FALSE(parseBinder("nonsense", Name, S, D, {1, 1}));
  EXPECT_FALSE(parseBinder("x: frobnicator", Name, S, D, {1, 1}));
}
