//===- TypesTest.cpp - Unit tests for the RefinedC type structures --------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "refinedc/Types.h"

#include <gtest/gtest.h>

using namespace rcc;
using namespace rcc::refinedc;
using namespace rcc::pure;

TEST(Types, SubstituteRefinementVariable) {
  TypeRef T = tyInt(caesium::intU64(), mkVar("a", Sort::Nat));
  TypeRef S = substTypeVar(T, "a", mkNat(7));
  EXPECT_EQ(S->Refn, mkNat(7));
  EXPECT_EQ(substTypeVar(T, "b", mkNat(7)), T) << "unrelated vars are no-ops";
}

TEST(Types, SubstituteThroughChildren) {
  TypeRef T = tyOwn(tyUninit(mkVar("a", Sort::Nat)));
  TypeRef S = substTypeVar(T, "a", mkNat(16));
  EXPECT_EQ(S->Children[0]->Size, mkNat(16));
}

TEST(Types, ExistsBinderShadows) {
  TypeRef T = tyExists("n", Sort::Nat,
                       tyInt(caesium::intU64(), mkVar("n", Sort::Nat)));
  EXPECT_EQ(substTypeVar(T, "n", mkNat(3)), T);
}

TEST(Types, ExistsCaptureAvoidance) {
  // ∃n. int refined by (n + m); substituting m := n must rename the binder.
  TypeRef T = tyExists(
      "n", Sort::Nat,
      tyInt(caesium::intU64(),
            mkAdd(mkVar("n", Sort::Nat), mkVar("m", Sort::Nat))));
  TypeRef S = substTypeVar(T, "m", mkVar("n", Sort::Nat));
  ASSERT_EQ(S->K, TypeKind::Exists);
  EXPECT_NE(S->Binder, "n") << "binder must be freshened to avoid capture";
  // The substituted free n is still free inside.
  EXPECT_TRUE(containsFreeVar(S->Children[0]->Refn, "n"));
}

TEST(Types, SubstituteInsideResourceLists) {
  ResList HT = {ResAtom::loc(mkVar("l", Sort::Loc),
                             tyInt(caesium::intU64(), mkVar("c", Sort::Nat)))};
  TypeRef T = tyAtomicBool(caesium::intU32(), nullptr, HT, {});
  TypeRef S = substTypeVar(T, "c", mkNat(9));
  ASSERT_EQ(S->HTrue.size(), 1u);
  EXPECT_EQ(S->HTrue[0].Ty->Refn, mkNat(9));
}

TEST(Types, TypeEqualIsStructural) {
  TypeRef A = tyOwn(tyUninit(mkVar("a", Sort::Nat)));
  TypeRef B = tyOwn(tyUninit(mkVar("a", Sort::Nat)));
  TypeRef C = tyOwn(tyUninit(mkVar("b", Sort::Nat)));
  EXPECT_TRUE(typeEqual(A, B));
  EXPECT_FALSE(typeEqual(A, C));
  EXPECT_FALSE(typeEqual(A, tyNull()));
}

TEST(Types, TypeEqualIsSymmetricOnResourceAtomTypes) {
  // Two atomicbool types that differ only in whether an HTrue atom has a
  // type: a null type equals only a null type, in either direction.
  TermRef L = mkVar("l", Sort::Loc);
  ResAtom Typed = ResAtom::loc(L, tyInt(caesium::intU32(), mkNat(1)));
  ResAtom Untyped = ResAtom::loc(L, nullptr);
  TypeRef A = tyAtomicBool(caesium::intU32(), nullptr, {Untyped}, {});
  TypeRef B = tyAtomicBool(caesium::intU32(), nullptr, {Typed}, {});
  EXPECT_FALSE(typeEqual(A, B));
  EXPECT_FALSE(typeEqual(B, A));
  EXPECT_TRUE(typeEqual(A, tyAtomicBool(caesium::intU32(), nullptr,
                                        {Untyped}, {})));
}

TEST(Types, ResolveTypeSubstitutesEvars) {
  EvarEnv Env;
  TermRef E = Env.fresh(Sort::Nat);
  Env.unseal(E->num());
  ASSERT_TRUE(Env.bind(E->num(), mkNat(12)));
  TypeRef T = tyUninit(E);
  EXPECT_EQ(resolveType(T, Env)->Size, mkNat(12));
}

TEST(Types, KnownByteSize) {
  EXPECT_EQ(knownByteSize(tyInt(caesium::intU32())), 4u);
  EXPECT_EQ(knownByteSize(tyNull()), 8u);
  EXPECT_EQ(knownByteSize(tyOwn(tyNull())), 8u);
  EXPECT_EQ(knownByteSize(tyUninit(mkNat(24))), 24u);
  EXPECT_EQ(knownByteSize(tyUninit(mkVar("n", Sort::Nat))), 0u)
      << "symbolic sizes are unknown";
  EXPECT_EQ(knownByteSize(tyOptional(mkTrue(), tyOwn(tyNull()), tyNull())),
            8u);
  EXPECT_EQ(knownByteSize(tyConstraint(tyInt(caesium::intU64()), mkTrue())),
            8u);
}

TEST(Types, Copyability) {
  EXPECT_TRUE(isCopyable(tyInt(caesium::intU64())));
  EXPECT_TRUE(isCopyable(tyNull()));
  EXPECT_TRUE(isCopyable(tyPlace(mkVar("l", Sort::Loc))));
  EXPECT_FALSE(isCopyable(tyOwn(tyNull())));
  EXPECT_FALSE(isCopyable(tyOptional(mkTrue(), tyOwn(tyNull()), tyNull())));
}

TEST(Types, LocOffsetCanonicalization) {
  TermRef B = mkVar("b", Sort::Loc);
  EXPECT_EQ(locOffset(B, uint64_t(0)), B);
  TermRef L8 = locOffset(B, 8);
  TermRef L24 = locOffset(L8, 16);
  // Nested constant offsets fold.
  EXPECT_EQ(L24, locOffset(B, 24));
  TermRef Base;
  uint64_t Off = 0;
  ASSERT_TRUE(splitLocConst(L24, Base, Off));
  EXPECT_EQ(Base, B);
  EXPECT_EQ(Off, 24u);
  // Symbolic offsets do not decompose into constants.
  TermRef Sym = locOffset(B, mkVar("i", Sort::Nat));
  EXPECT_FALSE(splitLocConst(Sym, Base, Off));
}

TEST(Types, UnfoldNamedSubstitutesRefinement) {
  auto Def = std::make_unique<NamedTypeDef>();
  Def->Name = "boxed";
  Def->RefnVar = "v";
  Def->RefnSort = Sort::Nat;
  Def->Body = tyOwn(tyInt(caesium::intU64(), mkVar("v", Sort::Nat)));
  TypeRef T = tyNamed(Def.get(), mkNat(5));
  TypeRef U = unfoldNamed(*T);
  ASSERT_EQ(U->K, TypeKind::Own);
  EXPECT_EQ(U->Children[0]->Refn, mkNat(5));
}

TEST(Types, PrintingIsReadable) {
  TypeRef T = tyOptional(
      mkLe(mkVar("n", Sort::Nat), mkVar("a", Sort::Nat)),
      tyOwn(tyUninit(mkVar("n", Sort::Nat))), tyNull());
  EXPECT_EQ(T->str(),
            "(n <= a) @ optional<&own<uninit<n>>, null>");
  ResAtom A = ResAtom::loc(mkVar("p", Sort::Loc), tyNull());
  EXPECT_EQ(A.str(), "p @l null");
}

TEST(Types, WithRefnReplaces) {
  TypeRef T = tyInt(caesium::intU64());
  EXPECT_EQ(T->Refn, nullptr);
  TypeRef R = withRefn(T, mkNat(3));
  EXPECT_EQ(R->Refn, mkNat(3));
  EXPECT_EQ(R->K, TypeKind::Int);
}
