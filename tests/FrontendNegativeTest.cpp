//===- FrontendNegativeTest.cpp - Front-end rejection and edge cases ------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "caesium/Interp.h"
#include "frontend/Frontend.h"

#include <gtest/gtest.h>

using namespace rcc;
using namespace rcc::front;

namespace {
bool compileFails(const std::string &Src) {
  DiagnosticEngine Diags;
  auto AP = compileSource(Src, Diags);
  return AP == nullptr && Diags.hasErrors();
}
int64_t runs(const std::string &Src, uint64_t Seed = 0) {
  DiagnosticEngine Diags;
  auto AP = compileSource(Src, Diags);
  EXPECT_TRUE(AP != nullptr) << Diags.render(Src);
  if (!AP)
    return INT64_MIN;
  caesium::Machine M(AP->Prog, Seed);
  caesium::ExecResult R = M.run("main", {});
  EXPECT_TRUE(R.ok()) << R.Message;
  return R.ok() ? R.MainRet.asSigned() : INT64_MIN;
}
} // namespace

//===----------------------------------------------------------------------===//
// Rejected inputs
//===----------------------------------------------------------------------===//

namespace {
/// The rendered diagnostics of compiling \p Src, which must fail.
std::string compileErrors(const std::string &Src) {
  DiagnosticEngine Diags;
  EXPECT_EQ(compileSource(Src, Diags), nullptr);
  return Diags.render();
}
} // namespace

TEST(FrontendNegative, UnterminatedCommentIsAnError) {
  // It used to swallow the rest of the file, and with it `inc`, silently.
  const std::string Src = "int ok(int x) { return x; }\n"
                          "/* TODO\n"
                          "int inc(int x) { return x + 1; }\n";
  EXPECT_EQ(compileErrors(Src), "error: 2:1: unterminated comment\n");
}

TEST(FrontendNegative, RedefinitionIsAnError) {
  // The second body used to replace the first, which was never verified.
  const std::string Src = "int inc(int x) { return x + 1; }\n"
                          "int inc(int x) { return x + 2; }\n";
  EXPECT_EQ(compileErrors(Src),
            "error: 2:5: redefinition of 'inc'\n"
            "note: 1:5: previous definition of 'inc' is here\n");
}

TEST(FrontendNegative, PrototypeThenDefinitionIsNoRedefinition) {
  // A prototype after the definition used to overwrite its metadata: the
  // function lost its spec and its body, and was never verified.
  const std::string Src = "int inc(int x);\n"
                          "[[rc::args(\"n @ int<i32>\")]]\n"
                          "int inc(int x) { return x + 1; }\n"
                          "int inc(int x);\n";
  DiagnosticEngine Diags;
  auto AP = compileSource(Src, Diags);
  ASSERT_NE(AP, nullptr) << Diags.render(Src);
  const FnInfo &Info = AP->Fns.at("inc");
  EXPECT_TRUE(Info.HasBody);
  ASSERT_EQ(Info.Annots.size(), 1u);
  EXPECT_EQ(Info.Annots[0].Kind, "args");
  EXPECT_EQ(Info.NameRange.Begin.Line, 3u);
  EXPECT_EQ(AP->Prog.Functions.count("inc"), 1u);
}

TEST(FrontendNegative, SyntaxErrors) {
  EXPECT_TRUE(compileFails("int main( { return 0; }"));
  EXPECT_TRUE(compileFails("int main() { return 0 }"));
  EXPECT_TRUE(compileFails("struct S { int; };"));
  EXPECT_TRUE(compileFails("int main() { int x = ; }"));
}

TEST(FrontendNegative, SemanticErrors) {
  EXPECT_TRUE(compileFails("int main() { return nope; }"));
  EXPECT_TRUE(compileFails("int main() { struct missing* p; return p->x; }"));
  EXPECT_TRUE(compileFails(
      "struct S { int a; }; int main() { struct S s; return s.b; }"));
  EXPECT_TRUE(compileFails("int main() { return undefined_fn(1); }"));
  EXPECT_TRUE(compileFails("int main() { break; }"));
  EXPECT_TRUE(compileFails("int main() { continue; }"));
}

TEST(FrontendNegative, UnsupportedCasts) {
  EXPECT_TRUE(
      compileFails("int main() { int x = 5; void* p = (void*)x; return 0; }"))
      << "integer-to-pointer casts are not supported (Section 3)";
  EXPECT_TRUE(compileFails(
      "int main() { int* p = 0; long v = (long)p; return (int)v; }"))
      << "pointer-to-integer casts are not supported";
}

TEST(FrontendNegative, MalformedAnnotations) {
  EXPECT_TRUE(compileFails("[[rc::args(42)]] void f(int x) {}"))
      << "annotation arguments must be string literals";
  EXPECT_TRUE(compileFails("[[oops::args(\"x\")]] void f(int x) {}"));
}

TEST(FrontendNegative, IntegerLiteralOverflow) {
  // Literals that do not fit in 64 bits used to wrap silently; they must
  // be diagnosed (the spec the user wrote is not the one verified).
  EXPECT_TRUE(compileFails(
      "int main() { return 18446744073709551616 != 0; }"))
      << "2^64 does not fit in 64 bits";
  EXPECT_TRUE(compileFails(
      "int main() { return 0x10000000000000000 != 0; }"))
      << "hex 2^64 does not fit in 64 bits";
  EXPECT_TRUE(compileFails(
      "int main() { return 99999999999999999999 != 0; }"));
  // A bare 0x prefix used to lex as 0.
  EXPECT_TRUE(compileFails("int main() { return 0x; }"));
  // The boundary values still lex.
  EXPECT_EQ(
      runs("int main() { return 18446744073709551615 == 0xffffffffffffffff; }"),
      1);
}

//===----------------------------------------------------------------------===//
// Accepted edge cases (executed for their observable behaviour)
//===----------------------------------------------------------------------===//

TEST(FrontendEdge, DoWhileAndNestedLoops) {
  EXPECT_EQ(runs(R"(
int main() {
  int i = 0; int total = 0;
  do {
    int j = 0;
    while (j < i) { total += 1; j += 1; }
    i += 1;
  } while (i < 5);
  return total;  // 0+1+2+3+4
}
)"),
            10);
}

TEST(FrontendEdge, CharAndHexLiterals) {
  EXPECT_EQ(runs("int main() { return 'A' + 0x10; }"), 65 + 16);
}

TEST(FrontendEdge, CommentsEverywhere) {
  EXPECT_EQ(runs(R"(
// leading comment
int main(/* no args */) {
  int x = 1; // one
  /* multi
     line */
  return x + 1;
}
)"),
            2);
}

TEST(FrontendEdge, TernaryNested) {
  EXPECT_EQ(runs("int main() { int a = 5; return a < 3 ? 1 : a < 7 ? 2 : 3; }"),
            2);
}

TEST(FrontendEdge, SizeofStructWithPadding) {
  EXPECT_EQ(runs(R"(
struct s { char c; long x; char d; };
int main() { return (int)sizeof(struct s); }
)"),
            24);
}

TEST(FrontendEdge, AddressOfLocalThroughCall) {
  EXPECT_EQ(runs(R"(
void set(int* p, int v) { *p = v; }
int main() { int x = 0; set(&x, 9); return x; }
)"),
            9);
}

TEST(FrontendEdge, ArrayDecayInCalls) {
  EXPECT_EQ(runs(R"(
size_t sum(size_t* a, size_t n) {
  size_t s = 0;
  for (size_t i = 0; i < n; i += 1) { s += a[i]; }
  return s;
}
size_t buf[5];
int main() {
  for (int i = 0; i < 5; i += 1) { buf[i] = (size_t)(i + 1); }
  return (int)sum(buf, 5);
}
)"),
            15);
}

TEST(FrontendEdge, GotoSkipsForward) {
  EXPECT_EQ(runs(R"(
int main() {
  int x = 1;
  goto done;
  x = 99;
done:
  return x;
}
)"),
            1);
}

TEST(FrontendEdge, CompoundAssignOperators) {
  EXPECT_EQ(runs(R"(
int main() {
  int x = 8;
  x += 2; x -= 1; x *= 3; x /= 2; x %= 7;
  unsigned int y = 12;
  y &= 10; y |= 1; y ^= 2;
  y <<= 2; y >>= 1;
  return x * 100 + (int)y;
}
)"),
            ((((8 + 2 - 1) * 3) / 2 % 7) * 100) +
                (int)(((((12u & 10u) | 1u) ^ 2u) << 2) >> 1));
}

TEST(FrontendEdge, PreIncrementDecrement) {
  EXPECT_EQ(runs(R"(
int main() {
  int i = 0;
  int s = 0;
  while (i < 4) { ++i; s += i; }
  --s;
  return s;
}
)"),
            1 + 2 + 3 + 4 - 1);
}

TEST(FrontendEdge, FunctionPointerStoredInLocal) {
  EXPECT_EQ(runs(R"(
typedef int op_t(int);
int twice(int x) { return 2 * x; }
int main() {
  op_t* f = twice;
  return f(21);
}
)"),
            42);
}

TEST(FrontendEdge, LogicalNotOnPointerAndInt) {
  EXPECT_EQ(runs(R"(
int main() {
  int* p = NULL;
  int z = 0;
  return (!p ? 10 : 0) + (!z ? 1 : 0);
}
)"),
            11);
}
