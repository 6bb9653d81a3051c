//===- FrontendTest.cpp - Front-end unit/integration tests ----------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "caesium/Interp.h"
#include "frontend/Frontend.h"
#include "frontend/Lexer.h"

#include <gtest/gtest.h>

#include <string_view>

using namespace rcc;
using namespace rcc::front;
using namespace rcc::caesium;

namespace {
std::unique_ptr<AnnotatedProgram> compileOk(const std::string &Src) {
  DiagnosticEngine Diags;
  auto AP = compileSource(Src, Diags);
  EXPECT_TRUE(AP != nullptr) << Diags.render(Src);
  return AP;
}

RtVal runMain(const AnnotatedProgram &AP, std::vector<RtVal> Args = {},
              uint64_t Seed = 0) {
  Machine M(AP.Prog, Seed);
  ExecResult R = M.run("main", std::move(Args));
  EXPECT_TRUE(R.ok()) << R.Message;
  return R.MainRet;
}

const char *tokKindName(TokKind K) {
  switch (K) {
  case TokKind::Eof:
    return "eof";
  case TokKind::Ident:
    return "ident";
  case TokKind::Keyword:
    return "keyword";
  case TokKind::Number:
    return "number";
  case TokKind::String:
    return "string";
  case TokKind::Punct:
    return "punct";
  case TokKind::AttrOpen:
    return "attr-open";
  case TokKind::AttrClose:
    return "attr-close";
  }
  return "?";
}

/// Escapes newlines, tabs, NULs and backslashes, so a raw and a decoded
/// spelling of the same literal render differently.
std::string escaped(std::string_view S) {
  std::string Out;
  for (char C : S) {
    if (C == '\n')
      Out += "\\n";
    else if (C == '\t')
      Out += "\\t";
    else if (C == '\0')
      Out += "\\0";
    else if (C == '\\')
      Out += "\\\\";
    else
      Out += C;
  }
  return Out;
}

/// The lexer's output for \p Src: one line per token, "kind 'spelling'
/// IntVal line:col-line:col" (Loc to End), then one line per diagnostic.
std::string lexDump(const std::string &Src) {
  DiagnosticEngine Diags;
  std::vector<Token> Toks = lexSource(Src, Diags);
  std::string Out;
  for (const Token &T : Toks)
    Out += std::string(tokKindName(T.K)) + " '" + escaped(T.Text) + "' " +
           std::to_string(T.IntVal) + " " + T.Loc.str() + "-" + T.End.str() +
           "\n";
  for (const Diagnostic &D : Diags.diagnostics())
    Out += std::string(diagLevelName(D.Level)) + " " + D.Loc.str() + " " +
           escaped(D.Message) + "\n";
  return Out;
}
} // namespace

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(Lexer, TokenKinds) {
  DiagnosticEngine Diags;
  const std::string Src = "size_t x = 0x1f; // comment\n p->next != NULL";
  auto Toks = lexSource(Src, Diags);
  ASSERT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Toks[0].is(Kw::SizeT));
  EXPECT_TRUE(Toks[1].isIdent());
  EXPECT_TRUE(Toks[2].is(Pu::Assign));
  EXPECT_EQ(Toks[3].IntVal, 0x1fu);
  EXPECT_TRUE(Toks[5].isIdent());
  EXPECT_TRUE(Toks[6].is(Pu::Arrow));
}

TEST(Lexer, AttributesAndStrings) {
  DiagnosticEngine Diags;
  const std::string Src = "[[rc::field(\"a @ int<size_t>\")]]";
  auto Toks = lexSource(Src, Diags);
  ASSERT_FALSE(Diags.hasErrors());
  EXPECT_EQ(Toks[0].K, TokKind::AttrOpen);
  EXPECT_TRUE(Toks[1].isIdent());
  size_t StrIdx = 0;
  for (size_t I = 0; I < Toks.size(); ++I)
    if (Toks[I].is(TokKind::String))
      StrIdx = I;
  EXPECT_EQ(Toks[StrIdx].Text, "a @ int<size_t>");
  EXPECT_EQ(Toks.back().K, TokKind::Eof);
  EXPECT_EQ(Toks[Toks.size() - 2].K, TokKind::AttrClose);
}

TEST(Lexer, LocationsTrackLines) {
  DiagnosticEngine Diags;
  const std::string Src = "a\nbb\n  c";
  auto Toks = lexSource(Src, Diags);
  EXPECT_EQ(Toks[0].Loc.Line, 1u);
  EXPECT_EQ(Toks[1].Loc.Line, 2u);
  EXPECT_EQ(Toks[2].Loc.Line, 3u);
  EXPECT_EQ(Toks[2].Loc.Col, 3u);
}

// Golden token streams: kind, spelling, IntVal, Loc and End of every token,
// and the lexer's diagnostics, for each corner of the token grammar. String
// and character literals are spelled by their raw body between the quotes.

TEST(LexerGolden, KeywordsAndPunctuators) {
  const std::string Src =
      "void char short int long unsigned signed struct union typedef return\n"
      "if else while for do break continue goto sizeof NULL size_t uint8_t\n"
      "uint16_t uint32_t uint64_t int8_t int16_t int32_t int64_t bool true\n"
      "false const static switch case default _Bool uintptr_t\n"
      "<<= >>= -> ++ -- << >> <= >= == != && || += -= *= /= %= &= |= ^= ...\n"
      "+ - * / % & | ^ ~ ! < > = ( ) { } [ ] ; , . : ?\n"
      "[[ ]] x[y[0]] <<== ->> .... ..\n";
  EXPECT_EQ(lexDump(Src),
            "keyword 'void' 0 1:1-1:5\n"
            "keyword 'char' 0 1:6-1:10\n"
            "keyword 'short' 0 1:11-1:16\n"
            "keyword 'int' 0 1:17-1:20\n"
            "keyword 'long' 0 1:21-1:25\n"
            "keyword 'unsigned' 0 1:26-1:34\n"
            "keyword 'signed' 0 1:35-1:41\n"
            "keyword 'struct' 0 1:42-1:48\n"
            "keyword 'union' 0 1:49-1:54\n"
            "keyword 'typedef' 0 1:55-1:62\n"
            "keyword 'return' 0 1:63-1:69\n"
            "keyword 'if' 0 2:1-2:3\n"
            "keyword 'else' 0 2:4-2:8\n"
            "keyword 'while' 0 2:9-2:14\n"
            "keyword 'for' 0 2:15-2:18\n"
            "keyword 'do' 0 2:19-2:21\n"
            "keyword 'break' 0 2:22-2:27\n"
            "keyword 'continue' 0 2:28-2:36\n"
            "keyword 'goto' 0 2:37-2:41\n"
            "keyword 'sizeof' 0 2:42-2:48\n"
            "keyword 'NULL' 0 2:49-2:53\n"
            "keyword 'size_t' 0 2:54-2:60\n"
            "keyword 'uint8_t' 0 2:61-2:68\n"
            "keyword 'uint16_t' 0 3:1-3:9\n"
            "keyword 'uint32_t' 0 3:10-3:18\n"
            "keyword 'uint64_t' 0 3:19-3:27\n"
            "keyword 'int8_t' 0 3:28-3:34\n"
            "keyword 'int16_t' 0 3:35-3:42\n"
            "keyword 'int32_t' 0 3:43-3:50\n"
            "keyword 'int64_t' 0 3:51-3:58\n"
            "keyword 'bool' 0 3:59-3:63\n"
            "keyword 'true' 0 3:64-3:68\n"
            "keyword 'false' 0 4:1-4:6\n"
            "keyword 'const' 0 4:7-4:12\n"
            "keyword 'static' 0 4:13-4:19\n"
            "keyword 'switch' 0 4:20-4:26\n"
            "keyword 'case' 0 4:27-4:31\n"
            "keyword 'default' 0 4:32-4:39\n"
            "keyword '_Bool' 0 4:40-4:45\n"
            "keyword 'uintptr_t' 0 4:46-4:55\n"
            "punct '<<=' 0 5:1-5:4\n"
            "punct '>>=' 0 5:5-5:8\n"
            "punct '->' 0 5:9-5:11\n"
            "punct '++' 0 5:12-5:14\n"
            "punct '--' 0 5:15-5:17\n"
            "punct '<<' 0 5:18-5:20\n"
            "punct '>>' 0 5:21-5:23\n"
            "punct '<=' 0 5:24-5:26\n"
            "punct '>=' 0 5:27-5:29\n"
            "punct '==' 0 5:30-5:32\n"
            "punct '!=' 0 5:33-5:35\n"
            "punct '&&' 0 5:36-5:38\n"
            "punct '||' 0 5:39-5:41\n"
            "punct '+=' 0 5:42-5:44\n"
            "punct '-=' 0 5:45-5:47\n"
            "punct '*=' 0 5:48-5:50\n"
            "punct '/=' 0 5:51-5:53\n"
            "punct '%=' 0 5:54-5:56\n"
            "punct '&=' 0 5:57-5:59\n"
            "punct '|=' 0 5:60-5:62\n"
            "punct '^=' 0 5:63-5:65\n"
            "punct '...' 0 5:66-5:69\n"
            "punct '+' 0 6:1-6:2\n"
            "punct '-' 0 6:3-6:4\n"
            "punct '*' 0 6:5-6:6\n"
            "punct '/' 0 6:7-6:8\n"
            "punct '%' 0 6:9-6:10\n"
            "punct '&' 0 6:11-6:12\n"
            "punct '|' 0 6:13-6:14\n"
            "punct '^' 0 6:15-6:16\n"
            "punct '~' 0 6:17-6:18\n"
            "punct '!' 0 6:19-6:20\n"
            "punct '<' 0 6:21-6:22\n"
            "punct '>' 0 6:23-6:24\n"
            "punct '=' 0 6:25-6:26\n"
            "punct '(' 0 6:27-6:28\n"
            "punct ')' 0 6:29-6:30\n"
            "punct '{' 0 6:31-6:32\n"
            "punct '}' 0 6:33-6:34\n"
            "punct '[' 0 6:35-6:36\n"
            "punct ']' 0 6:37-6:38\n"
            "punct ';' 0 6:39-6:40\n"
            "punct ',' 0 6:41-6:42\n"
            "punct '.' 0 6:43-6:44\n"
            "punct ':' 0 6:45-6:46\n"
            "punct '?' 0 6:47-6:48\n"
            "attr-open '[[' 0 7:1-7:3\n"
            "attr-close ']]' 0 7:4-7:6\n"
            "ident 'x' 0 7:7-7:8\n"
            "punct '[' 0 7:8-7:9\n"
            "ident 'y' 0 7:9-7:10\n"
            "punct '[' 0 7:10-7:11\n"
            "number '0' 0 7:11-7:12\n"
            "attr-close ']]' 0 7:12-7:14\n"
            "punct '<<=' 0 7:15-7:18\n"
            "punct '=' 0 7:18-7:19\n"
            "punct '->' 0 7:20-7:22\n"
            "punct '>' 0 7:22-7:23\n"
            "punct '...' 0 7:24-7:27\n"
            "punct '.' 0 7:27-7:28\n"
            "punct '.' 0 7:29-7:30\n"
            "punct '.' 0 7:30-7:31\n"
            "eof '' 0 8:1-8:1\n");
}

TEST(LexerGolden, IdentifiersThatStartWithKeywords) {
  const std::string Src =
      "int8_tx sizeof_ intx _Boolean NULLx uint8_t8 returned iff do_ _ __x x1";
  EXPECT_EQ(lexDump(Src),
            "ident 'int8_tx' 0 1:1-1:8\n"
            "ident 'sizeof_' 0 1:9-1:16\n"
            "ident 'intx' 0 1:17-1:21\n"
            "ident '_Boolean' 0 1:22-1:30\n"
            "ident 'NULLx' 0 1:31-1:36\n"
            "ident 'uint8_t8' 0 1:37-1:45\n"
            "ident 'returned' 0 1:46-1:54\n"
            "ident 'iff' 0 1:55-1:58\n"
            "ident 'do_' 0 1:59-1:62\n"
            "ident '_' 0 1:63-1:64\n"
            "ident '__x' 0 1:65-1:68\n"
            "ident 'x1' 0 1:69-1:71\n"
            "eof '' 0 1:71-1:71\n");
}

TEST(LexerGolden, IntegerLiteralDiagnostics) {
  const std::string Src =
      "0x1f 0XAbC 18446744073709551615 18446744073709551616\n"
      "0xffffffffffffffff 0x10000000000000000 0x 0Xg 007";
  EXPECT_EQ(lexDump(Src),
            "number '0x1f' 31 1:1-1:5\n"
            "number '0XAbC' 2748 1:6-1:11\n"
            "number '18446744073709551615' 18446744073709551615 1:12-1:32\n"
            "number '18446744073709551616' 1844674407370955161 1:33-1:53\n"
            "number '0xffffffffffffffff' 18446744073709551615 2:1-2:19\n"
            "number '0x10000000000000000' 1152921504606846976 2:20-2:39\n"
            "number '0x' 0 2:40-2:42\n"
            "number '0X' 0 2:43-2:45\n"
            "ident 'g' 0 2:45-2:46\n"
            "number '007' 7 2:47-2:50\n"
            "eof '' 0 2:50-2:50\n"
            "error 1:33 integer literal '18446744073709551616' does not fit "
            "in 64 bits\n"
            "error 2:20 integer literal '0x10000000000000000' does not fit "
            "in 64 bits\n"
            "error 2:40 hexadecimal literal '0x' expects at least one digit\n"
            "error 2:43 hexadecimal literal '0X' expects at least one digit\n");
}

TEST(LexerGolden, IntegerSuffixes) {
  const std::string Src = "10u 10U 10l 10L 10ul 10ULL 0x10u 7lu";
  EXPECT_EQ(lexDump(Src),
            "number '10' 10 1:1-1:4\n"
            "number '10' 10 1:5-1:8\n"
            "number '10' 10 1:9-1:12\n"
            "number '10' 10 1:13-1:16\n"
            "number '10' 10 1:17-1:21\n"
            "number '10' 10 1:22-1:27\n"
            "number '0x10' 16 1:28-1:33\n"
            "number '7' 7 1:34-1:37\n"
            "eof '' 0 1:37-1:37\n");
}

TEST(LexerGolden, CharacterLiterals) {
  const std::string Src = R"('a' '\n' '\t' '\0' '\\' '\'' '"' '\x')";
  EXPECT_EQ(lexDump(Src),
            "number 'a' 97 1:1-1:4\n"
            "number '\\\\n' 10 1:5-1:9\n"
            "number '\\\\t' 9 1:10-1:14\n"
            "number '\\\\0' 0 1:15-1:19\n"
            "number '\\\\\\\\' 92 1:20-1:24\n"
            "number '\\\\'' 39 1:25-1:29\n"
            "number '\"' 34 1:30-1:33\n"
            "number '\\\\x' 120 1:34-1:38\n"
            "eof '' 0 1:38-1:38\n");
}

TEST(LexerGolden, StringLiterals) {
  const std::string Src = R"("a\"b" "c\\d" "e\nf" "tab\tq" "adj" "acent" "two)"
                          "\n"
                          R"(lines" x)";
  EXPECT_EQ(lexDump(Src),
            "string 'a\\\\\"b' 0 1:1-1:7\n"
            "string 'c\\\\\\\\d' 0 1:8-1:14\n"
            "string 'e\\\\nf' 0 1:15-1:21\n"
            "string 'tab\\\\tq' 0 1:22-1:30\n"
            "string 'adj' 0 1:31-1:36\n"
            "string 'acent' 0 1:37-1:44\n"
            "string 'two\\nlines' 0 1:45-2:7\n"
            "ident 'x' 0 2:8-2:9\n"
            "eof '' 0 2:9-2:9\n");
}

TEST(LexerGolden, LineCommentEndsAtEof) {
  const std::string Src = "a // trailing comment without newline";
  EXPECT_EQ(lexDump(Src),
            "ident 'a' 0 1:1-1:2\n"
            "eof '' 0 1:38-1:38\n");
}

TEST(LexerGolden, BlockComment) {
  const std::string Src = "b /* block\n comment */ c";
  EXPECT_EQ(lexDump(Src),
            "ident 'b' 0 1:1-1:2\n"
            "ident 'c' 0 2:13-2:14\n"
            "eof '' 0 2:14-2:14\n");
}

TEST(LexerGolden, UnterminatedString) {
  const std::string Src = R"(x "abc)";
  EXPECT_EQ(lexDump(Src),
            "ident 'x' 0 1:1-1:2\n"
            "string 'abc' 0 1:3-1:7\n"
            "eof '' 0 1:7-1:7\n"
            "error 1:3 unterminated string literal\n");
}

TEST(LexerGolden, UnterminatedStringEndingInBackslash) {
  const std::string Src = R"(x "abc\)";
  EXPECT_EQ(lexDump(Src),
            "ident 'x' 0 1:1-1:2\n"
            "string 'abc\\\\' 0 1:3-1:8\n"
            "eof '' 0 1:8-1:8\n"
            "error 1:3 unterminated string literal\n");
}

TEST(LexerGolden, UnterminatedCharacterLiteral) {
  const std::string Src = "x 'a";
  EXPECT_EQ(lexDump(Src),
            "ident 'x' 0 1:1-1:2\n"
            "number 'a' 97 1:3-1:5\n"
            "eof '' 0 1:5-1:5\n"
            "error 1:3 unterminated character literal\n");
}

TEST(LexerGolden, LoneQuoteAtEof) {
  const std::string Src = "x '";
  EXPECT_EQ(lexDump(Src),
            "ident 'x' 0 1:1-1:2\n"
            "number '' 0 1:3-1:5\n"
            "eof '' 0 1:5-1:5\n"
            "error 1:3 unterminated character literal\n");
}

TEST(LexerGolden, LoneQuoteAndBackslashAtEof) {
  const std::string Src = R"(x '\)";
  EXPECT_EQ(lexDump(Src),
            "ident 'x' 0 1:1-1:2\n"
            "number '\\\\' 0 1:3-1:6\n"
            "eof '' 0 1:6-1:6\n"
            "error 1:3 unterminated character literal\n");
}


TEST(LexerGolden, DiagnosticSpellingsDecodeLiterals) {
  // What diagnostics print for a literal token: its decoded value.
  const std::string Src = R"('\n' '\'' '\x' "a\"b" "e\nf\tg\\")";
  DiagnosticEngine Diags;
  std::vector<Token> Toks = lexSource(Src, Diags);
  ASSERT_EQ(Toks.size(), 6u);
  EXPECT_EQ(tokenSpelling(Toks[0]), "\n");
  EXPECT_EQ(tokenSpelling(Toks[1]), "'");
  EXPECT_EQ(tokenSpelling(Toks[2]), "x");
  EXPECT_EQ(tokenSpelling(Toks[3]), "a\"b");
  EXPECT_EQ(tokenSpelling(Toks[4]), "e\nf\tg\\");
}

TEST(LexerGolden, AnnotationArgumentsDecodeEscapes) {
  const std::string Src = R"([[rc::args("a\"b", "c\\d" "e\nf\tg")]]
void f(int a, int b);
)";
  auto AP = compileOk(Src);
  ASSERT_TRUE(AP);
  const FnInfo &FI = AP->Fns.at("f");
  ASSERT_EQ(FI.Annots.size(), 1u);
  ASSERT_EQ(FI.Annots[0].Args.size(), 2u);
  EXPECT_EQ(FI.Annots[0].Args[0], "a\"b");
  EXPECT_EQ(FI.Annots[0].Args[1], "c\\de\nf\tg");
}

//===----------------------------------------------------------------------===//
// Structs, layouts, annotations
//===----------------------------------------------------------------------===//

TEST(Frontend, StructLayoutAndAnnotations) {
  auto AP = compileOk(R"(
struct [[rc::refined_by("a: nat")]] mem_t {
  [[rc::field("a @ int<size_t>")]] size_t len;
  [[rc::field("&own<uninit<a>>")]] unsigned char* buffer;
};
)");
  ASSERT_TRUE(AP);
  const StructInfo *SI = AP->structInfo("mem_t");
  ASSERT_NE(SI, nullptr);
  EXPECT_EQ(SI->Layout.Size, 16u);
  ASSERT_EQ(SI->Annots.size(), 1u);
  EXPECT_EQ(SI->Annots[0].Kind, "refined_by");
  EXPECT_EQ(SI->Annots[0].Args[0], "a: nat");
  ASSERT_EQ(SI->Fields.size(), 2u);
  EXPECT_EQ(SI->Fields[1].Annots[0].Args[0], "&own<uninit<a>>");
}

TEST(Frontend, TypedefPtrStruct) {
  auto AP = compileOk(R"(
typedef struct [[rc::refined_by("s: {gmultiset nat}")]] chunk {
  [[rc::field("n @ int<size_t>")]] size_t size;
  [[rc::field("tail @ chunks_t")]] struct chunk* next;
}* chunks_t;
)");
  ASSERT_TRUE(AP);
  const StructInfo *SI = AP->structInfo("chunk");
  ASSERT_NE(SI, nullptr);
  EXPECT_EQ(SI->PtrTypedefName, "chunks_t");
  EXPECT_EQ(SI->Layout.Size, 16u);
}

TEST(Frontend, FunctionAnnotationsCollected) {
  auto AP = compileOk(R"(
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::returns("{n} @ int<size_t>")]]
size_t id(size_t n) { return n; }
)");
  ASSERT_TRUE(AP);
  const FnInfo &FI = AP->Fns.at("id");
  ASSERT_EQ(FI.Annots.size(), 3u);
  EXPECT_EQ(FI.Annots[0].Kind, "parameters");
  EXPECT_EQ(FI.Annots[2].Kind, "returns");
}

TEST(Frontend, LoopAnnotationsAttachToLoopHead) {
  auto AP = compileOk(R"(
void f(size_t n) {
  size_t i = 0;
  [[rc::exists("k: nat")]]
  [[rc::inv_vars("i: k @ int<size_t>")]]
  while (i < n) { i += 1; }
}
)");
  ASSERT_TRUE(AP);
  const FnInfo &FI = AP->Fns.at("f");
  ASSERT_EQ(FI.LoopAnnots.size(), 1u);
  EXPECT_EQ(FI.LoopAnnots[0].size(), 2u);
  // Some block carries AnnotId 0.
  const caesium::Function *F = AP->Prog.function("f");
  ASSERT_NE(F, nullptr);
  bool Found = false;
  for (const Block &B : F->Blocks)
    if (B.AnnotId == 0)
      Found = true;
  EXPECT_TRUE(Found);
}

//===----------------------------------------------------------------------===//
// Execution of compiled programs
//===----------------------------------------------------------------------===//

TEST(Frontend, ArithmeticAndCalls) {
  auto AP = compileOk(R"(
int sq(int x) { return x * x; }
int main() { return sq(7) + 1; }
)");
  ASSERT_TRUE(AP);
  EXPECT_EQ(runMain(*AP).asSigned(), 50);
}

TEST(Frontend, WhileLoopSum) {
  auto AP = compileOk(R"(
int main() {
  int sum = 0;
  int i = 0;
  while (i < 10) { sum += i; i += 1; }
  return sum;
}
)");
  ASSERT_TRUE(AP);
  EXPECT_EQ(runMain(*AP).asSigned(), 45);
}

TEST(Frontend, ForLoopAndBreakContinue) {
  auto AP = compileOk(R"(
int main() {
  int sum = 0;
  for (int i = 0; i < 100; i += 1) {
    if (i % 2 == 0) continue;
    if (i > 10) break;
    sum += i;
  }
  return sum;
}
)");
  ASSERT_TRUE(AP);
  EXPECT_EQ(runMain(*AP).asSigned(), 1 + 3 + 5 + 7 + 9);
}

TEST(Frontend, ShortCircuitEvaluation) {
  // The rhs of && must not execute when the lhs is false (otherwise the
  // division by zero would be UB).
  auto AP = compileOk(R"(
int main() {
  int zero = 0;
  int ok = 0;
  if (zero != 0 && 10 / zero > 0) { ok = 1; } else { ok = 2; }
  return ok;
}
)");
  ASSERT_TRUE(AP);
  EXPECT_EQ(runMain(*AP).asSigned(), 2);
}

TEST(Frontend, ConditionalExpression) {
  auto AP = compileOk(R"(
int main() {
  int a = 3;
  return a > 2 ? 10 : 20;
}
)");
  ASSERT_TRUE(AP);
  EXPECT_EQ(runMain(*AP).asSigned(), 10);
}

TEST(Frontend, GotoAndLabels) {
  auto AP = compileOk(R"(
int main() {
  int x = 0;
again:
  x += 1;
  if (x < 3) goto again;
  return x;
}
)");
  ASSERT_TRUE(AP);
  EXPECT_EQ(runMain(*AP).asSigned(), 3);
}

TEST(Frontend, StructFieldAccessThroughPointer) {
  auto AP = compileOk(R"(
struct pair { int a; int b; };
struct pair g;
int main() {
  struct pair* p = &g;
  p->a = 4;
  p->b = 38;
  return p->a + p->b;
}
)");
  ASSERT_TRUE(AP);
  EXPECT_EQ(runMain(*AP).asSigned(), 42);
}

TEST(Frontend, PointerArithmeticAndSizeof) {
  auto AP = compileOk(R"(
int main() {
  unsigned char* p = rc_alloc(16);
  *(p + 3) = 7;
  unsigned char* q = p + 3;
  return *q + (int)sizeof(size_t);
}
)");
  ASSERT_TRUE(AP);
  EXPECT_EQ(runMain(*AP).asSigned(), 15);
}

TEST(Frontend, FunctionPointerCall) {
  auto AP = compileOk(R"(
typedef int binop_t(int, int);
int add(int a, int b) { return a + b; }
int mul(int a, int b) { return a * b; }
int apply(binop_t* f, int x, int y) { return f(x, y); }
int main() { return apply(add, 2, 3) + apply(mul, 2, 3); }
)");
  ASSERT_TRUE(AP);
  EXPECT_EQ(runMain(*AP).asSigned(), 11);
}

TEST(Frontend, ArrayIndexing) {
  auto AP = compileOk(R"(
size_t arr[4];
int main() {
  for (int i = 0; i < 4; i += 1) { arr[i] = (size_t)(i * i); }
  return (int)(arr[0] + arr[1] + arr[2] + arr[3]);
}
)");
  ASSERT_TRUE(AP);
  EXPECT_EQ(runMain(*AP).asSigned(), 0 + 1 + 4 + 9);
}

TEST(Frontend, AtomicBuiltins) {
  auto AP = compileOk(R"(
int lock = 0;
int main() {
  int expected = 0;
  int ok = atomic_compare_exchange_strong(&lock, &expected, 1);
  int v = atomic_load(&lock);
  atomic_store(&lock, 0);
  return ok * 10 + v;
}
)");
  ASSERT_TRUE(AP);
  EXPECT_EQ(runMain(*AP).asSigned(), 11);
}

TEST(Frontend, UninitializedUseIsCaught) {
  auto AP = compileOk(R"(
int main() {
  int x;
  return x + 1;
}
)");
  ASSERT_TRUE(AP);
  Machine M(AP->Prog);
  ExecResult R = M.run("main", {});
  EXPECT_EQ(R.C, ExecResult::Code::UB);
}

TEST(Frontend, CompileErrorsAreReported) {
  DiagnosticEngine Diags;
  auto AP = compileSource("int main() { return undeclared_var; }", Diags);
  EXPECT_EQ(AP, nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

//===----------------------------------------------------------------------===//
// The paper's Figure 1 allocator, compiled and executed
//===----------------------------------------------------------------------===//

static const char *AllocSource = R"(
struct [[rc::refined_by("a: nat")]] mem_t {
  [[rc::field("a @ int<size_t>")]] size_t len;
  [[rc::field("&own<uninit<a>>")]] unsigned char* buffer;
};

[[rc::parameters("a: nat", "n: nat", "p: loc")]]
[[rc::args("p @ &own<a @ mem_t>", "n @ int<size_t>")]]
[[rc::returns("{n <= a} @ optional<&own<uninit<n>>, null>")]]
[[rc::ensures("own p : {n <= a ? a - n : a} @ mem_t")]]
void* alloc(struct mem_t* d, size_t sz) {
  if (sz > d->len) return NULL;
  d->len -= sz;
  return d->buffer + d->len;
}

struct mem_t pool;

int main() {
  pool.len = 64;
  pool.buffer = rc_alloc(64);
  unsigned char* p1 = alloc(&pool, 16);
  unsigned char* p2 = alloc(&pool, 48);
  unsigned char* p3 = alloc(&pool, 1);
  rc_assert(p1 != NULL);
  rc_assert(p2 != NULL);
  rc_assert(p3 == NULL);
  p1[0] = 1; p1[15] = 2;
  p2[0] = 3; p2[47] = 4;
  return p1[0] + p1[15] + p2[0] + p2[47];
}
)";

TEST(Frontend, Figure1AllocCompilesAndRuns) {
  auto AP = compileOk(AllocSource);
  ASSERT_TRUE(AP);
  // Annotations present on alloc.
  const FnInfo &FI = AP->Fns.at("alloc");
  EXPECT_EQ(FI.Annots.size(), 4u);
  EXPECT_EQ(runMain(*AP).asSigned(), 10);
}
