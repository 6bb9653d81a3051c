//===- VerifierNegativeTest.cpp - Programs that must NOT verify -----------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Soundness-side tests: buggy programs and wrong specifications must be
/// rejected by the verifier, and (where a driver exists) the corresponding
/// undefined behaviour must be observable on the interpreter — the two
/// halves of the differential-testing substitute for Iris adequacy.
///
//===----------------------------------------------------------------------===//

#include "caesium/Interp.h"
#include "casestudies/CaseStudies.h"
#include "frontend/Frontend.h"
#include "refinedc/Checker.h"

#include <gtest/gtest.h>

using namespace rcc;
using namespace rcc::refinedc;

namespace {

/// Returns the verification error (empty when it unexpectedly verified).
std::string rejects(const std::string &Src, const std::string &Fn) {
  DiagnosticEngine Diags;
  auto AP = front::compileSource(Src, Diags);
  EXPECT_TRUE(AP != nullptr) << Diags.render(Src);
  if (!AP)
    return "front end failed";
  Checker C(*AP, Diags);
  EXPECT_TRUE(C.buildEnv()) << Diags.render(Src);
  FnResult R = C.verifyFunction(Fn, {});
  return R.Verified ? std::string() : R.Error;
}

/// The source of case study \p Id with \p From replaced by \p To.
std::string editedCaseStudy(const char *Id, const std::string &From,
                            const std::string &To) {
  const casestudies::CaseStudy *CS = casestudies::caseStudy(Id);
  EXPECT_NE(CS, nullptr) << Id;
  if (!CS)
    return "";
  std::string Src = CS->Source;
  size_t At = Src.find(From);
  EXPECT_NE(At, std::string::npos) << Id << ": edit anchor not found";
  if (At != std::string::npos)
    Src.replace(At, From.size(), To);
  return Src;
}

/// Verifies \p Fn and expects a failure whose diagnostic has a location.
void expectLocatedFailure(const std::string &Src, const std::string &Fn) {
  DiagnosticEngine Diags;
  auto AP = front::compileSource(Src, Diags);
  ASSERT_TRUE(AP != nullptr) << Diags.render(Src);
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv()) << Diags.render(Src);
  FnResult R = C.verifyFunction(Fn, {});
  EXPECT_FALSE(R.Verified);
  ASSERT_FALSE(R.Diags.empty()) << R.Error;
  EXPECT_TRUE(R.Diags.front().Loc.isValid()) << R.Error;
}

bool interpTrapsUB(const std::string &Src, uint64_t Seeds = 16) {
  DiagnosticEngine Diags;
  auto AP = front::compileSource(Src, Diags);
  if (!AP)
    return false;
  for (uint64_t S = 1; S <= Seeds; ++S) {
    caesium::Machine M(AP->Prog, S);
    if (M.run("main", {}).C == caesium::ExecResult::Code::UB)
      return true;
  }
  return false;
}

} // namespace

TEST(Negative, MissingBoundsCheckIsRejectedAndTraps) {
  // alloc without the len check: the uninit split side condition n <= a is
  // unprovable, and running it overflows the buffer.
  std::string Src = R"(
struct [[rc::refined_by("a: nat")]] mem_t {
  [[rc::field("a @ int<size_t>")]] size_t len;
  [[rc::field("&own<uninit<a>>")]] unsigned char* buffer;
};

[[rc::parameters("a: nat", "n: nat", "p: loc")]]
[[rc::args("p @ &own<a @ mem_t>", "n @ int<size_t>")]]
[[rc::returns("&own<uninit<n>>")]]
[[rc::ensures("own p : {a - n} @ mem_t")]]
void* alloc(struct mem_t* d, size_t sz) {
  d->len -= sz;
  return d->buffer + d->len;
}

struct mem_t pool;
int main() {
  pool.len = 8;
  pool.buffer = rc_alloc(8);
  unsigned char* p = alloc(&pool, 16);
  p[0] = 1;
  return 0;
}
)";
  std::string Err = rejects(Src, "alloc");
  EXPECT_FALSE(Err.empty());
  EXPECT_NE(Err.find("side condition"), std::string::npos) << Err;
  EXPECT_TRUE(interpTrapsUB(Src));
}

TEST(Negative, UseAfterMoveIsRejected) {
  // Returning the same owned pointer twice: the second use finds no
  // ownership.
  std::string Src = R"(
[[rc::parameters("n: nat", "q: loc")]]
[[rc::args("q @ &own<uninit<n>>")]]
[[rc::returns("q @ &own<uninit<n>>")]]
[[rc::ensures("own q : uninit<n>")]]
void* dup(void* p) {
  return p;
}
)";
  std::string Err = rejects(Src, "dup");
  EXPECT_FALSE(Err.empty());
  EXPECT_NE(Err.find("no ownership"), std::string::npos) << Err;
}

TEST(Negative, ReadingUninitializedMemoryIsRejectedAndTraps) {
  std::string Src = R"(
[[rc::parameters("q: loc")]]
[[rc::args("q @ &own<uninit<8>>")]]
[[rc::exists("v: nat")]]
[[rc::returns("v @ int<size_t>")]]
size_t peek(size_t* p) {
  return *p;
}

int main() {
  size_t x;
  return (int)peek(&x);
}
)";
  std::string Err = rejects(Src, "peek");
  EXPECT_NE(Err.find("uninitialized"), std::string::npos) << Err;
  EXPECT_TRUE(interpTrapsUB(Src));
}

TEST(Negative, DereferencingPossiblyNullIsRejected) {
  std::string Src = R"(
typedef struct
[[rc::refined_by("s: {gmultiset nat}")]]
[[rc::ptr_type("slist_t: {s != {[]}} @ optional<&own<...>, null>")]]
[[rc::exists("v: nat", "tail: {gmultiset nat}")]]
[[rc::constraints("{s = {[v]} (+) tail}")]]
snode {
  [[rc::field("v @ int<size_t>")]] size_t value;
  [[rc::field("tail @ slist_t")]] struct snode* next;
}* slist_t;

// No `requires s != {[]}`: dereferencing the head may be NULL.
[[rc::parameters("s: {gmultiset nat}", "p: loc")]]
[[rc::args("p @ &own<s @ slist_t>")]]
[[rc::exists("v: nat")]]
[[rc::returns("v @ int<size_t>")]]
[[rc::ensures("own p : s @ slist_t")]]
[[rc::tactics("multiset_solver")]]
size_t head_of(slist_t* l) {
  struct snode* h = *l;
  return h->value;
}
)";
  std::string Err = rejects(Src, "head_of");
  EXPECT_NE(Err.find("NULL"), std::string::npos) << Err;
}

TEST(Negative, WrongPostconditionIsRejected) {
  std::string Src = R"(
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::returns("{n + 2} @ int<size_t>")]]
size_t inc(size_t x) {
  return x + 1;
}
)";
  std::string Err = rejects(Src, "inc");
  EXPECT_NE(Err.find("side condition"), std::string::npos) << Err;
}

TEST(Negative, LoopWithoutInvariantIsRejected) {
  std::string Src = R"(
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::returns("{0} @ int<size_t>")]]
size_t spin(size_t n) {
  size_t i = 0;
  while (i < n) {
    i += 1;
  }
  return 0;
}
)";
  std::string Err = rejects(Src, "spin");
  EXPECT_NE(Err.find("invariant"), std::string::npos) << Err;
}

TEST(Negative, SignedOverflowIsRejectedAndTraps) {
  std::string Src = R"(
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<i32>")]]
[[rc::exists("r: int")]]
[[rc::returns("r @ int<i32>")]]
int bump(int x) {
  return x + 1;
}

int main() {
  return bump(2147483647);
}
)";
  std::string Err = rejects(Src, "bump");
  EXPECT_NE(Err.find("side condition"), std::string::npos) << Err;
  EXPECT_TRUE(interpTrapsUB(Src));
}

TEST(Negative, ReleasingLockWithoutPayloadIsRejected) {
  // Storing 0 (unlocked) into the lock requires handing the counter back.
  std::string Src = R"(
[[rc::global("atomicbool<u32, true,"
             "own global(counter) : exists c. c @ int<u64>>")]]
unsigned int lock = 0;
size_t counter;

[[rc::parameters()]]
void bogus_unlock(void) {
  atomic_store(&lock, 0);
}
)";
  std::string Err = rejects(Src, "bogus_unlock");
  EXPECT_FALSE(Err.empty());
}

TEST(Negative, NonAtomicAccessToAtomicLocationIsRejected) {
  std::string Src = R"(
[[rc::global("atomicbool<u32, true, true>")]]
unsigned int flag = 0;

[[rc::parameters()]]
void poke(void) {
  flag = 1;  // plain (non-atomic) store to an atomic boolean
}
)";
  std::string Err = rejects(Src, "poke");
  EXPECT_FALSE(Err.empty());
}

TEST(Negative, UnsignedUnderflowIsRejected) {
  std::string Src = R"(
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::exists("r: nat")]]
[[rc::returns("r @ int<size_t>")]]
size_t dec(size_t x) {
  return x - 1;  // underflows when x = 0
}
)";
  std::string Err = rejects(Src, "dec");
  EXPECT_NE(Err.find("side condition"), std::string::npos) << Err;
}

TEST(Negative, DivisionByPossiblyZeroIsRejected) {
  std::string Src = R"(
[[rc::parameters("a: nat", "b: nat")]]
[[rc::args("a @ int<size_t>", "b @ int<size_t>")]]
[[rc::exists("r: nat")]]
[[rc::returns("r @ int<size_t>")]]
size_t quot(size_t a, size_t b) {
  return a / b;
}
)";
  std::string Err = rejects(Src, "quot");
  EXPECT_NE(Err.find("side condition"), std::string::npos) << Err;
  // With the precondition it verifies.
  std::string Fixed = R"(
[[rc::parameters("a: nat", "b: nat")]]
[[rc::args("a @ int<size_t>", "b @ int<size_t>")]]
[[rc::requires("{0 < b}")]]
[[rc::exists("r: nat")]]
[[rc::returns("r @ int<size_t>")]]
size_t quot(size_t a, size_t b) {
  return a / b;
}
)";
  EXPECT_EQ(rejects(Fixed, "quot"), "");
}

TEST(Negative, ArrayIndexOutOfBoundsIsRejected) {
  std::string Src = R"(
[[rc::parameters("xs: {list nat}", "a: loc")]]
[[rc::args("a @ &own<xs @ array<int<size_t>>>", "{length(xs)} @ int<size_t>")]]
[[rc::exists("r: nat")]]
[[rc::returns("r @ int<size_t>")]]
[[rc::ensures("own a : xs @ array<int<size_t>>")]]
size_t last_plus_one(size_t* arr, size_t n) {
  return arr[n];  // one past the end
}
)";
  std::string Err = rejects(Src, "last_plus_one");
  EXPECT_NE(Err.find("side condition"), std::string::npos) << Err;
}

namespace {
/// A two-step caller whose fn<> argument names the function \p Target
/// (defined under that name), not a function-type typedef.
std::string fnOfFunction(const std::string &Target) {
  return R"(
[[rc::parameters("x: nat")]]
[[rc::args("x @ int<size_t>")]]
[[rc::returns("{x + 1} @ int<size_t>")]]
[[rc::requires("{x <= 100}")]]
size_t )" + Target +
         R"((size_t x) { return x + 1; }

[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>", "fn<)" +
         Target + R"(>")]]
[[rc::returns("{n + 2} @ int<size_t>")]]
[[rc::requires("{n <= 10}")]]
size_t m_twostep(size_t n, size_t (*f)(size_t)) { return f(f(n)); }
)";
}

/// The diagnostics of building the environment of \p Src, which must fail.
std::string specErrors(const std::string &Src) {
  DiagnosticEngine Diags;
  auto AP = front::compileSource(Src, Diags);
  EXPECT_TRUE(AP != nullptr) << Diags.render(Src);
  if (!AP)
    return "front end failed";
  Checker C(*AP, Diags);
  EXPECT_FALSE(C.buildEnv());
  return Diags.render();
}
} // namespace

TEST(Negative, FnOfAFunctionIsRejectedWhateverItsName) {
  // fn<> used to resolve against every spec built so far, in name order:
  // a_succ (before m_twostep) resolved, z_succ did not. And the named
  // spec was not part of m_twostep's content key.
  const char *Want = "in spec 'fn<%s>': fn<> needs a function-type typedef "
                     "with a spec, and '%s' is not one";
  for (const char *Target : {"a_succ", "z_succ"}) {
    char Msg[256];
    snprintf(Msg, sizeof(Msg), Want, Target, Target);
    EXPECT_EQ(specErrors(fnOfFunction(Target)),
              std::string("error: 9:3: ") + Msg + "\n")
        << Target;
  }
}

TEST(Negative, AnnotationsWithoutTheirArgumentAreSpecErrors) {
  // These read their first argument unchecked, and crashed on an empty
  // list.
  EXPECT_EQ(specErrors("[[rc::parameters(\"n: nat\")]]\n"
                       "[[rc::args(\"n @ int<u32>\")]]\n"
                       "[[rc::returns()]]\n"
                       "unsigned int f(unsigned int x) { return x; }\n"),
            "error: 3:3: rc::returns expects a type\n");
  EXPECT_EQ(specErrors("struct [[rc::size()]] s { int a; };\n"),
            "error: 1:10: rc::size expects a term\n");
  EXPECT_EQ(
      specErrors("typedef struct [[rc::ptr_type()]] s { int a; } *s_t;\n"),
      "error: 1:18: rc::ptr_type expects 'name: type'\n");
}

namespace {
/// A struct refined by `a: nat` whose rc::ptr_type names \p PtrName.
std::string ptrTypeStruct(const std::string &Tag, const std::string &PtrName) {
  return "typedef struct\n"
         "[[rc::refined_by(\"a: nat\")]]\n"
         "[[rc::ptr_type(\"" +
         PtrName +
         ": {0 < a} @ optional<&own<...>, null>\")]]\n" + Tag +
         " {\n"
         "  [[rc::field(\"a @ int<size_t>\")]] size_t w;\n"
         "}* " +
         Tag + "_t;\n";
}
} // namespace

TEST(Negative, RedefinedNamedTypeIsAnError) {
  // A struct defines the RefinedC type named by its rc::ptr_type, or else
  // by its tag. A name defined twice used to go to whichever struct's tag
  // sorts last: `a @ cell` named struct cell next to a struct tagged
  // anode, and the optional pointer type next to one tagged node. The
  // second definition in the source is now the error.
  const std::string Cell = "struct [[rc::refined_by(\"a: nat\")]] cell {\n"
                           "  [[rc::field(\"a @ int<size_t>\")]] size_t v;\n"
                           "};\n";
  for (const char *Tag : {"anode", "node"})
    EXPECT_EQ(specErrors(Cell + ptrTypeStruct(Tag, "cell")),
              "error: 6:3: redefinition of RefinedC type 'cell'\n"
              "note: 1:1: previous definition of RefinedC type 'cell' is "
              "here\n")
        << Tag;
  // Two rc::ptr_types of one name; the second in the source sorts first.
  EXPECT_EQ(specErrors(ptrTypeStruct("bnode", "list_t") +
                       ptrTypeStruct("anode", "list_t")),
            "error: 9:3: redefinition of RefinedC type 'list_t'\n"
            "note: 3:3: previous definition of RefinedC type 'list_t' is "
            "here\n");
}

TEST(Negative, PrototypeAfterTheDefinitionKeepsItChecked) {
  // The trailing prototype used to replace inc's metadata, so verifyAll
  // skipped the wrong body and the run passed.
  std::string Src = R"(
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::requires("{n <= 10}")]]
[[rc::returns("{n + 1} @ int<size_t>")]]
size_t inc(size_t x) { return x + 2; }
size_t inc(size_t x);
)";
  DiagnosticEngine Diags;
  auto AP = front::compileSource(Src, Diags);
  ASSERT_NE(AP, nullptr) << Diags.render(Src);
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv()) << Diags.render(Src);
  ProgramResult PR = C.verifyAll({});
  ASSERT_EQ(PR.Fns.size(), 1u);
  EXPECT_EQ(PR.Fns[0].Name, "inc");
  EXPECT_FALSE(PR.Fns[0].Verified);
}

//===----------------------------------------------------------------------===//
// A refined type written without its refinement: each input used to crash
// the verifier on a null refinement. Each must now fail with a location.
//===----------------------------------------------------------------------===//

TEST(Negative, UnrefinedNamedTypeArgumentFailsWithALocation) {
  // S-NAMED-SAME compared the unrefined slist_t argument with the refined
  // one in the postcondition.
  const casestudies::CaseStudy *CS = casestudies::caseStudy("slist");
  ASSERT_NE(CS, nullptr);
  expectLocatedFailure(CS->Source + R"(
[[rc::parameters("s: {gmultiset nat}", "p: loc")]]
[[rc::args("p @ &own<slist_t>")]]
[[rc::ensures("own p : s @ slist_t")]]
void claim_any(slist_t* l) { }
)",
                       "claim_any");
}

TEST(Negative, UnrefinedWandTargetFailsWithALocation) {
  expectLocatedFailure(
      editedCaseStudy("bst_direct",
                      "t: p @ &own<wand<own cp : cs @ tree_t, s @ tree_t>>",
                      "t: p @ &own<wand<own cp : cs @ tree_t, tree_t>>"),
      "tree_contains");
}

TEST(Negative, UnrefinedArrayInvariantFailsWithALocation) {
  // Rendering the failure's context printed the array type, whose
  // refinement is null.
  expectLocatedFailure(
      editedCaseStudy("bsearch", "\"arr: a @ &own<xs @ array<int<size_t>>>\"",
                      "\"arr: a @ &own<array<int<size_t>>>\""),
      "bsearch_pos");
}
