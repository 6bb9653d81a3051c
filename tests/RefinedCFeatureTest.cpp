//===- RefinedCFeatureTest.cpp - One verified program per type feature ----===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A systematic battery: for every RefinedC type constructor and annotation
/// feature, a small annotated program that must verify (and, where a main is
/// present, execute correctly). Run as a parameterized suite so each feature
/// reports individually.
///
//===----------------------------------------------------------------------===//

#include "caesium/Interp.h"
#include "frontend/Frontend.h"
#include "refinedc/Checker.h"

#include <gtest/gtest.h>

using namespace rcc;
using namespace rcc::refinedc;

namespace {

struct Feature {
  const char *Name;
  const char *Source;
  std::vector<const char *> Functions;
  int ExpectMainReturn; ///< INT_MIN = no main
};

// Print a case by its name. The default printer dumps the struct's bytes,
// pointers included, so the discovered ctest names changed on every run.
void PrintTo(const Feature &F, std::ostream *OS) { *OS << '"' << F.Name << '"'; }

const Feature Features[] = {
    {"singleton_int",
     R"(
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::returns("{n + n} @ int<size_t>")]]
size_t dbl(size_t x) { return x + x; }
int main() { return (int)dbl(21); }
)",
     {"dbl"},
     42},

    {"refined_bool",
     R"(
[[rc::parameters("a: nat", "b: nat")]]
[[rc::args("a @ int<size_t>", "b @ int<size_t>")]]
[[rc::returns("{a <= b} @ bool<i32>")]]
int leq(size_t a, size_t b) { return a <= b; }
int main() { return leq(2, 3) + leq(5, 4); }
)",
     {"leq"},
     1},

    {"owned_pointer_swap",
     R"(
[[rc::parameters("x: nat", "y: nat", "p: loc", "q: loc")]]
[[rc::args("p @ &own<x @ int<size_t>>", "q @ &own<y @ int<size_t>>")]]
[[rc::ensures("own p : y @ int<size_t>", "own q : x @ int<size_t>")]]
void swap(size_t* a, size_t* b) {
  size_t t = *a;
  *a = *b;
  *b = t;
}
int main() {
  size_t x = 1; size_t y = 41;
  swap(&x, &y);
  return (int)(x + y * 0 + x * 0 + y) - 1;
}
)",
     {"swap"},
     41},

    {"optional_null_check",
     R"(
[[rc::parameters("x: nat", "b: bool")]]
[[rc::args("b @ optional<&own<x @ int<size_t>>, null>")]]
[[rc::exists("r: nat")]]
[[rc::returns("r @ int<size_t>")]]
size_t deref_or_zero(size_t* p) {
  if (p == NULL) return 0;
  return *p;
}
)",
     {"deref_or_zero"},
     INT32_MIN},

    {"constraint_annotation",
     R"(
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::requires("{10 <= n}")]]
[[rc::returns("{n - 10} @ int<size_t>")]]
size_t sub10(size_t x) { return x - 10; }
int main() { return (int)sub10(52); }
)",
     {"sub10"},
     42},

    {"exists_in_return",
     R"(
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::exists("m: nat")]]
[[rc::returns("m @ int<size_t>")]]
[[rc::ensures("{n <= m}")]]
size_t round_up8(size_t x) {
  return x + (8 - x % 8) % 8;
}
)",
     {"round_up8"},
     INT32_MIN},

    {"uninit_split_and_write",
     R"(
[[rc::parameters("q: loc")]]
[[rc::args("q @ &own<uninit<16>>")]]
[[rc::ensures("own q : uninit<16>")]]
void scribble(unsigned char* p) {
  p[0] = 1;
  p[15] = 2;
}
)",
     {"scribble"},
     INT32_MIN},

    {"padded_struct_overlay",
     R"(
struct [[rc::refined_by("v: nat")]]
[[rc::size("{64}")]]
header {
  [[rc::field("v @ int<size_t>")]] size_t tag;
};

[[rc::parameters("q: loc")]]
[[rc::args("q @ &own<uninit<{64}>>")]]
[[rc::ensures("own q : {7} @ header")]]
void stamp(void* p) {
  struct header* h = p;
  h->tag = 7;
}
)",
     {"stamp"},
     INT32_MIN},

    {"array_read_write",
     R"(
[[rc::parameters("xs: {list nat}", "a: loc", "i: nat", "v: nat")]]
[[rc::args("a @ &own<xs @ array<int<size_t>>>",
           "i @ int<size_t>", "v @ int<size_t>")]]
[[rc::requires("{i < length(xs)}")]]
[[rc::returns("{xs !! i} @ int<size_t>")]]
[[rc::ensures("own a : {update(xs, i, v)} @ array<int<size_t>>")]]
size_t exchange(size_t* arr, size_t i, size_t v) {
  size_t old = arr[i];
  arr[i] = v;
  return old;
}
)",
     {"exchange"},
     INT32_MIN},

    {"function_pointer_typedef",
     R"(
typedef
[[rc::parameters("x: nat")]]
[[rc::args("x @ int<size_t>")]]
[[rc::returns("{x + 1} @ int<size_t>")]]
size_t step_t(size_t);

[[rc::parameters("x: nat")]]
[[rc::args("x @ int<size_t>")]]
[[rc::returns("{x + 1} @ int<size_t>")]]
size_t succ(size_t x) { return x + 1; }

[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>", "fn<step_t>")]]
[[rc::returns("{n + 2} @ int<size_t>")]]
size_t twostep(size_t n, step_t* f) { return f(f(n)); }

int main() { return (int)twostep(40, succ); }
)",
     {"succ", "twostep"},
     42},

    {"wand_loop_invariant",
     R"(
// A list refined by its length: values may change, the spine may not.
typedef struct
[[rc::refined_by("c: nat")]]
[[rc::ptr_type("cells_t: {c != 0} @ optional<&own<...>, null>")]]
[[rc::exists("tail: nat")]]
[[rc::constraints("{c = tail + 1}")]]
cell {
  [[rc::field("exists v. v @ int<size_t>")]] size_t value;
  [[rc::field("tail @ cells_t")]] struct cell* next;
}* cells_t;

// Zero every element: a mutating traversal whose wand invariant hands the
// (length-preserving) ownership back at the end.
[[rc::parameters("c: nat", "p: loc")]]
[[rc::args("p @ &own<c @ cells_t>")]]
[[rc::ensures("own p : c @ cells_t")]]
void zero_all(cells_t* l) {
  cells_t* cur = l;
  [[rc::exists("cp: loc", "cs: nat")]]
  [[rc::inv_vars("cur: cp @ &own<cs @ cells_t>")]]
  [[rc::inv_vars("l: p @ &own<wand<own cp : cs @ cells_t,"
                 "c @ cells_t>>")]]
  while (*cur != NULL) {
    (*cur)->value = 0;
    cur = &(*cur)->next;
  }
}
)",
     {"zero_all"},
     INT32_MIN},

    {"atomicbool_handoff",
     R"(
[[rc::global("atomicbool<u32, true, own global(box) : exists v. v @ int<u64>>")]]
unsigned int gate = 0;
size_t box;

[[rc::parameters()]]
[[rc::ensures("own global(box) : exists v. v @ int<u64>")]]
void take(void) {
  unsigned int e = 0;
  [[rc::inv_vars("e: {0} @ int<u32>")]]
  while (!atomic_compare_exchange_strong(&gate, &e, 1)) { e = 0; }
}

[[rc::requires("own global(box) : exists v. v @ int<u64>")]]
[[rc::parameters()]]
void give(void) {
  atomic_store(&gate, 0);
}
)",
     {"take", "give"},
     INT32_MIN},

    {"global_annotation_struct",
     R"(
struct [[rc::refined_by("a: nat")]] counter_t {
  [[rc::field("a @ int<size_t>")]] size_t hits;
};

[[rc::global("atomicbool<u32, true,"
             "own global(stats) : exists a. a @ counter_t>")]]
unsigned int stats_lock = 0;
struct counter_t stats;

[[rc::parameters()]]
void bump(void) {
  unsigned int e = 0;
  [[rc::inv_vars("e: {0} @ int<u32>")]]
  while (!atomic_compare_exchange_strong(&stats_lock, &e, 1)) { e = 0; }
  stats.hits = stats.hits + 1;
  atomic_store(&stats_lock, 0);
}
)",
     {"bump"},
     INT32_MIN},

    {"layered_lemma",
     R"(
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::lemma("triple_unfold", "{triple(n) = n + n + n}", "12")]]
[[rc::returns("{triple(n)} @ int<size_t>")]]
size_t triple_it(size_t x) { return x + x + x; }
)",
     {"triple_it"},
     INT32_MIN},
};

class FeatureTest : public ::testing::TestWithParam<Feature> {};

} // namespace

TEST_P(FeatureTest, VerifiesAndRuns) {
  const Feature &F = GetParam();
  DiagnosticEngine Diags;
  auto AP = front::compileSource(F.Source, Diags);
  ASSERT_TRUE(AP != nullptr) << Diags.render(F.Source);
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv()) << Diags.render(F.Source);
  for (const char *Fn : F.Functions) {
    FnResult R = C.verifyFunction(Fn, {});
    EXPECT_TRUE(R.Verified) << Fn << ":\n" << R.renderError(F.Source);
  }
  if (F.ExpectMainReturn != INT32_MIN) {
    caesium::Machine M(AP->Prog);
    caesium::ExecResult R = M.run("main", {});
    ASSERT_TRUE(R.ok()) << R.Message;
    EXPECT_EQ(R.MainRet.asSigned(), F.ExpectMainReturn);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFeatures, FeatureTest,
                         ::testing::ValuesIn(Features),
                         [](const ::testing::TestParamInfo<Feature> &I) {
                           return I.param.Name;
                         });
