//===- TraceTest.cpp - Observability subsystem contracts ------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contracts of src/trace (DESIGN.md, "Observability"): spans nest and
/// per-thread buffers merge in a stable order; the Chrome-trace export is
/// valid JSON with balanced B/E pairs per thread track; a session that is
/// never installed records nothing, and instrumentation sites with no
/// current session perform no heap allocation at all; and deterministic
/// exports are byte-identical across job counts.
///
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"
#include "refinedc/Checker.h"
#include "support/ThreadPool.h"
#include "trace/Export.h"
#include "trace/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <thread>

using namespace rcc;
using namespace rcc::trace;

//===----------------------------------------------------------------------===//
// Allocation counting: global operator new override. Only deltas taken
// around a measured block on one thread are meaningful.
//===----------------------------------------------------------------------===//

static std::atomic<uint64_t> GAllocs{0};

// The full set of (unaligned) forms is replaced so every allocation and
// deallocation in the binary goes through the same malloc/free pair — a
// partial override trips ASan's alloc-dealloc-mismatch check when e.g.
// stable_sort's temporary buffer uses the nothrow form.
static void *countedAlloc(size_t Sz) noexcept {
  GAllocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Sz ? Sz : 1);
}

void *operator new(size_t Sz) {
  if (void *P = countedAlloc(Sz))
    return P;
  throw std::bad_alloc();
}
void *operator new[](size_t Sz) { return ::operator new(Sz); }
void *operator new(size_t Sz, const std::nothrow_t &) noexcept {
  return countedAlloc(Sz);
}
void *operator new[](size_t Sz, const std::nothrow_t &) noexcept {
  return countedAlloc(Sz);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

namespace {

//===----------------------------------------------------------------------===//
// Minimal JSON parser — enough to validate the Chrome trace export. Accepts
// objects, arrays, strings (with escapes), numbers, true/false/null.
//===----------------------------------------------------------------------===//

struct JsonParser {
  const std::string &S;
  size_t I = 0;
  bool Ok = true;

  explicit JsonParser(const std::string &Str) : S(Str) {}

  void ws() {
    while (I < S.size() && (S[I] == ' ' || S[I] == '\n' || S[I] == '\t' ||
                            S[I] == '\r'))
      ++I;
  }
  bool eat(char C) {
    ws();
    if (I < S.size() && S[I] == C) {
      ++I;
      return true;
    }
    return Ok = false;
  }
  bool value() {
    ws();
    if (I >= S.size())
      return Ok = false;
    switch (S[I]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }
  bool object() {
    if (!eat('{'))
      return false;
    ws();
    if (I < S.size() && S[I] == '}')
      return ++I, true;
    do {
      ws();
      if (!string() || !eat(':') || !value())
        return false;
      ws();
    } while (I < S.size() && S[I] == ',' && ++I);
    return eat('}');
  }
  bool array() {
    if (!eat('['))
      return false;
    ws();
    if (I < S.size() && S[I] == ']')
      return ++I, true;
    do {
      if (!value())
        return false;
      ws();
    } while (I < S.size() && S[I] == ',' && ++I);
    return eat(']');
  }
  bool string() {
    ws();
    if (I >= S.size() || S[I] != '"')
      return Ok = false;
    for (++I; I < S.size(); ++I) {
      if (S[I] == '\\')
        ++I;
      else if (S[I] == '"')
        return ++I, true;
    }
    return Ok = false;
  }
  bool number() {
    size_t Start = I;
    while (I < S.size() && (isdigit((unsigned char)S[I]) || S[I] == '-' ||
                            S[I] == '+' || S[I] == '.' || S[I] == 'e' ||
                            S[I] == 'E'))
      ++I;
    if (I == Start)
      return Ok = false;
    return true;
  }
  bool literal(const char *L) {
    size_t N = strlen(L);
    if (S.compare(I, N, L) != 0)
      return Ok = false;
    I += N;
    return true;
  }
  bool parse() {
    bool V = value();
    ws();
    return V && I == S.size();
  }
};

/// Compiles and verifies \p Fns of \p Src under \p Opts; returns the result.
refinedc::ProgramResult verifyTraced(const std::string &Src,
                                     const std::vector<std::string> &Fns,
                                     refinedc::VerifyOptions Opts) {
  DiagnosticEngine Diags;
  auto AP = front::compileSource(Src, Diags);
  EXPECT_TRUE(AP != nullptr) << Diags.render(Src);
  refinedc::Checker C(*AP, Diags);
  EXPECT_TRUE(C.buildEnv()) << Diags.render(Src);
  return C.verifyFunctions(Fns, Opts);
}

/// Four independent small functions so Jobs=4 genuinely schedules in
/// parallel in the determinism test.
const char *FourFns = R"(
[[rc::parameters("x: nat", "y: nat", "p: loc", "q: loc")]]
[[rc::args("p @ &own<x @ int<size_t>>", "q @ &own<y @ int<size_t>>")]]
[[rc::ensures("own p : y @ int<size_t>", "own q : x @ int<size_t>")]]
void swap(size_t* a, size_t* b) {
  size_t t = *a;
  *a = *b;
  *b = t;
}

[[rc::parameters("a: nat", "b: nat")]]
[[rc::args("a @ int<size_t>", "b @ int<size_t>")]]
[[rc::exists("m: nat")]]
[[rc::returns("m @ int<size_t>")]]
[[rc::ensures("{a <= m}", "{b <= m}")]]
size_t max_sz(size_t a, size_t b) {
  return a < b ? b : a;
}

[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::returns("n @ int<size_t>")]]
size_t ident(size_t n) {
  return n;
}

[[rc::parameters("n: nat", "p: loc")]]
[[rc::args("p @ &own<n @ int<size_t>>")]]
[[rc::ensures("own p : {n} @ int<size_t>")]]
void keep(size_t* p) {
  size_t v = *p;
  *p = v;
}
)";

} // namespace

//===----------------------------------------------------------------------===//
// Span nesting and cross-thread buffer merging
//===----------------------------------------------------------------------===//

TEST(Trace, SpansNestAndRecordInOrder) {
  TraceSession TS;
  {
    SessionScope Scope(&TS);
    Span Outer(Category::Engine, "outer");
    {
      Span Inner(Category::Rule, "inner");
      count("test.counter", 3);
    }
  }
  std::vector<Event> Evts = TS.events();
  ASSERT_EQ(Evts.size(), 4u);
  EXPECT_EQ(Evts[0].Name, "outer");
  EXPECT_EQ(Evts[0].Phase, 'B');
  EXPECT_EQ(Evts[1].Name, "inner");
  EXPECT_EQ(Evts[1].Phase, 'B');
  EXPECT_EQ(Evts[2].Name, "inner");
  EXPECT_EQ(Evts[2].Phase, 'E');
  EXPECT_EQ(Evts[3].Name, "outer");
  EXPECT_EQ(Evts[3].Phase, 'E');
  // Nesting: inner lives strictly inside outer on the timeline.
  EXPECT_LE(Evts[0].TimeUs, Evts[1].TimeUs);
  EXPECT_LE(Evts[2].TimeUs, Evts[3].TimeUs);
  EXPECT_EQ(TS.metrics().counter("test.counter").get(), 3u);
}

TEST(Trace, PerThreadBuffersMergeStably) {
  TraceSession TS;
  constexpr unsigned NThreads = 4;
  constexpr unsigned SpansPer = 50;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NThreads; ++T)
    Threads.emplace_back([&TS, T] {
      SessionScope Scope(&TS);
      for (unsigned I = 0; I < SpansPer; ++I) {
        Span S(Category::Pool, std::string("t") + std::to_string(T),
               "\"i\": " + std::to_string(I));
      }
    });
  for (std::thread &T : Threads)
    T.join();

  std::vector<Event> Evts = TS.events();
  EXPECT_EQ(Evts.size(), NThreads * SpansPer * 2);

  // Merged order is (Tid, Seq): each thread's events appear contiguously
  // and in recording order, regardless of interleaving.
  std::map<uint32_t, uint64_t> LastSeq;
  uint32_t LastTid = 0;
  for (const Event &E : Evts) {
    EXPECT_GE(E.Tid, LastTid) << "merge not grouped by thread";
    if (E.Tid != LastTid)
      LastTid = E.Tid;
    auto It = LastSeq.find(E.Tid);
    if (It != LastSeq.end())
      EXPECT_GT(E.Seq, It->second) << "per-thread order broken";
    LastSeq[E.Tid] = E.Seq;
  }
  EXPECT_EQ(LastSeq.size(), NThreads);

  // Each thread's spans are balanced within its own track.
  std::map<uint32_t, int> Depth;
  for (const Event &E : Evts) {
    if (E.Phase == 'B')
      ++Depth[E.Tid];
    else if (E.Phase == 'E') {
      EXPECT_GE(--Depth[E.Tid], 0);
    }
  }
  for (const auto &[Tid, D] : Depth)
    EXPECT_EQ(D, 0) << "unbalanced spans on tid " << Tid;
}

//===----------------------------------------------------------------------===//
// Chrome-trace export validity
//===----------------------------------------------------------------------===//

TEST(Trace, ChromeTraceIsValidJsonWithBalancedSpans) {
  TraceSession TS;
  refinedc::VerifyOptions Opts;
  Opts.Trace = &TS;
  Opts.Jobs = 2;
  Opts.Recheck = true; // proof-checker spans must show up too
  refinedc::ProgramResult PR =
      verifyTraced(FourFns, {"swap", "max_sz", "ident", "keep"}, Opts);
  EXPECT_TRUE(PR.allVerified());
  ASSERT_GT(TS.numEvents(), 0u);

  std::string Json = renderChromeTrace(TS);
  JsonParser P(Json);
  EXPECT_TRUE(P.parse()) << "Chrome trace is not valid JSON (offset " << P.I
                         << ")\n"
                         << Json.substr(P.I > 40 ? P.I - 40 : 0, 80);
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"displayTimeUnit\""), std::string::npos);

  // B/E balance per thread track, via the session's own event stream (the
  // export writes events in exactly this order).
  std::map<uint32_t, std::vector<std::string>> Stack;
  for (const Event &E : TS.events()) {
    if (E.Phase == 'B') {
      Stack[E.Tid].push_back(E.Name);
    } else if (E.Phase == 'E') {
      ASSERT_FALSE(Stack[E.Tid].empty()) << "E without B: " << E.Name;
      Stack[E.Tid].pop_back();
    }
  }
  for (const auto &[Tid, St] : Stack)
    EXPECT_TRUE(St.empty()) << "unclosed span on tid " << Tid << ": "
                            << (St.empty() ? "" : St.back());

  // The categories the acceptance criterion names must all be present.
  std::set<std::string> Cats;
  for (const Event &E : TS.events())
    Cats.insert(categoryName(E.Cat));
  for (const char *C : {"engine", "checker", "proofcheck", "pool"})
    EXPECT_TRUE(Cats.count(C)) << "missing category " << C;
}

//===----------------------------------------------------------------------===//
// Disabled tracing: zero events, zero allocations
//===----------------------------------------------------------------------===//

TEST(Trace, DisabledSessionRecordsNothing) {
  TraceSession TS; // never installed
  {
    Span S(Category::Engine, "ghost");
    count("ghost.counter");
  }
  EXPECT_EQ(TS.numEvents(), 0u);
  EXPECT_TRUE(TS.metrics().counters().empty());
  EXPECT_EQ(current(), nullptr);
}

TEST(Trace, DisabledInstrumentationDoesNotAllocate) {
  ASSERT_EQ(current(), nullptr);
  // Warm up any lazy one-time costs outside the measured window.
  {
    Span W(Category::Engine, "warmup");
    count("warmup");
  }
  uint64_t Before = GAllocs.load(std::memory_order_relaxed);
  for (int I = 0; I < 1000; ++I) {
    Span S(Category::Rule, "hot-path-span");
    Span T(Category::Solver, std::string("solver.prove"));
    count("solver.calls");
    Counter *C = counterOrNull("engine.rule_apps");
    if (C)
      C->add(1);
  }
  uint64_t After = GAllocs.load(std::memory_order_relaxed);
  EXPECT_EQ(After - Before, 0u)
      << "disabled tracing allocated " << (After - Before) << " times";
}

//===----------------------------------------------------------------------===//
// Deterministic mode: byte-identical across job counts
//===----------------------------------------------------------------------===//

TEST(Trace, DeterministicExportIdenticalAcrossJobs) {
  std::string Traces[2], Metrics[2], Profiles[2];
  for (int Run = 0; Run < 2; ++Run) {
    TraceSession TS(/*Deterministic=*/true);
    refinedc::VerifyOptions Opts;
    Opts.Trace = &TS;
    Opts.Jobs = Run == 0 ? 1 : 4;
    refinedc::ProgramResult PR =
        verifyTraced(FourFns, {"swap", "max_sz", "ident", "keep"}, Opts);
    EXPECT_TRUE(PR.allVerified());
    Traces[Run] = renderChromeTrace(TS);
    Metrics[Run] = TS.metrics().toJson(/*Deterministic=*/true);
    Profiles[Run] = renderProfile(TS);
  }
  EXPECT_EQ(Traces[0], Traces[1]) << "trace differs between Jobs=1 and 4";
  EXPECT_EQ(Metrics[0], Metrics[1]);
  EXPECT_EQ(Profiles[0], Profiles[1]);
  // And the deterministic export is itself valid JSON.
  JsonParser P(Traces[0]);
  EXPECT_TRUE(P.parse());
}

TEST(Trace, DeterministicExportOfALargeBatchIdenticalAcrossThreads) {
  // Items past the 4,094th take the escape form of a lane. Two items that
  // shared a lane would have their events ordered by the threads that ran
  // them, so the export would follow the schedule.
  constexpr size_t N = 5000;
  std::string Traces[2];
  for (int Run = 0; Run < 2; ++Run) {
    TraceSession TS(/*Deterministic=*/true);
    SessionScope Scope(&TS);
    ThreadPool Pool(Run == 0 ? 1 : 4);
    std::atomic<uint64_t> Sink{0};
    Pool.parallelFor(N, [&](size_t I) {
      // Some work per item, so that every pool thread takes items.
      uint64_t X = I;
      for (int K = 0; K < 2000; ++K)
        X = X * 6364136223846793005u + 1442695040888963407u;
      Sink.fetch_add(X, std::memory_order_relaxed);
      TS.instant(Category::Other, "item");
    });
    Traces[Run] = renderChromeTrace(TS);
  }
  EXPECT_EQ(Traces[0], Traces[1]) << "trace differs between 1 and 4 threads";
}

TEST(Trace, TimedExportsCarryTimestampsButDeterministicDoesNot) {
  TraceSession Timed(/*Deterministic=*/false);
  {
    SessionScope Scope(&Timed);
    Span S(Category::Checker, "work");
  }
  EXPECT_FALSE(Timed.deterministic());
  std::vector<Event> Evts = Timed.events();
  ASSERT_EQ(Evts.size(), 2u);
  EXPECT_GE(Evts[1].TimeUs, Evts[0].TimeUs);

  // Deterministic render replaces timestamps with ordinals 0,1,...
  TraceSession Det(/*Deterministic=*/true);
  {
    SessionScope Scope(&Det);
    Span S(Category::Checker, "work");
  }
  std::string Json = renderChromeTrace(Det);
  EXPECT_NE(Json.find("\"ts\": 0"), std::string::npos);
  EXPECT_NE(Json.find("\"ts\": 1"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Capped per-thread buffers (ring truncation)
//===----------------------------------------------------------------------===//

TEST(Trace, EventCapTruncatesRingStyleAndCountsDrops) {
  TraceSession TS(/*Deterministic=*/false, /*EventCap=*/10);
  {
    SessionScope Scope(&TS);
    for (unsigned I = 0; I < 100; ++I)
      TS.instant(Category::Other, "e" + std::to_string(I));
  }
  EXPECT_EQ(TS.eventCap(), 10u);
  EXPECT_EQ(TS.numEvents(), 10u);
  EXPECT_EQ(TS.droppedEvents(), 90u);
  EXPECT_EQ(TS.metrics().counter("trace.dropped_events").get(), 90u);

  // Survivors are the most recent events, in recording order.
  std::vector<Event> Evts = TS.events();
  ASSERT_EQ(Evts.size(), 10u);
  for (unsigned I = 0; I < 10; ++I) {
    EXPECT_EQ(Evts[I].Name, "e" + std::to_string(90 + I));
    EXPECT_EQ(Evts[I].Seq, 90 + I);
  }
}

TEST(Trace, EventCapIsPerThreadAndUncappedByDefault) {
  TraceSession Unbounded;
  {
    SessionScope Scope(&Unbounded);
    for (unsigned I = 0; I < 1000; ++I)
      Unbounded.instant(Category::Other, "e");
  }
  EXPECT_EQ(Unbounded.eventCap(), 0u);
  EXPECT_EQ(Unbounded.numEvents(), 1000u);
  EXPECT_EQ(Unbounded.droppedEvents(), 0u);
  // No drops: the counter was never created.
  EXPECT_TRUE(Unbounded.metrics().counters().empty());

  TraceSession TS(/*Deterministic=*/false, /*EventCap=*/8);
  constexpr unsigned NThreads = 4;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NThreads; ++T)
    Threads.emplace_back([&TS] {
      SessionScope Scope(&TS);
      for (unsigned I = 0; I < 50; ++I)
        TS.instant(Category::Other, "e");
    });
  for (std::thread &T : Threads)
    T.join();
  // Each thread's buffer is capped independently.
  EXPECT_EQ(TS.numEvents(), NThreads * 8u);
  EXPECT_EQ(TS.droppedEvents(), NThreads * (50u - 8u));
}

TEST(Trace, CappedVerificationRunStillReportsMetrics) {
  // VerifyOptions::TraceEventCap reaches the internal session: the trace is
  // truncated but the metrics (never buffered) are complete.
  refinedc::VerifyOptions Opts;
  Opts.Profile = true;
  Opts.DeterministicTrace = true;
  Opts.TraceEventCap = 4;
  refinedc::ProgramResult PR =
      verifyTraced(FourFns, {"swap", "max_sz", "ident", "keep"}, Opts);
  EXPECT_TRUE(PR.allVerified());
  EXPECT_NE(PR.Metrics.find("trace.dropped_events"), std::string::npos);
  EXPECT_NE(PR.Metrics.find("engine.rule_apps"), std::string::npos);
}
