//===- Trace.cpp ----------------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"

#include <algorithm>
#include <atomic>

using namespace rcc::trace;

const char *rcc::trace::categoryName(Category C) {
  switch (C) {
  case Category::Frontend:
    return "frontend";
  case Category::Checker:
    return "checker";
  case Category::Engine:
    return "engine";
  case Category::Rule:
    return "rule";
  case Category::Solver:
    return "solver";
  case Category::ProofCheck:
    return "proofcheck";
  case Category::Pool:
    return "pool";
  case Category::Cache:
    return "cache";
  case Category::Other:
    return "other";
  }
  return "other";
}

namespace {
thread_local TraceSession *CurrentSession = nullptr;
thread_local uint64_t CurrentLaneTL = 0;
/// Per-thread buffer cache, keyed on the owning session's unique id (not
/// just its address) so it can never resolve to a buffer of a dead session.
thread_local uint64_t CachedOwnerId = 0;
thread_local void *CachedBuf = nullptr;

std::atomic<uint64_t> NextSessionId{1};
} // namespace

//===----------------------------------------------------------------------===//
// TraceSession
//===----------------------------------------------------------------------===//

TraceSession::TraceSession(bool Deterministic, size_t EventCap)
    : Start(std::chrono::steady_clock::now()),
      Id(NextSessionId.fetch_add(1, std::memory_order_relaxed)),
      Deterministic(Deterministic), EventCap(EventCap) {}

TraceSession::~TraceSession() = default;

TraceSession::ThreadBuf &TraceSession::buf() {
  if (CachedOwnerId == Id && CachedBuf)
    return *static_cast<ThreadBuf *>(CachedBuf);
  std::lock_guard<std::mutex> G(M);
  Bufs.push_back(std::make_unique<ThreadBuf>());
  ThreadBuf &B = *Bufs.back();
  B.Tid = static_cast<uint32_t>(Bufs.size() - 1);
  CachedOwnerId = Id;
  CachedBuf = &B;
  return B;
}

double TraceSession::elapsedUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

void TraceSession::record(Category Cat, char Phase, const std::string &Name,
                          std::string Args) {
  ThreadBuf &B = buf();
  Event E;
  E.Name = Name;
  E.Args = std::move(Args);
  E.TimeUs = elapsedUs();
  E.Lane = CurrentLaneTL;
  E.Seq = B.Seq++;
  E.Tid = B.Tid;
  E.Cat = Cat;
  E.Phase = Phase;
  if (EventCap && B.Events.size() >= EventCap) {
    // Ring truncation: slot Seq % EventCap holds this buffer's oldest
    // surviving event (its Seq is exactly EventCap behind). Sequence
    // numbers keep advancing, so the (Tid, Seq) sort in events() restores
    // recording order over the survivors.
    B.Events[E.Seq % EventCap] = std::move(E);
    Dropped.fetch_add(1, std::memory_order_relaxed);
    Metrics.counter("trace.dropped_events").add(1);
  } else {
    B.Events.push_back(std::move(E));
  }
}

void TraceSession::begin(Category Cat, const std::string &Name,
                         std::string Args) {
  record(Cat, 'B', Name, std::move(Args));
}

void TraceSession::end(Category Cat, const std::string &Name) {
  record(Cat, 'E', Name, {});
}

void TraceSession::instant(Category Cat, const std::string &Name,
                           std::string Args) {
  record(Cat, 'i', Name, std::move(Args));
}

std::vector<Event> TraceSession::events() const {
  std::lock_guard<std::mutex> G(M);
  std::vector<Event> Out;
  for (const auto &B : Bufs)
    Out.insert(Out.end(), B->Events.begin(), B->Events.end());
  std::stable_sort(Out.begin(), Out.end(), [](const Event &A, const Event &B) {
    return A.Tid != B.Tid ? A.Tid < B.Tid : A.Seq < B.Seq;
  });
  return Out;
}

size_t TraceSession::numEvents() const {
  std::lock_guard<std::mutex> G(M);
  size_t N = 0;
  for (const auto &B : Bufs)
    N += B->Events.size();
  return N;
}

//===----------------------------------------------------------------------===//
// Thread-local scopes
//===----------------------------------------------------------------------===//

TraceSession *rcc::trace::current() { return CurrentSession; }

SessionScope::SessionScope(TraceSession *S)
    : Prev(CurrentSession), Installed(S != nullptr) {
  if (Installed)
    CurrentSession = S;
}

SessionScope::~SessionScope() {
  if (Installed)
    CurrentSession = Prev;
}

LaneScope::LaneScope(uint64_t Lane) : Prev(CurrentLaneTL) {
  CurrentLaneTL = Lane;
}

LaneScope::~LaneScope() { CurrentLaneTL = Prev; }

uint64_t LaneScope::currentLane() { return CurrentLaneTL; }
