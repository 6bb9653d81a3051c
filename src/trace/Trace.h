//===- Trace.h - Structured tracing for the verification pipeline -*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing half of the observability subsystem (DESIGN.md,
/// "Observability"). A `TraceSession` collects begin/end span events into
/// per-thread buffers (no cross-thread contention on the record path) and
/// owns a `MetricsRegistry`. Instrumentation sites never hold a session
/// pointer: they consult the thread-local *current* session (`current()`),
/// installed by a `SessionScope`, so a disabled run costs one thread-local
/// load and a branch per site — no locks, no allocations, no timestamps.
///
/// Event ordering has two faces:
///  - *Timed* (default): events carry microsecond timestamps relative to the
///    session start and a per-thread id; the Chrome exporter emits them on
///    real thread tracks.
///  - *Deterministic*: every event also carries a stable *lane* — a logical
///    track derived from parallel-for indices (`LaneScope`), independent of
///    scheduling — and a per-buffer sequence number. Because one lane is
///    only ever worked by one thread at a time, sorting by (lane, seq)
///    yields a schedule-independent total order; deterministic exports use
///    it and replace timestamps with ordinals, so the artifact is
///    byte-identical across job counts (the PR-1 determinism guarantee,
///    extended to traces).
///
//===----------------------------------------------------------------------===//

#ifndef RCC_TRACE_TRACE_H
#define RCC_TRACE_TRACE_H

#include "trace/Metrics.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace rcc::trace {

/// Event categories, one per instrumented pipeline layer (Figure 2).
enum class Category : uint8_t {
  Frontend,   ///< lexing / parsing / lowering
  Checker,    ///< per-function drive, cut points, spec environment
  Engine,     ///< Lithium goal steps
  Rule,       ///< individual typing-rule applications
  Solver,     ///< pure side-condition solving
  ProofCheck, ///< independent derivation replay
  Pool,       ///< thread-pool batches and jobs
  Cache,      ///< session result cache
  Other,
};

const char *categoryName(Category C);

/// One begin/end/instant event. `Args` is a pre-rendered JSON object body
/// (without the surrounding braces), built only when a session is active.
struct Event {
  std::string Name;
  std::string Args;
  double TimeUs = 0.0; ///< relative to session start
  uint64_t Lane = 0;   ///< stable logical track (see file comment)
  uint64_t Seq = 0;    ///< per-thread-buffer sequence number
  uint32_t Tid = 0;    ///< thread index in session registration order
  Category Cat = Category::Other;
  char Phase = 'B'; ///< 'B' begin, 'E' end, 'i' instant
};

/// A tracing session: thread-safe event sink + metrics registry. Create one
/// per observed run, install it with `SessionScope`, and export with the
/// functions in Export.h once all recording threads have joined.
///
/// \p EventCap bounds each per-thread buffer: once a buffer holds EventCap
/// events, new events overwrite the oldest ones ring-buffer style (sequence
/// numbers keep advancing, so the merged snapshot stays ordered), and every
/// overwritten event bumps the `trace.dropped_events` metrics counter.
/// 0 = unbounded (the default). Note the cap is per thread, so which events
/// survive a capped multi-threaded run depends on scheduling; metrics are
/// unaffected (they are never buffered).
class TraceSession {
public:
  explicit TraceSession(bool Deterministic = false, size_t EventCap = 0);
  ~TraceSession();
  TraceSession(const TraceSession &) = delete;
  TraceSession &operator=(const TraceSession &) = delete;

  MetricsRegistry &metrics() { return Metrics; }
  const MetricsRegistry &metrics() const { return Metrics; }

  /// Whether exports must be byte-identical across schedules/job counts.
  bool deterministic() const { return Deterministic; }

  /// Record-path entry points (used via Span; callable directly).
  void begin(Category Cat, const std::string &Name, std::string Args = {});
  void end(Category Cat, const std::string &Name);
  void instant(Category Cat, const std::string &Name, std::string Args = {});

  /// Merged snapshot of all per-thread buffers, in (Tid, Seq) order. Safe
  /// to call concurrently with recording, but meant for after the run.
  std::vector<Event> events() const;
  size_t numEvents() const;

  /// The per-thread buffer cap this session was created with (0 =
  /// unbounded).
  size_t eventCap() const { return EventCap; }
  /// Events overwritten by ring truncation so far (also mirrored into the
  /// `trace.dropped_events` metrics counter).
  uint64_t droppedEvents() const {
    return Dropped.load(std::memory_order_relaxed);
  }

  double elapsedUs() const;

private:
  friend class LaneScope;
  struct ThreadBuf {
    std::vector<Event> Events;
    uint64_t Seq = 0;
    uint64_t Lane = 0;
    uint32_t Tid = 0;
  };
  /// The calling thread's buffer, registering it on first use.
  ThreadBuf &buf();
  void record(Category Cat, char Phase, const std::string &Name,
              std::string Args);

  mutable std::mutex M;
  std::vector<std::unique_ptr<ThreadBuf>> Bufs; ///< guarded by M; contents
                                                ///< owned by their thread
  MetricsRegistry Metrics;
  std::chrono::steady_clock::time_point Start;
  /// Globally unique session id; keys the thread-local buffer cache so a
  /// session reallocated at a dead session's address cannot revive a stale
  /// cache entry (pool worker threads outlive sessions).
  uint64_t Id;
  bool Deterministic;
  size_t EventCap;
  std::atomic<uint64_t> Dropped{0};
};

/// The session installed on this thread (nullptr: tracing disabled — the
/// common case; every instrumentation site fast-exits on it).
TraceSession *current();

/// RAII: installs \p S as the current session on this thread (restoring the
/// previous one on destruction). Null-safe: SessionScope(nullptr) is a
/// no-op, which lets callers install unconditionally.
class SessionScope {
public:
  explicit SessionScope(TraceSession *S);
  ~SessionScope();
  SessionScope(const SessionScope &) = delete;
  SessionScope &operator=(const SessionScope &) = delete;

private:
  TraceSession *Prev;
  bool Installed;
};

/// RAII: sets the stable lane recorded on this thread's events. The thread
/// pool derives lanes from parallel-for indices; everything inside the loop
/// body inherits the lane automatically.
///
/// A lane is a string of base-4096 digits, one group per nesting level
/// under the root lane 0. Item I of a batch appends the digit I + 1 when
/// I < 4094, and otherwise the escape digit 4095 followed by two digits
/// holding I - 4094. A reserved lane is a root digit K followed by the
/// digit 0, which no item group starts with. So a lane splits into groups
/// in one way only: distinct (parent, index) pairs get distinct lanes, and
/// every item of a batch of up to 4094 + 2^24 items has a lane of its own.
class LaneScope {
public:
  explicit LaneScope(uint64_t Lane);
  ~LaneScope();
  LaneScope(const LaneScope &) = delete;
  LaneScope &operator=(const LaneScope &) = delete;

  /// The lane currently set on this thread (0 = the driver lane).
  static uint64_t currentLane();

  /// The lane for item \p Index nested under \p Parent (schedule-independent
  /// by construction; see the class comment).
  static uint64_t derive(uint64_t Parent, size_t Index) {
    constexpr size_t kOneDigit = 4094;
    if (Index < kOneDigit)
      return Parent * 4096 + Index + 1;
    return ((Parent * 4096 + 4095) << 24) | ((Index - kOneDigit) & 0xffffff);
  }

  /// The \p K-th (1 <= K < 4095) lane that derive() never returns, for a
  /// batch that runs on the root lane ahead of the derived ones: its jobs'
  /// lanes (derived from it) are disjoint from every other derived lane.
  static uint64_t reserved(unsigned K) { return uint64_t{K} * 4096; }

private:
  uint64_t Prev;
};

/// RAII span: one 'B' event at construction, one 'E' at destruction. Inert
/// (no work at all) when no session is current. The `const char *`
/// constructor is the zero-allocation fast path for static names.
class Span {
public:
  Span(Category Cat, const char *Name) : S(current()), C(Cat) {
    if (S) {
      N = Name;
      S->begin(C, N);
    }
  }
  Span(Category Cat, const std::string &Name, std::string Args = {})
      : S(current()), C(Cat) {
    if (S) {
      N = Name;
      S->begin(C, N, std::move(Args));
    }
  }
  ~Span() {
    if (S)
      S->end(C, N);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  TraceSession *S;
  Category C;
  std::string N;
};

/// Bumps a named counter on the current session, if any. For hot paths that
/// cannot cache a `Counter *` (static entry points like the linear solver).
inline void count(const char *Name, uint64_t N = 1) {
  if (TraceSession *S = current())
    S->metrics().counter(Name).add(N);
}

/// Resolves a counter on the current session (nullptr when disabled), for
/// call sites that can cache the pointer across a run.
inline Counter *counterOrNull(const char *Name) {
  TraceSession *S = current();
  return S ? &S->metrics().counter(Name) : nullptr;
}

} // namespace rcc::trace

#endif // RCC_TRACE_TRACE_H
