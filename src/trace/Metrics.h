//===- Metrics.h - Counters, gauges, and the metrics registry --*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics half of the observability subsystem (see DESIGN.md,
/// "Observability"): monotonic `Counter`s and last-value/`max` `Gauge`s,
/// owned by a `MetricsRegistry`. All mutation is lock-free (relaxed
/// atomics), so instrumented hot paths under the parallel verification
/// driver never contend; only name lookup takes the registry mutex, and hot
/// call sites cache the returned `Counter *` (counter addresses are stable
/// for the registry's lifetime).
///
/// Determinism contract: counters incremented from verification jobs are
/// per-function sums of deterministic work, so their totals are independent
/// of the job count and schedule. Durations are `Duration`s registered under
/// a `_us` name; deterministic exports (Export.h) zero them.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_TRACE_METRICS_H
#define RCC_TRACE_METRICS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace rcc::trace {

/// A monotonically increasing counter. Thread-safe; relaxed ordering is
/// sufficient because counters are only read after the work that bumps them
/// has been joined (parallelFor barriers before any export).
class Counter {
public:
  void add(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t get() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// A duration summed in nanoseconds. Snapshots report it in microseconds,
/// converted once from the sum, so no call's sub-microsecond remainder is
/// lost.
class Duration {
public:
  void add(std::chrono::nanoseconds D) {
    Ns.fetch_add(static_cast<uint64_t>(D.count()), std::memory_order_relaxed);
  }
  uint64_t micros() const { return Ns.load(std::memory_order_relaxed) / 1000; }

private:
  std::atomic<uint64_t> Ns{0};
};

/// A last-value gauge with a lock-free `takeMax` for high-water marks.
class Gauge {
public:
  void set(int64_t N) { V.store(N, std::memory_order_relaxed); }
  void takeMax(int64_t N) {
    int64_t Cur = V.load(std::memory_order_relaxed);
    while (Cur < N &&
           !V.compare_exchange_weak(Cur, N, std::memory_order_relaxed)) {
    }
  }
  int64_t get() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

/// Named counters and gauges. Lookup is mutex-guarded; the returned
/// references remain valid (and lock-free to mutate) for the registry's
/// lifetime, so callers on hot paths resolve once and cache the pointer.
class MetricsRegistry {
public:
  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  /// A duration; \p Name ends in `_us`, the unit snapshots report.
  Duration &duration(const std::string &Name);

  /// Sorted snapshots (std::map iteration order), the basis of every
  /// deterministic export. Durations appear among the counters, in
  /// microseconds.
  std::map<std::string, uint64_t> counters() const;
  std::map<std::string, int64_t> gauges() const;

  /// Renders both snapshots as a JSON object. With \p Deterministic,
  /// durations (`_us` suffix), the only schedule-dependent counters, are
  /// reported as 0 so the output is byte-identical across runs and job
  /// counts.
  std::string toJson(bool Deterministic = false) const;

  /// True if \p Name is a duration (the `_us` suffix convention) and must
  /// be zeroed in deterministic exports.
  static bool isDuration(const std::string &Name);

private:
  mutable std::mutex M;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Duration>> Durations;
};

} // namespace rcc::trace

#endif // RCC_TRACE_METRICS_H
