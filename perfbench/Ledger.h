//===- Ledger.h - Metrics, verdict counts and the result line ---*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bookkeeping of one benchmark run: summaries of timing samples, the named
/// metrics the run reports, the correctness outcome (attempted verdicts,
/// failed verdicts, failed self-checks), and the one-line JSON result the
/// run ends with.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LEDGER_H
#define PERFBENCH_LEDGER_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds since \p T0 on the steady clock.
inline double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// Median of \p V (0 when empty).
double median(std::vector<double> V);
/// Nearest-rank quantile of \p V for \p Q in (0, 1] (0 when empty).
double quantile(std::vector<double> V, double Q);

/// What a run reports: metrics by name with their units, plus the
/// correctness outcome.
class Ledger {
public:
  void metric(const std::string &Name, const std::string &Unit, double Value);

  /// Counts \p N verdicts as attempted.
  void attempt(uint64_t N) { Attempted += N; }
  /// Counts one attempted verdict as failed, with a reason (reasons are
  /// printed, the first few in full).
  void failure(const std::string &Why);
  /// A self-check of the ledger failed: the run is not correct, although
  /// no verdict was wrong.
  void checkFailed(const std::string &Why);

  bool correct() const { return ProblemCount == 0; }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

  /// Human-readable lines for the first problems seen (failures and checks).
  const std::vector<std::string> &problems() const { return Problems; }
  uint64_t problemCount() const { return ProblemCount; }

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string resultJson() const;

private:
  struct Metric {
    std::string Name;
    std::string Unit;
    double Value;
  };
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Problems; ///< the first kMaxProblems
  uint64_t ProblemCount = 0;
  static constexpr size_t kMaxProblems = 20;
};

/// Renders \p V as a JSON number with all its significant digits.
std::string jsonNumber(double V);
/// Renders \p S as a JSON string literal.
std::string jsonString(const std::string &S);

} // namespace perfbench

#endif // PERFBENCH_LEDGER_H
