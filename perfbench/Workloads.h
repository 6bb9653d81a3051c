//===- Workloads.h - The benchmark's workloads ------------------*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads of the repository benchmark. Each is a closed loop in
/// one process: a pass starts when the previous one has finished. A pass
/// goes from the source text in memory to every verdict through the public
/// API (`front::compileSource`, `Checker::buildEnv`,
/// `Checker::verifyFunctions`) with the user-default options: `Recheck` on
/// and the solver portfolio `on`.
///
///  - `fig7`: the twelve Figure-7 case studies at one job.
///  - `mono_cold`: the seeded 5,000-function monorepo with no store.
///  - `mono_edit`: the same monorepo after a seeded edit, in a fresh session
///    whose persistent store (L2) was populated before.
///
/// An untraced run reports the end-to-end metrics. A traced run calls each
/// layer's public functions itself, times them, and reports the per-layer
/// ledger (see perfbench/layers.json for which end-to-end metric each layer
/// metric should move, and on which workload).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Ledger.h"

#include <cstdint>
#include <string>

namespace perfbench {

struct Config {
  std::string Workload; ///< fig7 | mono_cold | mono_edit
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// A directory the run may fill; it holds the persistent stores of the
  /// run, and everything the run puts there is removed before it returns.
  std::string TmpDir;
  unsigned Jobs = 4; ///< jobs of the monorepo workloads
};

/// True if \p Name is one of the workloads above.
bool knownWorkload(const std::string &Name);

/// Runs one workload and records its metrics and verdicts in \p L. Throws
/// std::runtime_error when the workload cannot be set up.
void runWorkload(const Config &C, Ledger &L);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
