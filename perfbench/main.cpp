//===- main.cpp - The repository benchmark's driver binary ----------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload of the repository benchmark and prints, on standard
/// output, a metadata line and then the result line:
///
///   {"meta": {"version": ..., "git_commit": ..., "build_type": ...}}
///   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
///
/// perfbench/run.py builds this binary and is the command to use:
///
///   python3 perfbench/run.py --workload fig7 --seed 1 --seconds 10 --trace 0
///
/// A build that is not optimised, or is built with a sanitizer, is refused:
/// its numbers must never pass for a baseline.
///
//===----------------------------------------------------------------------===//

#include "Ledger.h"
#include "Workloads.h"

#include "support/Options.h"
#include "support/Util.h"

#include <algorithm>
#include <cstdio>
#include <thread>

using namespace perfbench;

namespace {

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

} // namespace

int main(int Argc, char **Argv) {
  Config C;
  unsigned Seconds = 10, Trace = 0;
  uint64_t Seed = 1;
  std::string Commit = "unknown", SrcDigest = "unknown";
  rcc::opts::OptionParser P("perfbench", "");
  P.strOpt("workload", C.Workload, "fig7 | mono_cold | mono_edit")
      .u64Opt("seed", Seed, "seed of the generated inputs")
      .unsignedOpt("seconds", Seconds, "how long to measure", 1, 3600)
      .unsignedOpt("trace", Trace, "1: report the per-layer ledger", 0, 1)
      .strOpt("tmp", C.TmpDir, "directory for the run's stores")
      .strOpt("commit", Commit, "source revision, for the metadata")
      .strOpt("src-digest", SrcDigest, "digest of src/, for the metadata");
  std::vector<std::string> Positional;
  if (P.parse(Argc, Argv, Positional) != rcc::opts::ParseResult::Ok ||
      !Positional.empty() || !knownWorkload(C.Workload) || C.TmpDir.empty()) {
    fprintf(stderr, "perfbench: bad arguments (%s)\n%s\n", P.error().c_str(),
            P.usage().c_str());
    return 2;
  }
  if (!kOptimized || kSanitized) {
    fprintf(stderr,
            "perfbench: refusing to measure a %s build (build type %s); "
            "configure with -DCMAKE_BUILD_TYPE=RelWithDebInfo or Release\n",
            kSanitized ? "sanitized" : "non-optimised", PERFBENCH_BUILD_TYPE);
    return 3;
  }
  C.Seed = Seed;
  C.Seconds = Seconds;
  C.Trace = Trace == 1;
  const unsigned Nproc = std::max(1u, std::thread::hardware_concurrency());
  C.Jobs = std::min(4u, Nproc);

  printf("{\"meta\": {\"version\": %s, \"git_commit\": %s, "
         "\"src_digest\": %s, \"build_type\": %s, \"optimized\": true, "
         "\"sanitized\": false, \"nproc\": %u, \"jobs\": %u, "
         "\"workload\": %s, \"seed\": %llu, \"seconds\": %u, \"trace\": %u}}\n",
         jsonString(rcc::versionString()).c_str(), jsonString(Commit).c_str(),
         jsonString(SrcDigest).c_str(),
         jsonString(PERFBENCH_BUILD_TYPE).c_str(), Nproc, C.Jobs,
         jsonString(C.Workload).c_str(), static_cast<unsigned long long>(Seed),
         Seconds, Trace);

  Ledger L;
  try {
    runWorkload(C, L);
  } catch (const std::exception &E) {
    fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
  for (const std::string &Why : L.problems())
    fprintf(stderr, "perfbench: problem: %s\n", Why.c_str());
  if (L.problemCount() > L.problems().size())
    fprintf(stderr, "perfbench: ... %llu problems in all\n",
            static_cast<unsigned long long>(L.problemCount()));
  // The result line carries correctness; a printed result exits 0.
  printf("%s\n", L.resultJson().c_str());
  fflush(stdout);
  return 0;
}
