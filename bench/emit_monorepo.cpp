//===- emit_monorepo.cpp - Write the synthetic monorepo to a file --------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `emit_monorepo --functions=N --emit=FILE` writes the deterministic
/// N-function annotated monorepo (src/fleet/Monorepo.h; default 2,000
/// functions) to FILE, for driving `verify_tool`, `verifyd` or the LSP
/// server by hand on a large unit. perfbench's monorepo workloads build
/// their units from the same generator.
///
//===----------------------------------------------------------------------===//

#include "fleet/Monorepo.h"
#include "support/Options.h"
#include "support/Util.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace rcc;

int main(int argc, char **argv) {
  unsigned Functions = 2000;
  std::string Emit;
  opts::OptionParser P("emit_monorepo", "");
  P.unsignedOpt("functions", Functions,
                "monorepo size in functions (default 2000)", 1, 100000)
      .strOpt("emit", Emit, "write the generated source to FILE")
      .version();
  std::vector<std::string> Pos;
  switch (P.parse(argc, argv, Pos)) {
  case opts::ParseResult::Ok:
    break;
  case opts::ParseResult::Version:
    printf("%s\n", versionString());
    return 0;
  case opts::ParseResult::Error:
    fprintf(stderr, "emit_monorepo: bad argument '%s'\n%s\n",
            P.error().c_str(), P.usage().c_str());
    return 2;
  }
  if (Emit.empty()) {
    fprintf(stderr, "%s\n", P.usage().c_str());
    return 2;
  }

  std::ofstream Out(Emit);
  Out << fleet::monorepoSource(Functions);
  if (!Out.flush()) {
    fprintf(stderr, "emit_monorepo: cannot write '%s'\n", Emit.c_str());
    return 1;
  }
  printf("[artifact] wrote %s (%u functions)\n", Emit.c_str(), Functions);
  return 0;
}
