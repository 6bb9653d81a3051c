//===- Monorepo.h - Synthetic annotated-monorepo generator -----*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic generator of large annotated C programs: the monorepo
/// that perfbench's mono_cold and mono_edit workloads verify, that the
/// large-unit tests compile, and that bench/emit_monorepo writes to a
/// file. Every generated function carries a full rc:: spec and verifies;
/// bodies are varied (constant offsets, chained additions, bounded
/// subtraction) so proof-search cost is non-trivial and content hashes are
/// all distinct. The output depends only on the arguments, so two
/// processes generating the same monorepo agree byte-for-byte.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_FLEET_MONOREPO_H
#define RCC_FLEET_MONOREPO_H

#include <string>

namespace rcc::fleet {

/// Generates an annotated C translation unit with \p Functions verifying
/// functions named fn_0000000, fn_0000001, ... When \p FailEvery is
/// nonzero, every FailEvery-th function gets a spec its body does not meet
/// (for failure-path tests); 0 = everything verifies.
std::string monorepoSource(unsigned Functions, unsigned FailEvery = 0);

/// The generated name of function \p I (zero-padded, stable).
std::string monorepoFnName(unsigned I);

} // namespace rcc::fleet

#endif // RCC_FLEET_MONOREPO_H
