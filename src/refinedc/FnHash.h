//===- FnHash.h - Content hashing for the verification result cache -*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content hashing for the session result cache: a function's verification
/// outcome is fully determined by (a) its Caesium body (including source
/// locations, which appear in error messages), (b) its own annotations,
/// (c) the specs of the functions and globals it references (verification
/// is modular — callee *bodies* are irrelevant), and (d) the spec
/// environment the annotations are parsed against (struct, typedef, and
/// global annotations — a conservative superset of the named-type closure).
/// Two verification problems with equal hashes are re-verifications of
/// unchanged input and may be served from cache in O(1).
///
//===----------------------------------------------------------------------===//

#ifndef RCC_REFINEDC_FNHASH_H
#define RCC_REFINEDC_FNHASH_H

#include "frontend/Frontend.h"

#include <cstdint>
#include <string>

namespace rcc::refinedc {

/// Fingerprint of the whole spec environment: every struct, typedef, and
/// global annotation (the conservative named-type-closure component shared
/// by all functions of one session).
uint64_t hashSpecEnvironment(const front::AnnotatedProgram &AP);

/// Content hash of one function's verification problem: its body, its own
/// annotations (spec + loop invariants), and the annotations of every
/// function/global its body references. \p EnvFingerprint and
/// \p SessionFingerprint (rule registry / solver configuration) are folded
/// in by the caller's session. Never returns 0.
uint64_t hashFunctionContent(const front::AnnotatedProgram &AP,
                             const std::string &Name, uint64_t EnvFingerprint,
                             uint64_t SessionFingerprint);

/// The same key for a function already looked up: \p FI and \p Fn are
/// what AP.Fns and AP.Prog hold under \p Name (null when they hold none).
uint64_t hashFunctionContent(const front::AnnotatedProgram &AP,
                             const std::string &Name,
                             const front::FnInfo *FI,
                             const caesium::Function *Fn,
                             uint64_t EnvFingerprint,
                             uint64_t SessionFingerprint);

} // namespace rcc::refinedc

#endif // RCC_REFINEDC_FNHASH_H
