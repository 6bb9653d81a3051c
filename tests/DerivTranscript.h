//===- DerivTranscript.h - Structural rendering of derivation steps -*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test helper: renders a derivation step from exactly what the proof
/// checker replays (kind | rule | proposition | each hypothesis | manual),
/// so tests can compare derivations byte for byte. The engine itself never
/// renders a step.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_TESTS_DERIVTRANSCRIPT_H
#define RCC_TESTS_DERIVTRANSCRIPT_H

#include "lithium/Engine.h"

#include <string>

inline std::string stepTranscript(const rcc::lithium::DerivStep &S) {
  std::string Out = std::to_string(S.K) + "|" + std::string(S.Rule.name()) +
                    "|" + (S.Prop ? S.Prop->str() : std::string());
  for (rcc::pure::TermRef H : S.Hyps)
    Out += "|" + H->str();
  if (S.Manual)
    Out += "|manual";
  return Out;
}

#endif // RCC_TESTS_DERIVTRANSCRIPT_H
