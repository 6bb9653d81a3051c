//===- Result.cpp - FnResult / ProgramResult rendering --------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "refinedc/Result.h"

#include "support/Util.h"

#include <cstdio>
#include <sstream>

using namespace rcc;
using namespace rcc::refinedc;

//===----------------------------------------------------------------------===//
// FnResult rendering (the Section 2.1 error-message format)
//===----------------------------------------------------------------------===//

std::string FnResult::renderError(const std::string &Source) const {
  std::ostringstream OS;
  OS << "Verification of `" << Name << "` failed!\n";
  OS << "---------------------------------------\n";
  OS << Error << "\n";
  if (ErrorLoc.isValid()) {
    OS << "Location: [" << ErrorLoc.Line << ":" << ErrorLoc.Col << "]\n";
    // Echo the offending source line.
    std::vector<std::string> Lines = splitString(Source, '\n');
    if (ErrorLoc.Line >= 1 && ErrorLoc.Line <= Lines.size())
      OS << "  | " << Lines[ErrorLoc.Line - 1] << "\n";
  }
  if (!ErrorContext.empty()) {
    OS << "Up-to-date context:\n";
    for (const std::string &C : ErrorContext)
      OS << "  " << C << "\n";
  }
  return OS.str();
}

//===----------------------------------------------------------------------===//
// JSON rendering (verify_tool --format=json)
//===----------------------------------------------------------------------===//

static void jsonEscape(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

std::string ProgramResult::toStableJson() const {
  std::string S;
  char Buf[64];
  S += "{\n";
  S += std::string("  \"all_verified\": ") +
       (allVerified() ? "true" : "false") + ",\n";
  S += "  \"functions\": [";
  for (size_t I = 0; I < Fns.size(); ++I) {
    const FnResult &R = Fns[I];
    S += I ? ",\n    {" : "\n    {";
    S += "\"name\": ";
    jsonEscape(S, R.Name);
    S += std::string(", \"verified\": ") + (R.Verified ? "true" : "false");
    S += std::string(", \"trusted\": ") + (R.Trusted ? "true" : "false");
    if (!R.Error.empty()) {
      S += ", \"error\": ";
      jsonEscape(S, R.Error);
      snprintf(Buf, sizeof(Buf), ", \"error_line\": %u, \"error_col\": %u",
               R.ErrorLoc.Line, R.ErrorLoc.Col);
      S += Buf;
    }
    if (!R.Diags.empty()) {
      S += ", \"diagnostics\": [";
      for (size_t D = 0; D < R.Diags.size(); ++D) {
        if (D)
          S += ", ";
        S += R.Diags[D].toJson();
      }
      S += "]";
    }
    snprintf(Buf, sizeof(Buf), ", \"rule_apps\": %u", R.Stats.RuleApps);
    S += Buf;
    snprintf(Buf, sizeof(Buf), ", \"distinct_rules\": %zu",
             R.Stats.RulesUsed.size());
    S += Buf;
    snprintf(Buf, sizeof(Buf), ", \"side_cond_auto\": %u",
             R.Stats.SideCondAuto);
    S += Buf;
    snprintf(Buf, sizeof(Buf), ", \"side_cond_manual\": %u",
             R.Stats.SideCondManual);
    S += Buf;
    snprintf(Buf, sizeof(Buf), ", \"goal_steps\": %u", R.Stats.GoalSteps);
    S += Buf;
    snprintf(Buf, sizeof(Buf), ", \"evars_instantiated\": %u",
             R.EvarsInstantiated);
    S += Buf;
    snprintf(Buf, sizeof(Buf), ", \"deriv_steps\": %zu",
             R.Deriv.Steps.size());
    S += Buf;
    S += "}";
  }
  S += Fns.empty() ? "]" : "\n  ]";
  S += "\n}\n";
  return S;
}

std::string ProgramResult::toJson(const std::string &ExtraJson) const {
  std::string S;
  char Buf[64];
  S += "{\n";
  snprintf(Buf, sizeof(Buf), "  \"jobs\": %u,\n", JobsUsed);
  S += Buf;
  snprintf(Buf, sizeof(Buf), "  \"wall_ms\": %.3f,\n", WallMillis);
  S += Buf;
  snprintf(Buf, sizeof(Buf), "  \"cache_hits\": %u,\n", CacheHits);
  S += Buf;
  snprintf(Buf, sizeof(Buf), "  \"cache_misses\": %u,\n", CacheMisses);
  S += Buf;
  snprintf(Buf, sizeof(Buf), "  \"l1_hits\": %u,\n", L1Hits);
  S += Buf;
  snprintf(Buf, sizeof(Buf), "  \"l2_hits\": %u,\n", L2Hits);
  S += Buf;
  snprintf(Buf, sizeof(Buf), "  \"replayed_hits\": %u,\n", ReplayedHits);
  S += Buf;
  snprintf(Buf, sizeof(Buf), "  \"replay_failures\": %u,\n", ReplayFailures);
  S += Buf;
  snprintf(Buf, sizeof(Buf), "  \"corrupt_drops\": %u,\n", CorruptDrops);
  S += Buf;
  snprintf(Buf, sizeof(Buf), "  \"replay_ms\": %.3f,\n", ReplayMillis);
  S += Buf;
  S += std::string("  \"all_verified\": ") +
       (allVerified() ? "true" : "false") + ",\n";
  S += "  \"functions\": [";
  for (size_t I = 0; I < Fns.size(); ++I) {
    const FnResult &R = Fns[I];
    S += I ? ",\n    {" : "\n    {";
    S += "\"name\": ";
    jsonEscape(S, R.Name);
    S += std::string(", \"verified\": ") + (R.Verified ? "true" : "false");
    S += std::string(", \"trusted\": ") + (R.Trusted ? "true" : "false");
    S += std::string(", \"cache_hit\": ") + (R.CacheHit ? "true" : "false");
    if (!R.Error.empty()) {
      S += ", \"error\": ";
      jsonEscape(S, R.Error);
      snprintf(Buf, sizeof(Buf), ", \"error_line\": %u, \"error_col\": %u",
               R.ErrorLoc.Line, R.ErrorLoc.Col);
      S += Buf;
    }
    if (!R.Diags.empty()) {
      // The shared wire shape (rcc::Diagnostic::toJson), byte-identical to
      // the daemon's `diagnostic` events for the same failure.
      S += ", \"diagnostics\": [";
      for (size_t D = 0; D < R.Diags.size(); ++D) {
        if (D)
          S += ", ";
        S += R.Diags[D].toJson();
      }
      S += "]";
    }
    snprintf(Buf, sizeof(Buf), ", \"rule_apps\": %u", R.Stats.RuleApps);
    S += Buf;
    snprintf(Buf, sizeof(Buf), ", \"distinct_rules\": %zu",
             R.Stats.RulesUsed.size());
    S += Buf;
    snprintf(Buf, sizeof(Buf), ", \"side_cond_auto\": %u",
             R.Stats.SideCondAuto);
    S += Buf;
    snprintf(Buf, sizeof(Buf), ", \"side_cond_manual\": %u",
             R.Stats.SideCondManual);
    S += Buf;
    snprintf(Buf, sizeof(Buf), ", \"goal_steps\": %u", R.Stats.GoalSteps);
    S += Buf;
    snprintf(Buf, sizeof(Buf), ", \"evars_instantiated\": %u",
             R.EvarsInstantiated);
    S += Buf;
    if (R.BacktrackedSteps) {
      snprintf(Buf, sizeof(Buf), ", \"backtracked_steps\": %u",
               R.BacktrackedSteps);
      S += Buf;
    }
    snprintf(Buf, sizeof(Buf), ", \"deriv_steps\": %zu",
             R.Deriv.Steps.size());
    S += Buf;
    snprintf(Buf, sizeof(Buf), ", \"wall_ms\": %.3f", R.WallMillis);
    S += Buf;
    if (R.Rechecked)
      S += std::string(", \"recheck_ok\": ") + (R.RecheckOk ? "true" : "false");
    S += "}";
  }
  S += Fns.empty() ? "]" : "\n  ]";
  if (!Metrics.empty()) {
    S += ",\n  \"metrics\": ";
    S += Metrics;
  }
  if (!ExtraJson.empty()) {
    S += ",\n  ";
    S += ExtraJson;
  }
  S += "\n}\n";
  return S;
}
