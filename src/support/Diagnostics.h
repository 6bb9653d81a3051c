//===- Diagnostics.h - Diagnostic collection and rendering -----*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small diagnostic engine. Both the front end (parse/sema errors) and the
/// verifier (failed side conditions, unprovable goals) report through this,
/// so a user sees uniformly formatted, source-located messages in the style
/// of the paper's Section 2.1 error-message example.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_SUPPORT_DIAGNOSTICS_H
#define RCC_SUPPORT_DIAGNOSTICS_H

#include "support/SourceLoc.h"

#include <string>
#include <vector>

namespace rcc {

enum class DiagLevel { Note, Warning, Error };

/// Renders a DiagLevel as its wire name ("error" / "warning" / "note").
const char *diagLevelName(DiagLevel L);

/// A single diagnostic message with an optional location and optional
/// free-form context lines (used by the verifier to render the goal state
/// at the point of failure).
///
/// This is also the *wire-level* diagnostic model shared by every
/// transport: `verify_tool --format=json`, the daemon's JSON-lines
/// `diagnostic` events, and the LSP server's `publishDiagnostics` all
/// serialize this one struct (via toJson / their own range mapping), so a
/// diagnostic's fields agree byte-for-byte no matter which front rendered
/// it. The range is 1-based and half-open ([Loc, End)); End may be invalid
/// when only a point location is known. File, Fn, and Rule attribute the
/// diagnostic to a source file, the enclosing function, and the typing
/// rule whose application failed; all three are optional.
struct Diagnostic {
  DiagLevel Level = DiagLevel::Error;
  SourceLoc Loc;
  std::string Message;
  std::vector<std::string> Context;
  SourceLoc End;    ///< range end (exclusive); invalid = point diagnostic
  std::string File; ///< attributed by the transport layer ("" = the buffer)
  std::string Fn;   ///< enclosing function ("" = file-level)
  std::string Rule; ///< failing typing rule ("" = none)

  SourceRange range() const { return {Loc, End.isValid() ? End : Loc}; }

  /// The one JSON rendering every transport embeds, with a fixed member
  /// order: {"file": ..., "line": N, "col": N, "end_line": N, "end_col": N,
  /// "severity": "...", "fn": ..., "rule": ..., "message": ...}; fn/rule
  /// are omitted when empty, end_line/end_col when the range is a point.
  std::string toJson() const;
};

/// Collects diagnostics for one compilation / verification run.
class DiagnosticEngine {
public:
  void report(DiagLevel Level, SourceLoc Loc, std::string Message) {
    Diagnostic D;
    D.Level = Level;
    D.Loc = Loc;
    D.Message = std::move(Message);
    Diags.push_back(std::move(D));
  }

  void error(SourceLoc Loc, std::string Message) {
    report(DiagLevel::Error, Loc, std::move(Message));
  }

  void warning(SourceLoc Loc, std::string Message) {
    report(DiagLevel::Warning, Loc, std::move(Message));
  }

  void note(SourceLoc Loc, std::string Message) {
    report(DiagLevel::Note, Loc, std::move(Message));
  }

  /// Appends every diagnostic of \p Other, in order.
  void append(const DiagnosticEngine &Other) {
    Diags.insert(Diags.end(), Other.Diags.begin(), Other.Diags.end());
  }

  /// Attaches context lines to the most recently reported diagnostic.
  void addContext(std::string Line);

  bool hasErrors() const;
  size_t size() const { return Diags.size(); }
  const std::vector<Diagnostic> &diagnostics() const { return Diags; }
  void clear() { Diags.clear(); }

  /// Renders all diagnostics into a single human-readable string. When
  /// \p Source is non-empty, error lines are echoed with a caret marker.
  std::string render(const std::string &Source = "") const;

private:
  std::vector<Diagnostic> Diags;
};

} // namespace rcc

#endif // RCC_SUPPORT_DIAGNOSTICS_H
