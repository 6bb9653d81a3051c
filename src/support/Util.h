//===- Util.h - Small string and container helpers -------------*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String joining/splitting helpers shared across the project, plus the line
/// counters used by the Figure 7 reproduction (impl vs. spec vs. annotation
/// line counting over annotated C sources).
///
//===----------------------------------------------------------------------===//

#ifndef RCC_SUPPORT_UTIL_H
#define RCC_SUPPORT_UTIL_H

#include "support/SourceLoc.h"

#include <string>
#include <vector>

namespace rcc {

/// The project version string ("refinedcpp X.Y.Z"), reported by
/// `verify_tool --version` and embedded in bench artifacts.
const char *versionString();

/// Joins \p Parts with \p Sep.
std::string join(const std::vector<std::string> &Parts, const std::string &Sep);

/// Splits \p S on character \p Sep (no trimming, keeps empty parts).
std::vector<std::string> splitString(const std::string &S, char Sep);

/// Strips leading/trailing ASCII whitespace.
std::string trim(const std::string &S);

/// True if \p S starts with \p Prefix.
bool startsWith(const std::string &S, const std::string &Prefix);

/// Renders \p S as a double-quoted JSON string with all mandatory escapes
/// (used by the daemon protocol and verify_tool's JSON mode).
std::string jsonQuote(const std::string &S);

/// The byte offset at which each line of \p Source starts: element N-1 is
/// the start of line N (so the first element is always 0).
std::vector<size_t> lineStarts(const std::string &Source);

/// Widens the point location \p Loc to the extent of the token that starts
/// there in \p Source: the returned range ends after the run of identifier
/// characters (or the single punctuation character) at \p Loc. Used to give
/// engine failures — which carry only a point — a highlightable range for
/// editors. \p LineStarts is `lineStarts(Source)`, computed once per source
/// so each lookup is O(1) in the file size. Returns a [Loc, Loc+1) range
/// when \p Loc does not resolve into \p Source, and an invalid range when
/// \p Loc itself is invalid.
SourceRange tokenRangeAt(const std::string &Source,
                         const std::vector<size_t> &LineStarts, SourceLoc Loc);

/// The RCC_TRACE debug level: 0 = off, 1 = step progress, 2 = per-goal
/// dumps. Read from the environment once per process (a getenv per engine
/// step is measurable on hot paths).
int debugTraceLevel();

/// Writes one complete line to stderr under a process-wide mutex, so
/// concurrent verification jobs can never interleave partial lines
/// (`--jobs>1` with RCC_TRACE set used to produce garbage).
void debugLog(const std::string &Line);

/// Line statistics of an annotated C source, in the counting style of the
/// paper's Figure 7 (tokei-like: blank lines and comment-only lines are not
/// code; `[[rc::...]]` attribute lines are annotations, not implementation).
struct SourceLineStats {
  unsigned Impl = 0;       ///< C code lines (non-blank, non-comment, non-annot)
  unsigned FnSpec = 0;     ///< annotation lines attached to functions
  unsigned StructInv = 0;  ///< annotation lines attached to structs/fields
  unsigned Loop = 0;       ///< annotation lines attached to loops
  unsigned OtherAnnot = 0; ///< any other annotation lines (tactics, lemmas...)

  unsigned annot() const { return StructInv + Loop + OtherAnnot; }
};

/// Counts the line categories of an annotated C source. The classifier is
/// syntactic: an `[[rc::...]]` line is classified by the annotation kind it
/// carries (args/returns/parameters/requires/ensures are function spec;
/// field/refined_by/exists-on-struct/size/constraints-on-struct/ptr_type are
/// struct invariants; inv_vars/exists-before-while are loop annotations;
/// tactics/lemma are "other").
SourceLineStats countSourceLines(const std::string &Source);

} // namespace rcc

#endif // RCC_SUPPORT_UTIL_H
