//===- Util.cpp -----------------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "support/Util.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>

using namespace rcc;

const char *rcc::versionString() { return "refinedcpp 0.2.0"; }

std::string rcc::join(const std::vector<std::string> &Parts,
                      const std::string &Sep) {
  std::string Result;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Result += Sep;
    Result += Parts[I];
  }
  return Result;
}

std::vector<std::string> rcc::splitString(const std::string &S, char Sep) {
  std::vector<std::string> Out;
  std::string Cur;
  for (char C : S) {
    if (C == Sep) {
      Out.push_back(Cur);
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  Out.push_back(Cur);
  return Out;
}

std::string rcc::trim(const std::string &S) {
  size_t B = 0, E = S.size();
  while (B < E && std::isspace(static_cast<unsigned char>(S[B])))
    ++B;
  while (E > B && std::isspace(static_cast<unsigned char>(S[E - 1])))
    --E;
  return S.substr(B, E - B);
}

bool rcc::startsWith(const std::string &S, const std::string &Prefix) {
  return S.size() >= Prefix.size() && S.compare(0, Prefix.size(), Prefix) == 0;
}

std::string rcc::jsonQuote(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
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
  return Out;
}

std::vector<size_t> rcc::lineStarts(const std::string &Source) {
  std::vector<size_t> Starts{0};
  for (size_t Pos = Source.find('\n'); Pos != std::string::npos;
       Pos = Source.find('\n', Pos + 1))
    Starts.push_back(Pos + 1);
  return Starts;
}

SourceRange rcc::tokenRangeAt(const std::string &Source,
                              const std::vector<size_t> &LineStarts,
                              SourceLoc Loc) {
  if (!Loc.isValid())
    return {};
  // Resolve the 1-based line/col into a byte offset.
  if (Loc.Line > LineStarts.size())
    return {Loc, {Loc.Line, Loc.Col + 1}};
  size_t Pos = LineStarts[Loc.Line - 1];
  size_t LineEnd =
      Loc.Line < LineStarts.size() ? LineStarts[Loc.Line] - 1 : Source.size();
  size_t Off = Pos + (Loc.Col - 1);
  if (Off >= LineEnd)
    return {Loc, {Loc.Line, Loc.Col + 1}};

  auto isIdent = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
  };
  uint32_t EndCol = Loc.Col + 1;
  if (isIdent(Source[Off])) {
    size_t E = Off;
    while (E < LineEnd && isIdent(Source[E]))
      ++E;
    EndCol = Loc.Col + static_cast<uint32_t>(E - Off);
  }
  return {Loc, {Loc.Line, EndCol}};
}

int rcc::debugTraceLevel() {
  // Compatible with the historical contract: any set RCC_TRACE (even empty)
  // enables level 1; a leading '2' (or any numeric value >= 2) enables
  // per-goal dumps.
  static const int Level = [] {
    const char *E = std::getenv("RCC_TRACE");
    if (!E)
      return 0;
    int V = std::atoi(E);
    return V >= 2 ? V : 1;
  }();
  return Level;
}

void rcc::debugLog(const std::string &Line) {
  static std::mutex M;
  std::lock_guard<std::mutex> G(M);
  fputs(Line.c_str(), stderr);
  fputc('\n', stderr);
}

/// Annotation kinds classified for Figure 7 accounting.
namespace {
enum class AnnotClass { FnSpec, StructInv, Loop, Other, NotAnnot };
} // namespace

static AnnotClass classifyAnnotLine(const std::string &Line) {
  std::string T = trim(Line);
  // Continuation lines of a multi-line annotation are handled by the caller
  // (which tracks bracket depth); here we classify lines that open [[rc::.
  size_t Pos = T.find("[[rc::");
  if (Pos == std::string::npos)
    return AnnotClass::NotAnnot;
  std::string Kind;
  for (size_t I = Pos + 6; I < T.size() && (std::isalnum((unsigned char)T[I]) ||
                                            T[I] == '_');
       ++I)
    Kind += T[I];
  if (Kind == "parameters" || Kind == "args" || Kind == "returns" ||
      Kind == "requires" || Kind == "ensures")
    return AnnotClass::FnSpec;
  if (Kind == "refined_by" || Kind == "field" || Kind == "size" ||
      Kind == "ptr_type" || Kind == "typedef" || Kind == "fn_type")
    return AnnotClass::StructInv;
  if (Kind == "inv_vars")
    return AnnotClass::Loop;
  // "exists" and "constraints" are ambiguous between struct invariants and
  // loop invariants; disambiguated by the caller from surrounding context.
  if (Kind == "exists" || Kind == "constraints")
    return AnnotClass::StructInv; // caller may override
  return AnnotClass::Other;
}

SourceLineStats rcc::countSourceLines(const std::string &Source) {
  SourceLineStats Stats;
  std::vector<std::string> Lines = splitString(Source, '\n');

  // First pass: find, for each line index, whether the next non-annotation
  // code line begins a loop ("while"/"for") or a struct/typedef/function.
  auto nextCodeStartsLoop = [&](size_t I) {
    for (size_t J = I + 1; J < Lines.size(); ++J) {
      std::string T = trim(Lines[J]);
      if (T.empty() || startsWith(T, "//") || startsWith(T, "[["))
        continue;
      return startsWith(T, "while") || startsWith(T, "for") ||
             startsWith(T, "do");
    }
    return false;
  };
  auto nextCodeStartsStruct = [&](size_t I) {
    for (size_t J = I + 1; J < Lines.size(); ++J) {
      std::string T = trim(Lines[J]);
      if (T.empty() || startsWith(T, "//"))
        continue;
      if (startsWith(T, "[["))
        continue;
      // A line of the struct body (field decl) or the struct keyword itself.
      return true;
    }
    return false;
  };
  (void)nextCodeStartsStruct;

  bool InStruct = false;
  int StructBraceDepth = 0;
  for (size_t I = 0; I < Lines.size(); ++I) {
    std::string T = trim(Lines[I]);
    if (T.empty() || startsWith(T, "//"))
      continue;

    AnnotClass AC = classifyAnnotLine(T);
    bool StartsWithAnnot = startsWith(T, "[[rc::");
    if (AC == AnnotClass::NotAnnot || !StartsWithAnnot) {
      // Pure code lines, and mixed lines where code precedes an inline
      // attribute (e.g. `struct [[rc::refined_by(...)]] mem_t {`), count as
      // implementation; a mixed line additionally counts its annotation.
      Stats.Impl += 1;
      // Track whether we are inside a struct body, to classify the ambiguous
      // exists/constraints annotations.
      if (T.find("struct") != std::string::npos &&
          T.find('{') != std::string::npos)
        InStruct = true;
      for (char C : T) {
        if (C == '{' && InStruct)
          ++StructBraceDepth;
        if (C == '}' && InStruct) {
          --StructBraceDepth;
          if (StructBraceDepth <= 0)
            InStruct = false;
        }
      }
      if (AC == AnnotClass::NotAnnot)
        continue;
    }

    // Disambiguate exists/constraints: loop if the next code line is a loop.
    if ((T.find("rc::exists") != std::string::npos ||
         T.find("rc::constraints") != std::string::npos) &&
        !InStruct && nextCodeStartsLoop(I))
      AC = AnnotClass::Loop;
    if ((T.find("rc::exists") != std::string::npos ||
         T.find("rc::constraints") != std::string::npos) &&
        !InStruct && !nextCodeStartsLoop(I)) {
      // exists/constraints before a function belong to the function spec; we
      // approximate: if any parameters/args annotation is nearby (within 6
      // lines before), count as fn spec.
      bool NearFn = false;
      for (size_t J = I >= 6 ? I - 6 : 0; J < I; ++J)
        if (Lines[J].find("rc::parameters") != std::string::npos ||
            Lines[J].find("rc::args") != std::string::npos)
          NearFn = true;
      AC = NearFn ? AnnotClass::FnSpec : AnnotClass::StructInv;
    }

    switch (AC) {
    case AnnotClass::FnSpec:
      Stats.FnSpec += 1;
      break;
    case AnnotClass::StructInv:
      Stats.StructInv += 1;
      break;
    case AnnotClass::Loop:
      Stats.Loop += 1;
      break;
    case AnnotClass::Other:
      Stats.OtherAnnot += 1;
      break;
    case AnnotClass::NotAnnot:
      break;
    }
  }
  return Stats;
}
