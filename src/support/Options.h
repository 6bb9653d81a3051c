//===- Options.h - Shared command-line option parsing ----------*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one flag parser behind `verify_tool`, `verifyd`, and `rcc-lsp`
/// (DESIGN.md, "Protocol v2"). Each tool used to hand-roll its own
/// `--flag=value` loop; the three copies had already drifted in their
/// numeric validation, and the three tools may share one cache directory —
/// `--cache-dir`, `--jobs`, `--no-recheck` must mean exactly the same thing
/// everywhere. A tool declares its flags
/// against an OptionParser; parsing is strict by construction:
///
///  - unknown `--` flags are an error (a typo cannot silently verify with
///    the wrong configuration — the historical verify_tool contract),
///  - numeric values reject empty strings, signs, trailing garbage, and
///    overflow (`--jobs=4x` is an error, not 4),
///  - a value flag without a value (`--cache-dir=`) is an error,
///  - declared range limits are enforced at parse time.
///
/// `parse` never exits; the tool renders `usage()` and picks its own exit
/// code, so the library stays testable.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_SUPPORT_OPTIONS_H
#define RCC_SUPPORT_OPTIONS_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace rcc::opts {

/// Strict decimal parse; rejects empty, signs, non-digits, and values above
/// \p Max. The shared implementation behind every numeric flag.
bool parseU64(const std::string &S, uint64_t &Out,
              uint64_t Max = UINT64_MAX);
bool parseUnsigned(const std::string &S, unsigned &Out,
                   unsigned Max = 0xffffffffu);

/// Outcome of OptionParser::parse.
enum class ParseResult : uint8_t {
  Ok,      ///< all arguments consumed
  Error,   ///< bad flag/value; OptionParser::error() has the offender
  Version, ///< `--version` was seen; print the version and exit 0
};

/// A declarative command-line parser. Flags are registered up front; parse
/// walks argv once, filling targets in place and collecting non-flag
/// arguments as positionals.
class OptionParser {
public:
  /// \p Tool is the program name for usage(); \p Positional describes the
  /// trailing non-flag arguments (e.g. "<file.c> [function...]").
  OptionParser(std::string Tool, std::string Positional);

  // --- Flag registration (all return *this for chaining) ---

  /// `--name` (no value): sets \p Target to \p Value.
  OptionParser &flag(const std::string &Name, bool &Target, bool Value,
                     const std::string &Help);
  /// `--name=N`: strict unsigned with inclusive range [Min, Max].
  OptionParser &unsignedOpt(const std::string &Name, unsigned &Target,
                            const std::string &Help, unsigned Min = 0,
                            unsigned Max = 0xffffffffu);
  /// `--name=N`: strict uint64.
  OptionParser &u64Opt(const std::string &Name, uint64_t &Target,
                       const std::string &Help);
  /// `--name=S`: non-empty string.
  OptionParser &strOpt(const std::string &Name, std::string &Target,
                       const std::string &Help);
  /// `--name[=S]`: string with a default when the value is omitted
  /// (`--run` / `--run=fn`).
  OptionParser &strOptional(const std::string &Name, std::string &Target,
                            std::string Default, const std::string &Help);
  /// `--name=V` with a custom validator/parser (e.g. `--portfolio=on`).
  /// \p Parse returns false to reject the value.
  OptionParser &custom(const std::string &Name,
                       std::function<bool(const std::string &)> Parse,
                       const std::string &Help);
  /// Registers the standard `--version` flag (handled by parse).
  OptionParser &version();

  // --- Parsing ---

  /// Parses argv[1..argc). Positionals land in \p Positional in order.
  ParseResult parse(int Argc, char **Argv,
                    std::vector<std::string> &Positional);
  /// The offending argument after ParseResult::Error ("" otherwise).
  const std::string &error() const { return Err; }

  /// One-line usage string ("usage: tool [--a] [--b=N] <positional>").
  std::string usage() const;

private:
  enum class Kind : uint8_t { Bool, Unsigned, U64, Str, StrOptional, Custom };
  struct Opt {
    std::string Name; ///< without the leading "--"
    Kind K;
    std::string Help;
    bool *BoolTarget = nullptr;
    bool BoolValue = true;
    unsigned *UTarget = nullptr;
    unsigned UMin = 0, UMax = 0xffffffffu;
    uint64_t *U64Target = nullptr;
    std::string *StrTarget = nullptr;
    std::string StrDefault;
    std::function<bool(const std::string &)> Parse;
  };

  const Opt *find(const std::string &Name) const;

  std::string Tool;
  std::string Positional;
  std::vector<Opt> Opts;
  bool HasVersion = false;
  std::string Err;
};

} // namespace rcc::opts

#endif // RCC_SUPPORT_OPTIONS_H
