//===- Derivation.h - The recorded proof ------------------------*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The derivation the search records and the proof checker replays (the
/// foundational substitute of DESIGN.md, substitution 1), built from flat
/// records: a DerivStep is 24 trivially copyable bytes that own nothing.
///
/// A Label names what a step applied: a registry rule, one of the engine's
/// built-in steps, or the pure-solver engine that proved a side condition
/// ("default", "bitvector", "multiset_solver", "lemma:<name>", ...). Each
/// name is interned once per process, so a step holds a 32-bit id and a
/// rule set is a short vector of ids. A HypList is the Γ of a proved side
/// condition, interned the same way: equal lists share one copy, and a
/// step holds an 8-byte handle.
///
/// Label ids follow interning order, which concurrent jobs make schedule-
/// dependent; only the built-in steps have fixed ids. So no output may be
/// ordered by id: whatever lists labels does so in name order
/// (LabelSet::byName).
///
//===----------------------------------------------------------------------===//

#ifndef RCC_LITHIUM_DERIVATION_H
#define RCC_LITHIUM_DERIVATION_H

#include "pure/Term.h"

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace rcc::lithium {

/// The engine's built-in steps: the transformations that the engine and the
/// RefinedC layer record without a registry rule. BuiltinSteps below is the
/// one list of their names; each has the fixed label id (enumerator + 1).
enum class Builtin : uint8_t {
  UnfoldNamed,
  FocusOwn,
  FocusOwnVal,
  WandIntroGoal,
  ArrayRead,
  ArrayWrite,
  PopVal,
  PopLoc,
  PopLocSplit,
  Failed,
  Postpone,
};

struct BuiltinStep {
  std::string_view Name;
  /// Recorded as a RuleApp step. The proof checker accepts exactly these
  /// without a registry entry; the others are atom matches ("pop-*"), the
  /// failed side condition ("failed") and the postponed one ("postpone").
  bool RuleApp;
};

/// Indexed by Builtin.
inline constexpr BuiltinStep BuiltinSteps[] = {
    {"unfold-named", true},   {"focus-own", true},
    {"focus-own-val", true},  {"WAND-INTRO-GOAL", true},
    {"O-ARRAY-READ", true},   {"O-ARRAY-WRITE", true},
    {"pop-val", false},       {"pop-loc", false},
    {"pop-loc-split", false}, {"failed", false},
    {"postpone", false},
};

class Label {
public:
  /// The empty name.
  constexpr Label() = default;
  constexpr Label(Builtin B) : Id(static_cast<uint32_t>(B) + 1) {}

  /// The label of \p Name, interned on first sight. Thread-safe; a name
  /// this thread has seen before costs one thread-local hash lookup.
  static Label intern(std::string_view Name);

  /// The interned name. Stable for the life of the process.
  std::string_view name() const;
  uint32_t id() const { return Id; }

  /// True for the built-in steps recorded as RuleApp (BuiltinStep::RuleApp).
  bool isBuiltinRule() const {
    return Id >= 1 && Id <= std::size(BuiltinSteps) &&
           BuiltinSteps[Id - 1].RuleApp;
  }

  bool operator==(const Label &) const = default;

private:
  explicit Label(uint32_t Id) : Id(Id) {}
  uint32_t Id = 0;
};

/// A set of labels as a vector sorted by id (EngineStats::RulesUsed): an
/// insert is a binary search over a few dozen integers, with no node per
/// element. It offers no iteration in id order; byName() is the only way to
/// list its members.
class LabelSet {
public:
  void insert(Label L);
  bool contains(Label L) const;
  size_t size() const { return Ids.size(); }
  /// The members in name order.
  std::vector<Label> byName() const;

  bool operator==(const LabelSet &) const = default;

private:
  std::vector<Label> Ids; ///< ascending id
};

/// The hypotheses Γ of a proved side condition: a handle to an immutable
/// list interned once per process and never freed, like the hash-consed
/// terms it holds. Equal lists share one copy, so copying a step or a whole
/// result copies no hypothesis. It reads as the `const std::vector &` that
/// PureSolver::prove takes.
class HypList {
public:
  /// The empty list.
  HypList() = default;
  /// The list holding \p Hs, interned on first sight. Thread-safe.
  static HypList intern(std::span<const pure::TermRef> Hs);

  const std::vector<pure::TermRef> &terms() const;
  operator const std::vector<pure::TermRef> &() const { return terms(); }
  size_t size() const { return terms().size(); }
  bool empty() const { return !L; }
  pure::TermRef operator[](size_t I) const { return terms()[I]; }
  auto begin() const { return terms().begin(); }
  auto end() const { return terms().end(); }

  /// Interning makes equal lists one list.
  bool operator==(const HypList &) const = default;

private:
  explicit HypList(const std::vector<pure::TermRef> *L) : L(L) {}
  const std::vector<pure::TermRef> *L = nullptr; ///< null: the empty list
};

/// One recorded proof step, for statistics and for replay by the proof
/// checker. A step holds the rule choice and the terms only; nothing is
/// rendered during search (messages render Prop on demand).
struct DerivStep {
  enum SKind : uint8_t { RuleApp, SideCond, AtomMatch, Intro } K = RuleApp;
  bool Manual = false;
  Label Rule; ///< rule / built-in step / solver engine / "failed" / "postpone"
  /// SideCond (proved or failed) and postpone: the resolved proposition.
  pure::TermRef Prop = nullptr;
  HypList Hyps = {}; ///< proved SideCond: resolved Γ
};

struct Derivation {
  std::vector<DerivStep> Steps;
};

} // namespace rcc::lithium

#endif // RCC_LITHIUM_DERIVATION_H
