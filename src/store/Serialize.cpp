//===- Serialize.cpp ------------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "store/Serialize.h"

#include "pure/Term.h"
#include "support/Hash.h"

#include <cstring>
#include <unordered_map>
#include <vector>

using namespace rcc;
using namespace rcc::store;
using namespace rcc::refinedc;
using rcc::lithium::DerivStep;
using rcc::lithium::Label;

//===----------------------------------------------------------------------===//
// BinaryWriter / BinaryReader
//===----------------------------------------------------------------------===//

void BinaryWriter::f64(double V) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V));
  std::memcpy(&Bits, &V, sizeof(Bits));
  u64(Bits);
}

bool BinaryReader::take(size_t N, const char *&Out) {
  if (Failed || static_cast<size_t>(End - P) < N) {
    Failed = true;
    return false;
  }
  Out = P;
  P += N;
  return true;
}

bool BinaryReader::u8(uint8_t &V) {
  const char *B;
  if (!take(1, B))
    return false;
  V = static_cast<uint8_t>(*B);
  return true;
}

bool BinaryReader::u32(uint32_t &V) {
  const char *B;
  if (!take(4, B))
    return false;
  V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(static_cast<uint8_t>(B[I])) << (8 * I);
  return true;
}

bool BinaryReader::u64(uint64_t &V) {
  const char *B;
  if (!take(8, B))
    return false;
  V = 0;
  for (int I = 0; I < 8; ++I)
    V |= static_cast<uint64_t>(static_cast<uint8_t>(B[I])) << (8 * I);
  return true;
}

bool BinaryReader::i64(int64_t &V) {
  uint64_t U;
  if (!u64(U))
    return false;
  V = static_cast<int64_t>(U);
  return true;
}

bool BinaryReader::f64(double &V) {
  uint64_t Bits;
  if (!u64(Bits))
    return false;
  std::memcpy(&V, &Bits, sizeof(V));
  return true;
}

bool BinaryReader::str(std::string &V) {
  std::string_view View;
  if (!view(View))
    return false;
  V.assign(View);
  return true;
}

bool BinaryReader::view(std::string_view &V) {
  uint32_t N;
  if (!u32(N))
    return false;
  const char *B;
  if (!take(N, B))
    return false;
  V = std::string_view(B, N);
  return true;
}

bool BinaryReader::boolean(bool &V) {
  uint8_t B;
  if (!u8(B))
    return false;
  if (B > 1) { // anything else is corruption, not a bool
    Failed = true;
    return false;
  }
  V = B != 0;
  return true;
}

uint64_t rcc::store::checksumBytes(std::string_view Data) {
  return ContentHasher().mix(Data).get();
}

//===----------------------------------------------------------------------===//
// Term table
//===----------------------------------------------------------------------===//
//
// Terms are hash-consed, so derivations share structure heavily (the same
// Γ hypothesis list is recorded on every side condition). The payload
// therefore carries one deduplicated term table: each distinct term is
// written once, children strictly before parents, and every reference in
// the FnResult body is a u32 into the table (0 = null, I+1 = entry I).

namespace {

class TermTableWriter {
public:
  explicit TermTableWriter(BinaryWriter &W) : W(W) {}

  /// Registers \p T (and its subterms) for emission; returns its encoded
  /// reference. Iterative post-order so pathological term depth cannot
  /// overflow the C++ stack.
  uint32_t ref(pure::TermRef T) {
    if (!T)
      return 0;
    auto It = Ids.find(T);
    if (It != Ids.end())
      return It->second + 1;
    std::vector<std::pair<pure::TermRef, unsigned>> Stack{{T, 0}};
    while (!Stack.empty()) {
      auto &[Cur, NextArg] = Stack.back();
      if (Ids.count(Cur)) {
        Stack.pop_back();
        continue;
      }
      if (NextArg < Cur->numArgs()) {
        pure::TermRef A = Cur->arg(NextArg++);
        if (A && !Ids.count(A))
          Stack.push_back({A, 0});
        continue;
      }
      Ids[Cur] = static_cast<uint32_t>(Order.size());
      Order.push_back(Cur);
      Stack.pop_back();
    }
    return Ids.at(T) + 1;
  }

  /// Emits the collected table. Must run before the entries referencing it
  /// are *read*, so serializeFnResult writes the table into the final
  /// buffer first and the body (built against a side writer) second.
  void emit() {
    W.u32(static_cast<uint32_t>(Order.size()));
    for (pure::TermRef T : Order) {
      W.u8(static_cast<uint8_t>(T->kind()));
      W.u8(static_cast<uint8_t>(T->sort()));
      W.str(T->name());
      W.i64(T->num());
      W.u32(T->numArgs());
      for (unsigned I = 0; I < T->numArgs(); ++I)
        W.u32(Ids.at(T->arg(I))); // child id; strictly < this entry's id
    }
  }

private:
  BinaryWriter &W;
  std::unordered_map<pure::TermRef, uint32_t> Ids;
  std::vector<pure::TermRef> Order;
};

class TermTableReader {
public:
  /// Parses the table, interning every entry in the process arena. Returns
  /// false on any malformed entry. Names and arguments are borrowed from the
  /// input, so an entry whose term is already interned allocates nothing.
  bool parse(BinaryReader &R) {
    uint32_t N;
    if (!R.u32(N))
      return false;
    // A table entry is at least kind+sort+namelen+num+argcount = 18 bytes;
    // reject counts the remaining input cannot possibly back.
    if (N > R.remaining() / 18)
      return false;
    Table.reserve(N);
    std::vector<pure::TermRef> Args;
    for (uint32_t I = 0; I < N; ++I) {
      uint8_t Kind, Sort;
      std::string_view Name;
      int64_t Num;
      uint32_t NArgs;
      if (!R.u8(Kind) || !R.u8(Sort) || !R.view(Name) || !R.i64(Num) ||
          !R.u32(NArgs))
        return false;
      if (Kind > static_cast<uint8_t>(pure::TermKind::App) ||
          Sort > static_cast<uint8_t>(pure::Sort::Unknown))
        return false;
      if (NArgs > R.remaining() / 4)
        return false;
      Args.clear();
      for (uint32_t A = 0; A < NArgs; ++A) {
        uint32_t Id;
        if (!R.u32(Id))
          return false;
        if (Id >= I) // children must precede parents
          return false;
        Args.push_back(Table[Id]);
      }
      Table.push_back(pure::arena().make(static_cast<pure::TermKind>(Kind),
                                         static_cast<pure::Sort>(Sort), Name,
                                         Num, Args));
    }
    return true;
  }

  /// Resolves an encoded reference (0 = null). False on a dangling id.
  bool resolve(uint32_t Ref, pure::TermRef &Out) const {
    if (Ref == 0) {
      Out = nullptr;
      return true;
    }
    if (Ref > Table.size())
      return false;
    Out = Table[Ref - 1];
    return true;
  }

private:
  std::vector<pure::TermRef> Table;
};

} // namespace

//===----------------------------------------------------------------------===//
// FnResult payload
//===----------------------------------------------------------------------===//

std::string rcc::store::serializeFnResult(const FnResult &R) {
  // The body references table ids, but the table must precede the body in
  // the payload (the reader interns terms on the fly). Build the body into
  // a side buffer while the table writer collects terms, then concatenate.
  BinaryWriter Table;
  TermTableWriter Terms(Table);
  BinaryWriter Body;

  Body.str(R.Name);
  Body.boolean(R.Verified);
  Body.boolean(R.Trusted);
  Body.str(R.Error);
  Body.u32(R.ErrorLoc.Line);
  Body.u32(R.ErrorLoc.Col);
  Body.u32(static_cast<uint32_t>(R.ErrorContext.size()));
  for (const std::string &C : R.ErrorContext)
    Body.str(C);

  Body.u32(R.Stats.RuleApps);
  Body.u32(R.Stats.SideCondAuto);
  Body.u32(R.Stats.SideCondManual);
  Body.u32(R.Stats.GoalSteps);
  // Labels are written as their names, in name order: label ids depend on
  // the order a process interned them in.
  Body.u32(static_cast<uint32_t>(R.Stats.RulesUsed.size()));
  for (Label L : R.Stats.RulesUsed.byName())
    Body.str(L.name());

  Body.u32(static_cast<uint32_t>(R.Deriv.Steps.size()));
  for (const DerivStep &S : R.Deriv.Steps) {
    Body.u8(static_cast<uint8_t>(S.K));
    Body.str(S.Rule.name());
    Body.u32(Terms.ref(S.Prop));
    Body.u32(static_cast<uint32_t>(S.Hyps.size()));
    for (pure::TermRef H : S.Hyps)
      Body.u32(Terms.ref(H));
    Body.boolean(S.Manual);
  }

  Body.u32(R.EvarsInstantiated);
  Body.u32(R.BacktrackedSteps);
  Body.boolean(R.Rechecked);
  Body.boolean(R.RecheckOk);
  Body.f64(R.WallMillis);

  // Format 2: structured diagnostics (failing results are stored too, and
  // transports render from FnResult::Diags without re-deriving locations).
  Body.str(R.FailedRule);
  Body.u32(static_cast<uint32_t>(R.Diags.size()));
  for (const rcc::Diagnostic &D : R.Diags) {
    Body.u8(static_cast<uint8_t>(D.Level));
    Body.u32(D.Loc.Line);
    Body.u32(D.Loc.Col);
    Body.u32(D.End.Line);
    Body.u32(D.End.Col);
    Body.str(D.Message);
    Body.str(D.File);
    Body.str(D.Fn);
    Body.str(D.Rule);
    Body.u32(static_cast<uint32_t>(D.Context.size()));
    for (const std::string &C : D.Context)
      Body.str(C);
  }

  Terms.emit();
  std::string Out = Table.take();
  Out += Body.data();
  return Out;
}

bool rcc::store::deserializeFnResult(std::string_view Data, FnResult &Out) {
  BinaryReader R(Data);
  TermTableReader Terms;
  if (!Terms.parse(R))
    return false;

  Out = FnResult();
  uint32_t Count;

  if (!R.str(Out.Name) || !R.boolean(Out.Verified) ||
      !R.boolean(Out.Trusted) || !R.str(Out.Error) ||
      !R.u32(Out.ErrorLoc.Line) || !R.u32(Out.ErrorLoc.Col) || !R.u32(Count))
    return false;
  if (Count > R.remaining() / 4)
    return false;
  Out.ErrorContext.resize(Count);
  for (std::string &C : Out.ErrorContext)
    if (!R.str(C))
      return false;

  if (!R.u32(Out.Stats.RuleApps) || !R.u32(Out.Stats.SideCondAuto) ||
      !R.u32(Out.Stats.SideCondManual) || !R.u32(Out.Stats.GoalSteps) ||
      !R.u32(Count))
    return false;
  if (Count > R.remaining() / 4)
    return false;
  // A name resolves to its label without a string of its own. A name that
  // no rule of this process carries still gets a label, so the replay can
  // reject the step that applies it by name.
  for (uint32_t I = 0; I < Count; ++I) {
    std::string_view N;
    if (!R.view(N))
      return false;
    Out.Stats.RulesUsed.insert(Label::intern(N));
  }

  if (!R.u32(Count))
    return false;
  // A step is at least kind + rule length + prop + hyp count + manual =
  // 14 bytes.
  if (Count > R.remaining() / 14)
    return false;
  Out.Deriv.Steps.reserve(Count);
  std::vector<pure::TermRef> Hyps;
  for (uint32_t I = 0; I < Count; ++I) {
    DerivStep S;
    uint8_t Kind;
    std::string_view Name;
    uint32_t PropRef, NHyps;
    if (!R.u8(Kind) || !R.view(Name) || !R.u32(PropRef) || !R.u32(NHyps))
      return false;
    if (Kind > DerivStep::Intro)
      return false;
    S.K = static_cast<DerivStep::SKind>(Kind);
    S.Rule = Label::intern(Name);
    if (!Terms.resolve(PropRef, S.Prop))
      return false;
    if (NHyps > R.remaining() / 4)
      return false;
    Hyps.clear();
    for (uint32_t H = 0; H < NHyps; ++H) {
      uint32_t HRef;
      pure::TermRef HT;
      if (!R.u32(HRef) || !Terms.resolve(HRef, HT) || !HT)
        return false;
      Hyps.push_back(HT);
    }
    S.Hyps = lithium::HypList::intern(Hyps);
    if (!R.boolean(S.Manual))
      return false;
    Out.Deriv.Steps.push_back(S);
  }

  if (!R.u32(Out.EvarsInstantiated) || !R.u32(Out.BacktrackedSteps) ||
      !R.boolean(Out.Rechecked) || !R.boolean(Out.RecheckOk) ||
      !R.f64(Out.WallMillis))
    return false;

  if (!R.str(Out.FailedRule) || !R.u32(Count))
    return false;
  // A diagnostic is at least level + 4 coords + 4 string lengths + context
  // count = 37 bytes.
  if (Count > R.remaining() / 37)
    return false;
  Out.Diags.reserve(Count);
  for (uint32_t I = 0; I < Count; ++I) {
    rcc::Diagnostic D;
    uint8_t Level;
    uint32_t NCtx;
    if (!R.u8(Level) || !R.u32(D.Loc.Line) || !R.u32(D.Loc.Col) ||
        !R.u32(D.End.Line) || !R.u32(D.End.Col) || !R.str(D.Message) ||
        !R.str(D.File) || !R.str(D.Fn) || !R.str(D.Rule) || !R.u32(NCtx))
      return false;
    if (Level > static_cast<uint8_t>(rcc::DiagLevel::Error))
      return false;
    D.Level = static_cast<rcc::DiagLevel>(Level);
    if (NCtx > R.remaining() / 4)
      return false;
    D.Context.resize(NCtx);
    for (std::string &C : D.Context)
      if (!R.str(C))
        return false;
    Out.Diags.push_back(std::move(D));
  }

  // Trailing bytes mean the payload was not produced by this writer.
  return R.atEnd();
}
