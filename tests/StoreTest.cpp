//===- StoreTest.cpp - Persistent result store contracts ------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contracts of the result store's two tiers (DESIGN.md, "Persistent
/// verification store"): lossless serialization that re-interns pure terms,
/// corruption rejected as a miss (never a crash), cross-session reuse with
/// replay-established trust, re-verifying only the edited function,
/// fingerprint self-invalidation, promotion into L1 after the replay, and
/// the run's CacheDir naming the disk tier.
///
//===----------------------------------------------------------------------===//

#include "DerivTranscript.h"
#include "casestudies/CaseStudies.h"
#include "frontend/Frontend.h"
#include "refinedc/Checker.h"
#include "refinedc/ProofChecker.h"
#include "store/ResultStore.h"
#include "store/Serialize.h"
#include "support/Util.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

using namespace rcc;
using namespace rcc::refinedc;
using namespace rcc::store;
using namespace rcc::pure;

namespace fs = std::filesystem;

namespace {

/// A self-deleting unique temp directory per test.
struct TempDir {
  fs::path Path;
  TempDir() {
    static int Counter = 0;
    Path = fs::temp_directory_path() /
           ("rcc_store_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(Counter++));
    fs::create_directories(Path);
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

/// u32 arithmetic emits explicit range side conditions, guaranteeing
/// SideCond steps (with Prop terms and hypotheses) in the derivation.
const char *kIncSource = R"(
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<u32>")]]
[[rc::returns("{n + 1} @ int<u32>")]]
[[rc::requires("{n <= 100}")]]
unsigned int inc(unsigned int x) { return x + 1; }
)";

/// The same function with a strengthened spec: only the annotation changes,
/// so a content-hash key computed from it must differ.
const char *kIncEditedSpec = R"(
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<u32>")]]
[[rc::returns("{n + 1} @ int<u32>")]]
[[rc::requires("{n <= 99}")]]
unsigned int inc(unsigned int x) { return x + 1; }
)";

std::unique_ptr<front::AnnotatedProgram> compile(const std::string &Src) {
  DiagnosticEngine Diags;
  auto AP = front::compileSource(Src, Diags);
  EXPECT_TRUE(AP != nullptr) << Diags.render(Src);
  return AP;
}

/// Verifies `inc` and returns a result that carries a real derivation.
FnResult verifiedInc() {
  auto AP = compile(kIncSource);
  DiagnosticEngine Diags;
  Checker C(*AP, Diags);
  EXPECT_TRUE(C.buildEnv());
  VerifyOptions Opts;
  Opts.Recheck = true;
  FnResult R = C.verifyFunction("inc", Opts);
  EXPECT_TRUE(R.Verified);
  EXPECT_FALSE(R.Deriv.Steps.empty());
  return R;
}

/// `inc` without its precondition: x + 1 can overflow, so it fails.
const char *kFailingIncSource = R"(
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<u32>")]]
[[rc::returns("{n + 1} @ int<u32>")]]
unsigned int inc(unsigned int x) { return x + 1; }
)";

/// The function name and key of the one entry in \p Dir.
std::pair<std::string, uint64_t> onlyEntry(const std::string &Dir) {
  std::string Raw;
  for (const auto &E : fs::directory_iterator(Dir))
    if (E.path().extension() == ".rcv") {
      std::ifstream In(E.path(), std::ios::binary);
      Raw.assign(std::istreambuf_iterator<char>(In),
                 std::istreambuf_iterator<char>());
    }
  BinaryReader R(Raw);
  uint32_t Magic = 0, Format = 0;
  std::string Tool, Name;
  uint64_t Key = 0;
  EXPECT_TRUE(R.u32(Magic) && R.u32(Format) && R.str(Tool) && R.str(Name) &&
              R.u64(Key));
  return {Name, Key};
}

/// Caches the failing `inc` in the store directory \p Dir that \p Opts
/// names, rewrites its entry through DiskResultStore::put as verified and
/// trusted (a forgery whose envelope is valid), and returns what the next
/// session reports for `inc`.
ProgramResult verifyAfterTrustedForgery(const VerifyOptions &Opts,
                                        const std::string &Dir) {
  auto AP = compile(kFailingIncSource);
  {
    DiagnosticEngine Diags;
    Checker C(*AP, Diags);
    EXPECT_TRUE(C.buildEnv());
    EXPECT_FALSE(C.verifyFunctions({"inc"}, Opts).allVerified());
  }
  auto [Name, Key] = onlyEntry(Dir);
  EXPECT_EQ(Name, "inc");
  DiskResultStore DS(Dir);
  FnResult Entry;
  EXPECT_TRUE(DS.get("inc", Key, Entry));
  EXPECT_FALSE(Entry.Verified);
  Entry.Verified = Entry.Trusted = true;
  DS.put("inc", Key, Entry);

  DiagnosticEngine Diags;
  Checker C(*AP, Diags);
  EXPECT_TRUE(C.buildEnv());
  return C.verifyFunctions({"inc"}, Opts);
}

/// Four functions of the `inc` shape that each verify on their own.
const char *kIncFamilySource = R"(
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<u32>")]]
[[rc::returns("{n + 1} @ int<u32>")]]
[[rc::requires("{n <= 100}")]]
unsigned int inc1(unsigned int x) { return x + 1; }

[[rc::parameters("n: nat")]]
[[rc::args("n @ int<u32>")]]
[[rc::returns("{n + 2} @ int<u32>")]]
[[rc::requires("{n <= 100}")]]
unsigned int inc2(unsigned int x) { return x + 2; }

[[rc::parameters("n: nat")]]
[[rc::args("n @ int<u32>")]]
[[rc::returns("{n + 3} @ int<u32>")]]
[[rc::requires("{n <= 100}")]]
unsigned int inc3(unsigned int x) { return x + 3; }

[[rc::parameters("n: nat")]]
[[rc::args("n @ int<u32>")]]
[[rc::returns("{n + 4} @ int<u32>")]]
[[rc::requires("{n <= 100}")]]
unsigned int inc4(unsigned int x) { return x + 4; }
)";

/// The function names of the entries in \p Dir (an entry's file name
/// starts with its function's name).
std::set<std::string> entryNames(const std::string &Dir) {
  std::set<std::string> Names;
  std::error_code EC;
  for (const auto &E : fs::directory_iterator(Dir, EC))
    if (E.path().extension() == ".rcv") {
      const std::string File = E.path().filename().string();
      Names.insert(File.substr(0, File.find('.')));
    }
  return Names;
}

size_t countEntries(const std::string &Dir) {
  size_t N = 0;
  std::error_code EC;
  for (const auto &E : fs::directory_iterator(Dir, EC))
    if (E.path().extension() == ".rcv")
      ++N;
  return N;
}

/// Rewrites the payload of the one entry in \p Dir through \p Edit and
/// seals the envelope again (magic, format, tool, name, key, checksum), so
/// the forgery is well-formed and only the replay can catch it.
void rewriteOnlyEntry(const std::string &Dir,
                      const std::function<void(std::string &)> &Edit) {
  fs::path EntryPath;
  for (const auto &E : fs::directory_iterator(Dir))
    if (E.path().extension() == ".rcv")
      EntryPath = E.path();
  std::ifstream In(EntryPath, std::ios::binary);
  std::string Raw((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  In.close();

  BinaryReader R(Raw);
  uint32_t Magic = 0, Format = 0;
  std::string Tool, Name, Payload;
  uint64_t Key = 0, Checksum = 0;
  ASSERT_TRUE(R.u32(Magic) && R.u32(Format) && R.str(Tool) && R.str(Name) &&
              R.u64(Key) && R.str(Payload) && R.u64(Checksum));
  Edit(Payload);

  BinaryWriter W;
  W.u32(Magic);
  W.u32(Format);
  W.str(Tool);
  W.str(Name);
  W.u64(Key);
  W.str(Payload);
  W.u64(checksumBytes(Payload));
  std::ofstream Out(EntryPath, std::ios::binary | std::ios::trunc);
  Out.write(W.data().data(), static_cast<std::streamsize>(W.data().size()));
}

/// Replaces every length-prefixed occurrence of \p From in \p Payload, the
/// way the writer stores a rule or engine name, by \p To of the same
/// length, so the payload stays well-formed. Returns how many it replaced.
size_t renameInPayload(std::string &Payload, std::string_view From,
                       std::string_view To) {
  EXPECT_EQ(From.size(), To.size());
  BinaryWriter Pat, Rep;
  Pat.str(From);
  Rep.str(To);
  size_t N = 0;
  for (size_t At = Payload.find(Pat.data()); At != std::string::npos;
       At = Payload.find(Pat.data(), At + Rep.data().size())) {
    Payload.replace(At, Rep.data().size(), Rep.data());
    ++N;
  }
  return N;
}

} // namespace

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

namespace {

/// The kinds of label a derivation step can carry; the round trip must see
/// every one.
struct LabelKinds {
  bool Registry = false, Builtin = false, BitVector = false,
       Collections = false, Lemma = false;
};

/// Serializes \p R, reads it back and expects every step to survive: its
/// transcript, its label, its proposition and its hypothesis list, the
/// terms pointer-equal to the live ones (they are hash-consed, so a loaded
/// derivation replays exactly like a fresh one). Writing the loaded result
/// again must give the same bytes. Notes in \p Seen which kinds of label
/// the steps carried.
void expectRoundTrip(const FnResult &R, const lithium::RuleRegistry &Rules,
                     LabelKinds &Seen) {
  SCOPED_TRACE(R.Name);
  std::string Bytes = serializeFnResult(R);
  ASSERT_FALSE(Bytes.empty());

  FnResult L;
  ASSERT_TRUE(deserializeFnResult(Bytes, L));
  EXPECT_EQ(L.Name, R.Name);
  EXPECT_EQ(L.Verified, R.Verified);
  EXPECT_EQ(L.Trusted, R.Trusted);
  EXPECT_EQ(L.Error, R.Error);
  EXPECT_EQ(L.Stats.RuleApps, R.Stats.RuleApps);
  EXPECT_EQ(L.Stats.RulesUsed, R.Stats.RulesUsed);
  EXPECT_EQ(L.Stats.GoalSteps, R.Stats.GoalSteps);
  EXPECT_EQ(L.EvarsInstantiated, R.EvarsInstantiated);
  EXPECT_EQ(L.Rechecked, R.Rechecked);
  EXPECT_EQ(L.RecheckOk, R.RecheckOk);
  EXPECT_EQ(L.WallMillis, R.WallMillis);
  ASSERT_EQ(L.Deriv.Steps.size(), R.Deriv.Steps.size());

  for (size_t I = 0; I < R.Deriv.Steps.size(); ++I) {
    const lithium::DerivStep &A = R.Deriv.Steps[I];
    const lithium::DerivStep &B = L.Deriv.Steps[I];
    EXPECT_EQ(A.K, B.K);
    EXPECT_EQ(A.Rule, B.Rule);
    EXPECT_EQ(stepTranscript(A), stepTranscript(B));
    EXPECT_EQ(A.Manual, B.Manual);
    EXPECT_EQ(A.Prop, B.Prop);
    ASSERT_EQ(A.Hyps.size(), B.Hyps.size());
    for (size_t H = 0; H < A.Hyps.size(); ++H)
      EXPECT_EQ(A.Hyps[H], B.Hyps[H]);
    // Hypothesis lists are interned like terms: the loaded list is the
    // live one.
    EXPECT_EQ(A.Hyps, B.Hyps);

    std::string_view N = A.Rule.name();
    Seen.Registry |= Rules.hasRule(A.Rule);
    for (const lithium::BuiltinStep &BS : lithium::BuiltinSteps)
      Seen.Builtin |= N == BS.Name;
    Seen.BitVector |= N == "bitvector";
    Seen.Collections |= N == "multiset_solver" || N == "set_solver";
    Seen.Lemma |= N.starts_with("lemma:");
  }
  EXPECT_EQ(serializeFnResult(L), Bytes);
}

} // namespace

TEST(Store, SerializationRoundTripsAndReInternsTerms) {
  LabelKinds Seen;
  {
    FnResult R = verifiedInc();
    bool SawSideCond = false;
    for (const lithium::DerivStep &S : R.Deriv.Steps)
      SawSideCond |=
          S.K == lithium::DerivStep::SideCond && S.Prop && !S.Hyps.empty();
    EXPECT_TRUE(SawSideCond) << "test needs a side condition with hypotheses";

    auto AP = compile(kIncSource);
    DiagnosticEngine Diags;
    Checker C(*AP, Diags);
    ASSERT_TRUE(C.buildEnv());
    expectRoundTrip(R, C.rules(), Seen);

    // And the loaded derivation replays through the independent checker.
    FnResult L;
    ASSERT_TRUE(deserializeFnResult(serializeFnResult(R), L));
    ProofChecker PC(C.rules());
    EXPECT_TRUE(PC.check(L.Deriv).Ok);
  }

  // The case studies carry the labels `inc` never produces: built-in steps,
  // the bit-vector and collection solvers, and lemmas.
  for (const casestudies::CaseStudy &CS : casestudies::allCaseStudies()) {
    SCOPED_TRACE(CS.Id);
    auto AP = compile(CS.Source);
    ASSERT_NE(AP, nullptr);
    DiagnosticEngine Diags;
    Checker C(*AP, Diags);
    ASSERT_TRUE(C.buildEnv()) << Diags.render(CS.Source);
    VerifyOptions Opts;
    Opts.NoCache = true;
    ProgramResult PR = C.verifyFunctions(CS.Functions, Opts);
    EXPECT_TRUE(PR.allVerified());
    for (const FnResult &R : PR.Fns)
      expectRoundTrip(R, C.rules(), Seen);
  }
  EXPECT_TRUE(Seen.Registry);
  EXPECT_TRUE(Seen.Builtin);
  EXPECT_TRUE(Seen.BitVector);
  EXPECT_TRUE(Seen.Collections);
  EXPECT_TRUE(Seen.Lemma);
}

TEST(Store, DeserializeRejectsEveryTruncation) {
  FnResult R = verifiedInc();
  std::string Bytes = serializeFnResult(R);
  ASSERT_GT(Bytes.size(), 16u);
  // Every strict prefix must be a clean failure — the reader latches on the
  // first out-of-bounds read, never walking off the buffer.
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    FnResult L;
    EXPECT_FALSE(deserializeFnResult(Bytes.substr(0, Len), L))
        << "prefix of length " << Len << " accepted";
  }
  // Trailing garbage is rejected too (atEnd is part of the contract).
  FnResult L;
  EXPECT_FALSE(deserializeFnResult(Bytes + '\0', L));
}

TEST(Store, DeserializeSurvivesBitFlips) {
  // A flipped bit may still deserialize (e.g. a character inside an error
  // string) — that is what the envelope checksum is for — but it must never
  // crash or produce malformed term structure.
  FnResult R = verifiedInc();
  std::string Bytes = serializeFnResult(R);
  for (size_t I = 0; I < Bytes.size(); ++I) {
    std::string Mut = Bytes;
    Mut[I] = static_cast<char>(Mut[I] ^ 0x40);
    FnResult L;
    (void)deserializeFnResult(Mut, L);
  }
  SUCCEED();
}

//===----------------------------------------------------------------------===//
// Disk tier: envelope validation and atomic publication
//===----------------------------------------------------------------------===//

TEST(Store, DiskTierRoundTripsAndRejectsCorruption) {
  TempDir Dir;
  DiskResultStore DS(Dir.str());
  FnResult R = verifiedInc();
  const uint64_t Key = 0x1234abcd5678ef01ULL;

  DS.put("inc", Key, R);
  EXPECT_EQ(countEntries(Dir.str()), 1u);
  std::string Path = DS.entryPath("inc", Key);
  ASSERT_TRUE(fs::exists(Path));

  FnResult L;
  ASSERT_TRUE(DS.get("inc", Key, L));
  EXPECT_EQ(L.Name, R.Name);
  EXPECT_EQ(L.Deriv.Steps.size(), R.Deriv.Steps.size());

  // Wrong key: a miss, not corruption.
  EXPECT_FALSE(DS.get("inc", Key + 1, L));
  EXPECT_EQ(DS.corruptDrops(), 0u);

  // Bit-flip every byte position in turn: always a clean miss, and the
  // poisoned file is unlinked so the slot heals.
  std::ifstream In(Path, std::ios::binary);
  std::string Orig((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  In.close();
  uint64_t Drops = 0;
  for (size_t I = 0; I < Orig.size(); I += 7) {
    std::string Mut = Orig;
    Mut[I] = static_cast<char>(Mut[I] ^ 0x01);
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Mut.data(), static_cast<std::streamsize>(Mut.size()));
    Out.close();
    EXPECT_FALSE(DS.get("inc", Key, L)) << "flipped byte " << I;
    EXPECT_FALSE(fs::exists(Path)) << "corrupt entry not unlinked";
    ++Drops;
  }
  EXPECT_EQ(DS.corruptDrops(), Drops);

  // Truncations are rejected the same way.
  for (size_t Len : {size_t(0), size_t(3), Orig.size() / 2, Orig.size() - 1}) {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Orig.data(), static_cast<std::streamsize>(Len));
    Out.close();
    EXPECT_FALSE(DS.get("inc", Key, L)) << "truncated to " << Len;
    EXPECT_FALSE(fs::exists(Path));
  }

  // An intact re-publication hits again.
  DS.put("inc", Key, R);
  EXPECT_TRUE(DS.get("inc", Key, L));
  // No temp files left behind by the atomic-rename protocol.
  size_t NonEntry = 0;
  for (const auto &E : fs::directory_iterator(Dir.str()))
    if (E.path().extension() != ".rcv")
      ++NonEntry;
  EXPECT_EQ(NonEntry, 0u);
}

TEST(Store, TwoDiskStoresOnOneDirectoryKeepEveryEntry) {
  // Two sessions of one process that share a CacheDir each open their own
  // disk tier; their temp files must not collide.
  TempDir Dir;
  DiskResultStore A(Dir.str()), B(Dir.str());
  constexpr unsigned kPerStore = 2000;
  auto NameOf = [](char Store, unsigned I) {
    return std::string(1, Store) + "_fn_" + std::to_string(I);
  };
  auto Fill = [&](DiskResultStore &S, char Store) {
    FnResult R;
    for (unsigned I = 0; I < kPerStore; ++I) {
      R.Name = NameOf(Store, I);
      S.put(R.Name, I, R);
    }
  };
  std::thread TA(Fill, std::ref(A), 'a'), TB(Fill, std::ref(B), 'b');
  TA.join();
  TB.join();

  DiskResultStore Reader(Dir.str());
  unsigned Lost = 0;
  for (char Store : {'a', 'b'})
    for (unsigned I = 0; I < kPerStore; ++I) {
      FnResult Out;
      Lost += !Reader.get(NameOf(Store, I), I, Out) ||
              Out.Name != NameOf(Store, I);
    }
  EXPECT_EQ(Lost, 0u);
  EXPECT_EQ(Reader.corruptDrops(), 0u);
  EXPECT_EQ(countEntries(Dir.str()), 2 * kPerStore);
}

//===----------------------------------------------------------------------===//
// Checker integration: cross-session reuse, replay trust, fingerprints
//===----------------------------------------------------------------------===//

TEST(Store, SecondSessionIsServedFromDiskAndReplayed) {
  TempDir Dir;
  auto AP = compile(kIncSource);
  VerifyOptions Opts;
  Opts.Recheck = true;
  Opts.CacheDir = Dir.str();

  FnResult First;
  {
    DiagnosticEngine Diags;
    Checker C(*AP, Diags);
    ASSERT_TRUE(C.buildEnv());
    ProgramResult PR = C.verifyFunctions({"inc"}, Opts);
    EXPECT_EQ(PR.CacheMisses, 1u);
    EXPECT_EQ(PR.CacheHits, 0u);
    ASSERT_TRUE(PR.allVerified());
    First = PR.Fns[0];
  }
  EXPECT_EQ(countEntries(Dir.str()), 1u);

  // A brand-new session (fresh Checker, same program): served from disk,
  // replayed through the ProofChecker before being surfaced.
  DiagnosticEngine Diags;
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv());
  ProgramResult PR = C.verifyFunctions({"inc"}, Opts);
  EXPECT_EQ(PR.CacheHits, 1u);
  EXPECT_EQ(PR.L2Hits, 1u);
  EXPECT_EQ(PR.L1Hits, 0u);
  EXPECT_EQ(PR.ReplayedHits, 1u);
  EXPECT_EQ(PR.ReplayFailures, 0u);
  EXPECT_EQ(PR.CacheMisses, 0u);
  ASSERT_EQ(PR.Fns.size(), 1u);
  EXPECT_TRUE(PR.Fns[0].CacheHit);
  EXPECT_TRUE(PR.Fns[0].Rechecked);
  EXPECT_TRUE(PR.Fns[0].RecheckOk);
  // The surfaced result matches the fresh one.
  EXPECT_EQ(PR.Fns[0].Verified, First.Verified);
  EXPECT_EQ(PR.Fns[0].Stats.RuleApps, First.Stats.RuleApps);
  EXPECT_EQ(PR.Fns[0].Deriv.Steps.size(), First.Deriv.Steps.size());

  // Validated hits were promoted into L1: a repeat run in the same session
  // no longer touches the disk tier.
  ProgramResult PR2 = C.verifyFunctions({"inc"}, Opts);
  EXPECT_EQ(PR2.CacheHits, 1u);
  EXPECT_EQ(PR2.L1Hits, 1u);
  EXPECT_EQ(PR2.L2Hits, 0u);
  EXPECT_EQ(PR2.ReplayedHits, 0u);
}

TEST(Store, OneFunctionEditReVerifiesOnlyThatFunction) {
  // The incremental workflow on slist: four fresh sessions that share only
  // the cache directory. The edit widens whitespace on one line inside
  // slist_pop, so the line count and every other function's content hash
  // stay the same.
  const casestudies::CaseStudy *CS = casestudies::caseStudy("slist");
  ASSERT_NE(CS, nullptr);
  ASSERT_EQ(CS->Functions.size(), 3u);
  const std::string Needle = "  size_t v = h->value;";
  std::string Edited = CS->Source;
  size_t At = Edited.find(Needle);
  ASSERT_NE(At, std::string::npos);
  Edited.replace(At, Needle.size(), "  size_t v =  h->value;");

  TempDir Dir;
  VerifyOptions Opts;
  Opts.Recheck = true;
  Opts.CacheDir = Dir.str();
  auto Run = [&](const std::string &Src) {
    auto AP = compile(Src);
    if (!AP)
      return ProgramResult();
    DiagnosticEngine Diags;
    Checker C(*AP, Diags);
    EXPECT_TRUE(C.buildEnv()) << Diags.render(Src);
    ProgramResult PR = C.verifyFunctions(CS->Functions, Opts);
    for (const FnResult &R : PR.Fns)
      EXPECT_TRUE(R.Verified && R.Rechecked && R.RecheckOk) << R.Name;
    return PR;
  };

  ProgramResult Cold = Run(CS->Source);
  EXPECT_EQ(Cold.CacheMisses, 3u);

  ProgramResult Warm = Run(CS->Source);
  EXPECT_EQ(Warm.CacheMisses, 0u);
  EXPECT_EQ(Warm.L2Hits, 3u);
  EXPECT_EQ(Warm.ReplayedHits, 3u);

  ProgramResult AfterEdit = Run(Edited);
  EXPECT_EQ(AfterEdit.CacheMisses, 1u);
  EXPECT_EQ(AfterEdit.L2Hits, 2u);
  EXPECT_EQ(AfterEdit.ReplayedHits, 2u);
  for (const FnResult &R : AfterEdit.Fns)
    EXPECT_EQ(R.CacheHit, R.Name != "slist_pop") << R.Name;

  ProgramResult WarmAgain = Run(Edited);
  EXPECT_EQ(WarmAgain.CacheMisses, 0u);
}

TEST(Store, CaseStudiesReadTheSameColdAndReplayedFromL2) {
  // The disk tier changes no verdict and no statistic: for every Figure 7
  // case study, a session served from a populated L2, each hit replayed,
  // renders the same stable JSON as the cold session that populated it.
  for (const casestudies::CaseStudy &CS : casestudies::allCaseStudies()) {
    SCOPED_TRACE(CS.Id);
    TempDir Dir;
    VerifyOptions Opts;
    Opts.Recheck = true;
    Opts.CacheDir = Dir.str();
    auto AP = compile(CS.Source);
    ASSERT_NE(AP, nullptr);
    auto Run = [&] {
      DiagnosticEngine Diags;
      Checker C(*AP, Diags);
      EXPECT_TRUE(C.buildEnv()) << Diags.render(CS.Source);
      return C.verifyFunctions(CS.Functions, Opts);
    };
    ProgramResult Cold = Run();
    EXPECT_TRUE(Cold.allVerified());
    EXPECT_EQ(Cold.CacheHits, 0u);
    ProgramResult Warm = Run();
    EXPECT_EQ(Warm.L2Hits, CS.Functions.size());
    EXPECT_EQ(Warm.ReplayFailures, 0u);
    for (const FnResult &R : Warm.Fns)
      EXPECT_TRUE(R.Trusted || (R.Rechecked && R.RecheckOk)) << R.Name;
    EXPECT_EQ(Warm.toStableJson(), Cold.toStableJson());
  }
}

TEST(Store, EntryOfANoRecheckRunIsReplayedByARecheckingRun) {
  // Recheck is not part of the content key, so one cache directory serves
  // runs with and without --no-recheck; a rechecking run replays what the
  // other published.
  TempDir Dir;
  auto AP = compile(kIncSource);
  VerifyOptions Opts;
  Opts.CacheDir = Dir.str();
  Opts.Recheck = false;
  {
    DiagnosticEngine Diags;
    Checker C(*AP, Diags);
    ASSERT_TRUE(C.buildEnv());
    ASSERT_TRUE(C.verifyFunctions({"inc"}, Opts).allVerified());
  }
  Opts.Recheck = true;
  DiagnosticEngine Diags;
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv());
  ProgramResult PR = C.verifyFunctions({"inc"}, Opts);
  EXPECT_EQ(PR.L2Hits, 1u);
  EXPECT_EQ(PR.ReplayedHits, 1u);
  ASSERT_EQ(PR.Fns.size(), 1u);
  EXPECT_TRUE(PR.Fns[0].Rechecked && PR.Fns[0].RecheckOk);
}

TEST(Store, NoRecheckDowngradesToHashTrust) {
  TempDir Dir;
  auto AP = compile(kIncSource);
  VerifyOptions Opts;
  Opts.Recheck = false;
  Opts.CacheDir = Dir.str();
  {
    DiagnosticEngine Diags;
    Checker C(*AP, Diags);
    ASSERT_TRUE(C.buildEnv());
    (void)C.verifyFunctions({"inc"}, Opts);
  }
  DiagnosticEngine Diags;
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv());
  ProgramResult PR = C.verifyFunctions({"inc"}, Opts);
  EXPECT_EQ(PR.L2Hits, 1u);
  EXPECT_EQ(PR.ReplayedHits, 0u) << "--no-recheck must not replay";
  EXPECT_TRUE(PR.Fns[0].Verified);
}

TEST(Store, TamperedEntryFailsReplayAndIsReVerified) {
  TempDir Dir;
  auto AP = compile(kIncSource);
  VerifyOptions Opts;
  Opts.Recheck = true;
  Opts.CacheDir = Dir.str();
  {
    DiagnosticEngine Diags;
    Checker C(*AP, Diags);
    ASSERT_TRUE(C.buildEnv());
    (void)C.verifyFunctions({"inc"}, Opts);
  }
  ASSERT_EQ(countEntries(Dir.str()), 1u);

  // Forge a *well-formed* entry whose derivation claims a false side
  // condition: the envelope (magic/version/key/checksum) is valid, so only
  // the replay can catch it.
  rewriteOnlyEntry(Dir.str(), [](std::string &Payload) {
    FnResult Entry;
    ASSERT_TRUE(deserializeFnResult(Payload, Entry));
    bool Tampered = false;
    for (lithium::DerivStep &S : Entry.Deriv.Steps)
      if (S.K == lithium::DerivStep::SideCond && S.Prop) {
        S.Prop = mkLe(mkNat(5), mkNat(3));
        S.Hyps = {};
        Tampered = true;
        break;
      }
    ASSERT_TRUE(Tampered);
    Payload = serializeFnResult(Entry);
  });

  // The forged entry passes the envelope but fails the replay: it is
  // dropped and the function re-verified from scratch — and the fresh
  // (valid) result is re-published.
  DiagnosticEngine Diags;
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv());
  ProgramResult PR = C.verifyFunctions({"inc"}, Opts);
  EXPECT_EQ(PR.CacheHits, 0u);
  EXPECT_EQ(PR.CacheMisses, 1u);
  EXPECT_EQ(PR.ReplayFailures, 1u);
  EXPECT_TRUE(PR.allVerified());
  EXPECT_TRUE(PR.allRechecksOk());
  EXPECT_EQ(countEntries(Dir.str()), 1u) << "healed entry re-published";
}

TEST(Store, EntryNamingAnUnregisteredRuleFailsReplayAndIsReVerified) {
  // A well-formed entry whose derivation applies a rule no session of this
  // process registered: loading it gives the name a label all the same,
  // and the replay rejects the step, naming the rule. That is a replay
  // failure, not a corrupt drop, and the function is verified afresh.
  TempDir Dir;
  auto AP = compile(kIncSource);
  VerifyOptions Opts;
  Opts.Recheck = true;
  Opts.CacheDir = Dir.str();
  {
    DiagnosticEngine Diags;
    Checker C(*AP, Diags);
    ASSERT_TRUE(C.buildEnv());
    ASSERT_TRUE(C.verifyFunctions({"inc"}, Opts).allVerified());
  }
  std::string Forged;
  rewriteOnlyEntry(Dir.str(), [&Forged](std::string &Payload) {
    // Every function body starts with a T-STMT application.
    EXPECT_GT(renameInPayload(Payload, "T-STMT", "T-FAKE"), 0u);
    Forged = Payload;
  });

  DiagnosticEngine Diags;
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv());
  ProgramResult PR = C.verifyFunctions({"inc"}, Opts);
  EXPECT_EQ(PR.ReplayFailures, 1u);
  EXPECT_EQ(PR.CorruptDrops, 0u);
  EXPECT_EQ(PR.CacheHits, 0u);
  EXPECT_EQ(PR.CacheMisses, 1u);
  EXPECT_TRUE(PR.allVerified());
  EXPECT_TRUE(PR.allRechecksOk());

  FnResult Entry;
  ASSERT_TRUE(deserializeFnResult(Forged, Entry));
  ProofCheckResult Replay = ProofChecker(C.rules()).check(Entry.Deriv);
  EXPECT_FALSE(Replay.Ok);
  EXPECT_EQ(Replay.Error, "derivation applies unknown rule 'T-FAKE'");
}

TEST(Store, ConcurrentLoadsGiveAnUnseenNameOneLabel) {
  // Two threads load the same entries at once, and the entries name rules
  // and solver engines this process has never seen: each name must come
  // back as one label that renders it. (check.sh runs test_store under
  // TSan, which watches the label table here.)
  std::map<std::string, std::string> Fresh; // name -> unseen name
  std::vector<std::string> Payloads;
  std::vector<std::vector<std::string>> Want; // each payload's step names
  for (const char *Id : {"bitmap", "hashmap"}) {
    const casestudies::CaseStudy *CS = casestudies::caseStudy(Id);
    ASSERT_NE(CS, nullptr);
    auto AP = compile(CS->Source);
    ASSERT_NE(AP, nullptr);
    DiagnosticEngine Diags;
    Checker C(*AP, Diags);
    ASSERT_TRUE(C.buildEnv());
    VerifyOptions Opts;
    Opts.NoCache = true;
    for (const FnResult &R : C.verifyFunctions(CS->Functions, Opts).Fns) {
      std::string Bytes = serializeFnResult(R);
      std::vector<std::string> Names;
      for (const lithium::DerivStep &S : R.Deriv.Steps) {
        std::string N(S.Rule.name());
        if (N.size() >= 6 && !Fresh.count(N)) {
          // "%<n>" padded to the name's length: no rule or engine name
          // starts with '%'.
          std::string F = "%" + std::to_string(Fresh.size());
          Fresh[N] = F + std::string(N.size() - F.size(), '#');
        }
        Names.push_back(Fresh.count(N) ? Fresh[N] : N);
      }
      for (const auto &[From, To] : Fresh)
        renameInPayload(Bytes, From, To);
      Payloads.push_back(std::move(Bytes));
      Want.push_back(std::move(Names));
    }
  }
  ASSERT_GT(Fresh.size(), 5u);

  std::atomic<bool> Go{false};
  auto Load = [&](std::vector<std::vector<lithium::Label>> &Out) {
    while (!Go.load())
      std::this_thread::yield();
    for (const std::string &P : Payloads) {
      FnResult L;
      Out.emplace_back();
      if (!deserializeFnResult(P, L))
        continue;
      for (const lithium::DerivStep &S : L.Deriv.Steps)
        Out.back().push_back(S.Rule);
    }
  };
  std::vector<std::vector<lithium::Label>> A, B;
  std::thread TA(Load, std::ref(A)), TB(Load, std::ref(B));
  Go = true;
  TA.join();
  TB.join();

  EXPECT_EQ(A, B);
  ASSERT_EQ(A.size(), Want.size());
  for (size_t P = 0; P < A.size(); ++P) {
    ASSERT_EQ(A[P].size(), Want[P].size()) << "payload " << P;
    for (size_t I = 0; I < A[P].size(); ++I)
      EXPECT_EQ(A[P][I].name(), Want[P][I]);
  }
}

TEST(Store, TrustedFlagInAnL2EntryDoesNotVerify) {
  TempDir Dir;
  VerifyOptions Opts;
  Opts.Recheck = true;
  Opts.CacheDir = Dir.str();
  ProgramResult PR = verifyAfterTrustedForgery(Opts, Dir.str());
  ASSERT_EQ(PR.Fns.size(), 1u);
  EXPECT_FALSE(PR.Fns[0].Verified);
  EXPECT_FALSE(PR.Fns[0].Trusted);
  EXPECT_EQ(PR.CacheHits, 0u);
  EXPECT_EQ(PR.ReplayFailures, 1u);
}

TEST(Store, StoredFailureOfAVerifyingFunctionIsReVerified) {
  // A verifying `inc` whose L2 entry was rewritten, envelope intact, as a
  // failure: a failure has no proof to replay, so the next session must
  // verify the function instead of hiding it behind the stored verdict.
  TempDir Dir;
  auto AP = compile(kIncSource);
  VerifyOptions Opts;
  Opts.Recheck = true;
  Opts.CacheDir = Dir.str();
  {
    DiagnosticEngine Diags;
    Checker C(*AP, Diags);
    ASSERT_TRUE(C.buildEnv());
    ASSERT_TRUE(C.verifyFunctions({"inc"}, Opts).allVerified());
  }
  auto [Name, Key] = onlyEntry(Dir.str());
  ASSERT_EQ(Name, "inc");
  {
    DiskResultStore DS(Dir.str());
    FnResult Entry;
    ASSERT_TRUE(DS.get("inc", Key, Entry));
    Entry.Verified = false;
    Entry.Rechecked = Entry.RecheckOk = false;
    Entry.Error = "forged failure";
    DS.put("inc", Key, Entry);
  }

  DiagnosticEngine Diags;
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv());
  ProgramResult PR = C.verifyFunctions({"inc"}, Opts);
  ASSERT_EQ(PR.Fns.size(), 1u);
  EXPECT_TRUE(PR.Fns[0].Verified) << PR.Fns[0].Error;
  EXPECT_TRUE(PR.allRechecksOk());
  EXPECT_EQ(PR.CacheHits, 0u);
  EXPECT_EQ(PR.CacheMisses, 1u);
  FnResult Healed;
  ASSERT_TRUE(DiskResultStore(Dir.str()).get("inc", Key, Healed));
  EXPECT_TRUE(Healed.Verified) << "the entry is re-published";
}

TEST(Store, StoredFailureThatStillFailsKeepsItsEntryFile) {
  TempDir Dir;
  auto AP = compile(kFailingIncSource);
  VerifyOptions Opts;
  Opts.Recheck = true;
  Opts.CacheDir = Dir.str();
  auto Session = [&] {
    DiagnosticEngine Diags;
    Checker C(*AP, Diags);
    EXPECT_TRUE(C.buildEnv());
    return C.verifyFunctions({"inc"}, Opts);
  };
  ASSERT_FALSE(Session().allVerified());
  auto [Name, Key] = onlyEntry(Dir.str());
  const std::string Path = DiskResultStore(Dir.str()).entryPath(Name, Key);
  struct stat Before {};
  ASSERT_EQ(::stat(Path.c_str(), &Before), 0);

  ProgramResult PR = Session();
  ASSERT_EQ(PR.Fns.size(), 1u);
  EXPECT_FALSE(PR.Fns[0].Verified);
  EXPECT_EQ(PR.CacheMisses, 1u) << "the failure was verified afresh";
  struct stat After {};
  ASSERT_EQ(::stat(Path.c_str(), &After), 0);
  EXPECT_EQ(Before.st_ino, After.st_ino) << "the same failure is not rewritten";
}

TEST(Store, EntryWithOlderFormatIsACleanMissAndReVerified) {
  TempDir Dir;
  auto AP = compile(kIncSource);
  VerifyOptions Opts;
  Opts.Recheck = true;
  Opts.CacheDir = Dir.str();
  {
    DiagnosticEngine Diags;
    Checker C(*AP, Diags);
    ASSERT_TRUE(C.buildEnv());
    (void)C.verifyFunctions({"inc"}, Opts);
  }
  ASSERT_EQ(countEntries(Dir.str()), 1u);

  // Re-stamp the entry as format 3 (the layout whose checksum was a
  // byte-at-a-time FNV-1a). Magic, tool version, name, key and checksum
  // stay valid, and the payload would even parse: only the version field
  // differs.
  fs::path EntryPath;
  for (const auto &E : fs::directory_iterator(Dir.str()))
    if (E.path().extension() == ".rcv")
      EntryPath = E.path();
  std::string Raw;
  {
    std::ifstream In(EntryPath, std::ios::binary);
    Raw.assign(std::istreambuf_iterator<char>(In),
               std::istreambuf_iterator<char>());
  }
  BinaryReader R(Raw);
  uint32_t Magic = 0, Format = 0;
  std::string Tool, Name, Payload;
  uint64_t Key = 0, Checksum = 0;
  ASSERT_TRUE(R.u32(Magic) && R.u32(Format) && R.str(Tool) && R.str(Name) &&
              R.u64(Key) && R.str(Payload) && R.u64(Checksum));
  ASSERT_EQ(Format, kFormatVersion);
  ASSERT_EQ(kFormatVersion, 4u);
  BinaryWriter W;
  W.u32(Magic);
  W.u32(3);
  W.str(Tool);
  W.str(Name);
  W.u64(Key);
  W.str(Payload);
  W.u64(Checksum);
  {
    std::ofstream Out(EntryPath, std::ios::binary | std::ios::trunc);
    Out.write(W.data().data(), static_cast<std::streamsize>(W.data().size()));
  }

  DiagnosticEngine Diags;
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv());
  ProgramResult PR = C.verifyFunctions({"inc"}, Opts);
  EXPECT_EQ(PR.CacheHits, 0u);
  EXPECT_EQ(PR.CacheMisses, 1u);
  EXPECT_EQ(PR.ReplayedHits, 0u) << "an old-format entry is never replayed";
  EXPECT_EQ(PR.ReplayFailures, 0u);
  EXPECT_EQ(PR.CorruptDrops, 1u);
  EXPECT_TRUE(PR.allVerified());
  EXPECT_TRUE(PR.allRechecksOk());
  EXPECT_EQ(countEntries(Dir.str()), 1u) << "re-verified entry re-published";

  // The re-published entry is in the current format: a fresh session hits.
  DiagnosticEngine Diags2;
  Checker C2(*AP, Diags2);
  ASSERT_TRUE(C2.buildEnv());
  ProgramResult PR2 = C2.verifyFunctions({"inc"}, Opts);
  EXPECT_EQ(PR2.L2Hits, 1u);
  EXPECT_EQ(PR2.ReplayFailures, 0u);
}

TEST(Store, EditedSpecForcesMiss) {
  TempDir Dir;
  VerifyOptions Opts;
  Opts.Recheck = true;
  Opts.CacheDir = Dir.str();
  {
    auto AP = compile(kIncSource);
    DiagnosticEngine Diags;
    Checker C(*AP, Diags);
    ASSERT_TRUE(C.buildEnv());
    (void)C.verifyFunctions({"inc"}, Opts);
  }
  // Only the rc::requires bound changed; body and layout are identical.
  auto AP = compile(kIncEditedSpec);
  DiagnosticEngine Diags;
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv());
  ProgramResult PR = C.verifyFunctions({"inc"}, Opts);
  EXPECT_EQ(PR.CacheHits, 0u) << "edited spec must not reuse the old proof";
  EXPECT_EQ(PR.CacheMisses, 1u);
  EXPECT_TRUE(PR.allVerified());
}

TEST(Store, EditedFnTypedefSpecReVerifiesItsUser) {
  // fn<step_t> names a function-type typedef, whose annotations are part
  // of every content key: editing the typedef's spec must miss the warm
  // entry of the function that takes a fn<step_t>.
  auto Source = [](const char *StepReturns) {
    return std::string(R"(
typedef
[[rc::parameters("x: nat")]]
[[rc::args("x @ int<size_t>")]]
[[rc::returns(")") + StepReturns + R"(")]]
[[rc::requires("{x <= 100}")]]
size_t step_t(size_t);

[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>", "fn<step_t>")]]
[[rc::returns("{n + 2} @ int<size_t>")]]
[[rc::requires("{n <= 10}")]]
size_t twostep(size_t n, step_t* f) { return f(f(n)); }
)";
  };
  TempDir Dir;
  VerifyOptions Opts;
  Opts.Recheck = true;
  Opts.CacheDir = Dir.str();
  auto Run = [&](const std::string &Src) {
    auto AP = compile(Src);
    DiagnosticEngine Diags;
    Checker C(*AP, Diags);
    EXPECT_TRUE(C.buildEnv()) << Diags.render(Src);
    return C.verifyFunctions({"twostep"}, Opts);
  };
  const std::string Before = Source("{x + 1} @ int<size_t>");
  EXPECT_TRUE(Run(Before).allVerified());
  EXPECT_EQ(Run(Before).CacheHits, 1u) << "the warm run is served from L2";

  ProgramResult Edited = Run(Source("{x + 2} @ int<size_t>"));
  EXPECT_EQ(Edited.CacheHits, 0u);
  EXPECT_EQ(Edited.CacheMisses, 1u);
  EXPECT_FALSE(Edited.allVerified()) << "f(f(n)) is now n + 4";
}

TEST(Store, SessionFingerprintCoversRegisteredRules) {
  TempDir Dir;
  auto AP = compile(kIncSource);
  VerifyOptions Opts;
  Opts.Recheck = true;
  Opts.CacheDir = Dir.str();
  {
    DiagnosticEngine Diags;
    Checker C(*AP, Diags);
    ASSERT_TRUE(C.buildEnv());
    (void)C.verifyFunctions({"inc"}, Opts);
  }
  // A session with an extra simplification rule has a different session
  // fingerprint: the persistent entry self-invalidates.
  DiagnosticEngine Diags;
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv());
  C.solver().simplifier().addRule(
      {"noop-extension", true, [](TermRef) -> TermRef { return nullptr; }});
  ProgramResult PR = C.verifyFunctions({"inc"}, Opts);
  EXPECT_EQ(PR.CacheHits, 0u)
      << "a mutated session must not trust entries of the unmutated one";
  EXPECT_EQ(PR.CacheMisses, 1u);
}

TEST(Store, NoCacheBypassesEveryTier) {
  TempDir Dir;
  auto AP = compile(kIncSource);
  DiagnosticEngine Diags;
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv());
  VerifyOptions Opts;
  Opts.CacheDir = Dir.str();
  Opts.NoCache = true;
  (void)C.verifyFunctions({"inc"}, Opts);
  ProgramResult PR = C.verifyFunctions({"inc"}, Opts);
  EXPECT_EQ(PR.CacheHits, 0u) << "--no-cache must re-verify";
  EXPECT_EQ(PR.CacheMisses, 1u);
  EXPECT_EQ(countEntries(Dir.str()), 0u) << "--no-cache must not write";
}

TEST(Store, EachRunsCacheDirNamesTheDiskTier) {
  // One session, four runs: without a CacheDir, on directory A, on B, and
  // with NoCache. Each run's CacheDir alone decides which disk tier it
  // probes and publishes to; L1 serves whatever the session verified.
  TempDir A, B;
  auto AP = compile(kIncFamilySource);
  ASSERT_NE(AP, nullptr);
  VerifyOptions Opts;
  Opts.Recheck = true;
  {
    // Another session leaves inc3 in B.
    DiagnosticEngine Diags;
    Checker Other(*AP, Diags);
    ASSERT_TRUE(Other.buildEnv());
    Opts.CacheDir = B.str();
    ASSERT_TRUE(Other.verifyFunctions({"inc3"}, Opts).allVerified());
  }
  using Names = std::set<std::string>;
  ASSERT_EQ(entryNames(B.str()), Names({"inc3"}));

  DiagnosticEngine Diags;
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv());

  // 1. No CacheDir: L1 only.
  Opts.CacheDir.clear();
  ProgramResult R1 = C.verifyFunctions({"inc1"}, Opts);
  EXPECT_TRUE(R1.allVerified());
  EXPECT_EQ(R1.CacheMisses, 1u);
  EXPECT_EQ(R1.L1Hits, 0u);
  EXPECT_EQ(R1.L2Hits, 0u);
  EXPECT_EQ(entryNames(A.str()), Names());
  EXPECT_EQ(entryNames(B.str()), Names({"inc3"}));

  // 2. On A: inc1 is an L1 hit, which writes nothing; inc2 is verified and
  // published to L1 and A.
  Opts.CacheDir = A.str();
  ProgramResult R2 = C.verifyFunctions({"inc1", "inc2"}, Opts);
  EXPECT_TRUE(R2.allVerified());
  EXPECT_EQ(R2.CacheMisses, 1u);
  EXPECT_EQ(R2.L1Hits, 1u);
  EXPECT_EQ(R2.L2Hits, 0u);
  EXPECT_EQ(entryNames(A.str()), Names({"inc2"}));
  EXPECT_EQ(entryNames(B.str()), Names({"inc3"}));

  // 3. On B: inc1 and inc2 from L1, inc3 from B (replayed), inc4 verified
  // and published to B, not to A.
  Opts.CacheDir = B.str();
  ProgramResult R3 = C.verifyFunctions({"inc1", "inc2", "inc3", "inc4"}, Opts);
  EXPECT_TRUE(R3.allVerified());
  EXPECT_EQ(R3.CacheMisses, 1u);
  EXPECT_EQ(R3.L1Hits, 2u);
  EXPECT_EQ(R3.L2Hits, 1u);
  EXPECT_EQ(R3.ReplayedHits, 1u);
  EXPECT_EQ(entryNames(A.str()), Names({"inc2"}));
  EXPECT_EQ(entryNames(B.str()), Names({"inc3", "inc4"}));

  // 4. NoCache, with B still named: no tier is probed or written.
  Opts.NoCache = true;
  ProgramResult R4 = C.verifyFunctions({"inc1", "inc2", "inc3", "inc4"}, Opts);
  EXPECT_TRUE(R4.allVerified());
  EXPECT_EQ(R4.CacheMisses, 4u);
  EXPECT_EQ(R4.CacheHits, 0u);
  EXPECT_EQ(R4.L1Hits, 0u);
  EXPECT_EQ(R4.L2Hits, 0u);
  EXPECT_EQ(entryNames(A.str()), Names({"inc2"}));
  EXPECT_EQ(entryNames(B.str()), Names({"inc3", "inc4"}));
}

//===----------------------------------------------------------------------===//
// Hostile files at entry paths (anyone who can write the cache directory
// can plant them)
//===----------------------------------------------------------------------===//

namespace {
/// Publishes `inc` into a fresh cache directory, lets \p Plant put a file
/// of its choosing at the entry's path, and checks that the next session
/// drops it as corrupt, re-verifies `inc` and publishes a regular entry in
/// its place.
void expectPlantedEntryIsReVerified(
    const std::function<void(const std::string &)> &Plant) {
  TempDir Dir;
  auto AP = compile(kIncSource);
  VerifyOptions Opts;
  Opts.Recheck = true;
  Opts.CacheDir = Dir.str();
  {
    DiagnosticEngine Diags;
    Checker C(*AP, Diags);
    ASSERT_TRUE(C.buildEnv());
    ASSERT_TRUE(C.verifyFunctions({"inc"}, Opts).allVerified());
  }
  auto [Name, Key] = onlyEntry(Dir.str());
  const std::string Path = DiskResultStore(Dir.str()).entryPath(Name, Key);
  ASSERT_TRUE(fs::remove(Path));
  Plant(Path);

  DiagnosticEngine Diags;
  Checker C(*AP, Diags);
  ASSERT_TRUE(C.buildEnv());
  ProgramResult PR = C.verifyFunctions({"inc"}, Opts);
  EXPECT_EQ(PR.CacheHits, 0u);
  EXPECT_EQ(PR.CacheMisses, 1u);
  EXPECT_EQ(PR.CorruptDrops, 1u);
  EXPECT_TRUE(PR.allVerified());
  EXPECT_TRUE(PR.allRechecksOk());
  EXPECT_TRUE(fs::is_regular_file(fs::symlink_status(Path)))
      << "the re-verified result is published as a regular file";
}
} // namespace

TEST(Store, FifoAtAnEntryPathIsDroppedNotWaitedOn) {
  // Opening a FIFO for reading waits for a writer that never comes.
  expectPlantedEntryIsReVerified([](const std::string &Path) {
    ASSERT_EQ(::mkfifo(Path.c_str(), 0600), 0);
  });
}

TEST(Store, SymlinkAtAnEntryPathIsDroppedNotFollowed) {
  // Followed, the link reads zeros until memory runs out.
  expectPlantedEntryIsReVerified([](const std::string &Path) {
    fs::create_symlink("/dev/zero", Path);
  });
}

//===----------------------------------------------------------------------===//
// The sharded in-memory tier under concurrent jobs (run under TSan by
// scripts/check.sh)
//===----------------------------------------------------------------------===//

TEST(Store, MemoryTierServesConcurrentPutAndGet) {
  MemoryResultStore S;
  constexpr unsigned kThreads = 4, kNames = 64, kRounds = 200;
  auto NameOf = [](unsigned I) { return "fn_" + std::to_string(I); };
  std::atomic<unsigned> BadHits{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < kThreads; ++T)
    Threads.emplace_back([&, T] {
      FnResult R;
      for (unsigned Round = 0; Round < kRounds; ++Round)
        for (unsigned I = T; I < kNames + T; ++I) {
          const std::string Name = NameOf(I % kNames);
          const uint64_t Key = I % 3;
          R.Name = Name;
          R.EvarsInstantiated = static_cast<unsigned>(Key);
          S.put(Name, Key, R);
          FnResult Out;
          if (S.get(Name, Key, Out) &&
              (Out.Name != Name || Out.EvarsInstantiated != Key))
            ++BadHits;
        }
    });
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_EQ(BadHits.load(), 0u) << "a hit returned another entry's result";
  // Afterwards the store still serves every name it is given.
  for (unsigned I = 0; I < kNames; ++I) {
    FnResult R;
    R.Name = NameOf(I);
    S.put(R.Name, 7, R);
  }
  for (unsigned I = 0; I < kNames; ++I) {
    FnResult Out;
    ASSERT_TRUE(S.get(NameOf(I), 7, Out));
    EXPECT_EQ(Out.Name, NameOf(I));
    EXPECT_FALSE(S.get(NameOf(I), 8, Out));
  }
  S.clear();
  FnResult Out;
  EXPECT_FALSE(S.get(NameOf(0), 7, Out));
}

//===----------------------------------------------------------------------===//
// GC: LRU eviction under a byte budget (verifyd --cache-max-bytes)
//===----------------------------------------------------------------------===//

namespace {
/// Backdates the entry for (Name, Key) by \p Seconds so the LRU order is
/// under test control (gc orders by file mtime).
void backdate(DiskResultStore &S, const std::string &Name, uint64_t Key,
              int Seconds) {
  fs::path P = S.entryPath(Name, Key);
  std::error_code EC;
  fs::last_write_time(
      P, fs::last_write_time(P, EC) - std::chrono::seconds(Seconds), EC);
  ASSERT_FALSE(EC) << "cannot backdate " << P;
}
} // namespace

TEST(Store, GcEvictsOldestFirstUntilUnderBudget) {
  TempDir Dir;
  DiskResultStore S(Dir.str());
  FnResult R = verifiedInc();
  S.put("oldest", 1, R);
  S.put("middle", 2, R);
  S.put("newest", 3, R);
  backdate(S, "oldest", 1, 300);
  backdate(S, "middle", 2, 200);
  backdate(S, "newest", 3, 100);

  uint64_t Total = S.sizeBytes();
  ASSERT_GT(Total, 0u);
  uint64_t OneEntry = Total / 3;

  // Budget for two entries: exactly the oldest goes.
  GcStats G = S.gc(2 * OneEntry + OneEntry / 2);
  EXPECT_EQ(G.Evicted, 1u);
  EXPECT_EQ(G.BytesBefore, Total);
  EXPECT_LE(G.BytesAfter, 2 * OneEntry + OneEntry / 2);
  FnResult Out;
  EXPECT_FALSE(S.get("oldest", 1, Out));
  EXPECT_TRUE(S.get("middle", 2, Out));
  EXPECT_TRUE(S.get("newest", 3, Out));

  // A zero budget clears the directory.
  GcStats G2 = S.gc(0);
  EXPECT_EQ(G2.Evicted, 2u);
  EXPECT_EQ(S.sizeBytes(), 0u);
  EXPECT_EQ(countEntries(Dir.str()), 0u);
}

TEST(Store, GcIsANoOpUnderBudget) {
  TempDir Dir;
  DiskResultStore S(Dir.str());
  FnResult R = verifiedInc();
  S.put("inc", 1, R);
  uint64_t Total = S.sizeBytes();
  GcStats G = S.gc(Total);
  EXPECT_EQ(G.Evicted, 0u);
  EXPECT_EQ(G.BytesBefore, Total);
  EXPECT_EQ(G.BytesAfter, Total);
  EXPECT_EQ(countEntries(Dir.str()), 1u);
}

TEST(Store, GetRefreshesRecencySoHitEntriesSurviveGc) {
  TempDir Dir;
  DiskResultStore S(Dir.str());
  FnResult R = verifiedInc();
  S.put("hot", 1, R);
  S.put("cold", 2, R);
  // "hot" is older on disk...
  backdate(S, "hot", 1, 400);
  backdate(S, "cold", 2, 100);
  // ...but a hit refreshes its mtime, so "cold" is now the LRU entry.
  FnResult Out;
  ASSERT_TRUE(S.get("hot", 1, Out));

  uint64_t OneEntry = S.sizeBytes() / 2;
  GcStats G = S.gc(OneEntry + OneEntry / 2);
  EXPECT_EQ(G.Evicted, 1u);
  EXPECT_TRUE(S.get("hot", 1, Out)) << "recently used entries survive";
  EXPECT_FALSE(S.get("cold", 2, Out));
}
