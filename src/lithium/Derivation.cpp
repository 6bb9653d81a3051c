//===- Derivation.cpp -----------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "lithium/Derivation.h"

#include "support/Hash.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>

using namespace rcc;
using namespace rcc::lithium;
using rcc::pure::TermRef;

namespace {

/// The process-wide name table. Interning takes the mutex; reading a name
/// takes none: chunks double in size and never move, and an entry is
/// written under the mutex before its id leaves intern(), so any thread
/// that holds the id has seen the write.
class LabelTable {
public:
  LabelTable() {
    intern("");
    for (const BuiltinStep &B : BuiltinSteps)
      intern(B.Name);
  }

  uint32_t intern(std::string_view Name) {
    std::lock_guard<std::mutex> G(M);
    auto It = Ids.find(Name);
    if (It != Ids.end())
      return It->second;
    uint32_t Id = Count;
    auto [C, Off] = locate(Id);
    std::string_view *Chunk = Chunks[C].load(std::memory_order_relaxed);
    if (!Chunk) {
      Chunk = new std::string_view[size_t(Base) << C];
      Chunks[C].store(Chunk, std::memory_order_release);
    }
    const std::string &Stored = Names.emplace_back(Name);
    Chunk[Off] = Stored;
    Ids.emplace(Stored, Id);
    ++Count;
    return Id;
  }

  std::string_view name(uint32_t Id) const {
    auto [C, Off] = locate(Id);
    return Chunks[C].load(std::memory_order_acquire)[Off];
  }

private:
  static constexpr uint32_t Base = 256; ///< size of chunk 0, a power of two

  static std::pair<unsigned, uint32_t> locate(uint32_t Id) {
    uint64_t X = uint64_t(Id) + Base;
    unsigned C = std::bit_width(X) - std::bit_width(uint64_t(Base));
    return {C, static_cast<uint32_t>(X - (uint64_t(Base) << C))};
  }

  std::mutex M;
  std::deque<std::string> Names; ///< owns every name; entries never move
  std::unordered_map<std::string_view, uint32_t> Ids; ///< views into Names
  uint32_t Count = 0;
  /// Chunk C holds Base << C entries; chunk 24 reaches id 2^32 - 1.
  std::atomic<std::string_view *> Chunks[25] = {};
};

LabelTable &labels() {
  // Never destroyed: a name read during static destruction stays valid.
  static LabelTable *T = new LabelTable;
  return *T;
}

/// The process-wide hypothesis lists, sharded by content hash. A list is
/// built under its shard's mutex before its handle leaves intern(), and
/// the deque never moves it, so reading through a handle takes no lock.
class HypTable {
public:
  const std::vector<TermRef> *intern(std::span<const TermRef> Hs) {
    ContentHasher H;
    for (TermRef T : Hs)
      H.mix(reinterpret_cast<uintptr_t>(T));
    const uint64_t Key = H.get();
    Shard &S = Shards[Key % NumShards];
    std::lock_guard<std::mutex> G(S.M);
    auto [It, End] = S.Index.equal_range(Key);
    for (; It != End; ++It)
      if (std::equal(Hs.begin(), Hs.end(), It->second->begin(),
                     It->second->end()))
        return It->second;
    const std::vector<TermRef> *L = &S.Lists.emplace_back(Hs.begin(), Hs.end());
    S.Index.emplace(Key, L);
    return L;
  }

private:
  static constexpr size_t NumShards = 16;
  struct Shard {
    std::mutex M;
    std::unordered_multimap<uint64_t, const std::vector<TermRef> *> Index;
    std::deque<std::vector<TermRef>> Lists;
  };
  Shard Shards[NumShards];
};

HypTable &hypLists() {
  static HypTable *T = new HypTable;
  return *T;
}

} // namespace

Label Label::intern(std::string_view Name) {
  // Most lookups repeat a handful of names (the solver engines, the rules a
  // loaded entry names), so each thread keeps the names it has resolved;
  // the views point into the table, which never frees a name.
  thread_local std::unordered_map<std::string_view, uint32_t> Seen;
  auto It = Seen.find(Name);
  if (It != Seen.end())
    return Label(It->second);
  LabelTable &T = labels();
  uint32_t Id = T.intern(Name);
  Seen.emplace(T.name(Id), Id);
  return Label(Id);
}

std::string_view Label::name() const { return labels().name(Id); }

static bool byId(Label A, Label B) { return A.id() < B.id(); }

void LabelSet::insert(Label L) {
  auto It = std::lower_bound(Ids.begin(), Ids.end(), L, byId);
  if (It == Ids.end() || *It != L)
    Ids.insert(It, L);
}

bool LabelSet::contains(Label L) const {
  return std::binary_search(Ids.begin(), Ids.end(), L, byId);
}

std::vector<Label> LabelSet::byName() const {
  std::vector<Label> Out = Ids;
  std::sort(Out.begin(), Out.end(),
            [](Label A, Label B) { return A.name() < B.name(); });
  return Out;
}

HypList HypList::intern(std::span<const TermRef> Hs) {
  return Hs.empty() ? HypList() : HypList(hypLists().intern(Hs));
}

const std::vector<TermRef> &HypList::terms() const {
  static const std::vector<TermRef> Empty;
  return L ? *L : Empty;
}
