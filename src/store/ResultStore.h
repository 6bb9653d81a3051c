//===- ResultStore.h - The two tiers of the verification store -*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two tiers of the result store behind the checker's memoization
/// (DESIGN.md, "Persistent verification store"). A tier maps (function
/// name, content-hash key) to a previously computed FnResult;
/// the key already folds in the function body, its annotation closure, the
/// spec-environment fingerprint, and the session fingerprint (FnHash.h), so
/// a stale entry can never be *found* — it simply misses.
///
/// Tiers and trust:
///  - `MemoryResultStore` (L1): the per-session map the checker always had.
///    Entries were produced by this process; they are trusted as-is.
///  - `DiskResultStore` (L2): one file per entry under a cache directory,
///    written atomically (temp file + rename) so concurrent verify_tool
///    and verifyd processes can share a directory. Entries are *untrusted
///    input*: the envelope (magic, format version, tool version, key,
///    checksum) only filters corruption and staleness; the checker replays
///    every surfaced derivation through the independent ProofChecker
///    before believing it — the paper's search-untrusted / checker-trusted
///    split, extended across process boundaries — so a corrupt or forged
///    entry degrades to re-verification, never to a wrong result.
///
/// The checker (Checker::probeStore) holds one of each and names them: it
/// probes L1, then L2, and puts an L2 hit into L1 only after the replay.
/// Neither tier promotes on its own. Both are thread-safe; verification
/// jobs probe at job start and publish at job end.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_STORE_RESULTSTORE_H
#define RCC_STORE_RESULTSTORE_H

#include "refinedc/Result.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace rcc::store {

/// L1: the in-memory session tier (one entry per function name, exactly
/// the semantics of the pre-store session cache). Entries are sharded by
/// name hash, so concurrent jobs rarely wait on one another, and each
/// result sits behind a shared pointer, so the copies `put` and `get` make
/// happen outside the shard's lock.
class MemoryResultStore {
public:
  /// Probes for (Name, Key). True on a hit, with \p Out filled.
  bool get(const std::string &Name, uint64_t Key, refinedc::FnResult &Out);
  /// Publishes a result (overwriting any entry for Name).
  void put(const std::string &Name, uint64_t Key,
           const refinedc::FnResult &R);
  /// Drops every entry (session invalidation; the disk tier
  /// self-invalidates through its keys).
  void clear();

private:
  using Entry = std::pair<uint64_t, std::shared_ptr<const refinedc::FnResult>>;
  static constexpr size_t kShards = 16;
  struct Shard {
    std::mutex M;
    std::unordered_map<std::string, Entry> Entries;
  };
  Shard &shardOf(const std::string &Name);
  Shard Shards[kShards];
};

/// Outcome of one GC pass over a cache directory.
struct GcStats {
  uint64_t BytesBefore = 0; ///< total .rcv bytes before the pass
  uint64_t BytesAfter = 0;  ///< total .rcv bytes after the pass
  unsigned Evicted = 0;     ///< entries unlinked by the pass
};

/// L2: one file per (name, key) under \p Dir, named
/// `<sanitized-name>.<key-hex>.rcv`. Writers write to a temp file whose
/// name is unique in the process and atomically rename it into place, so
/// any number of stores and processes sharing a directory can never expose
/// a half-written entry. Its trace spans are `store.l2.load`,
/// `store.l2.write` and `store.l2.gc`.
class DiskResultStore {
public:
  explicit DiskResultStore(std::string Dir);

  /// Probes for (Name, Key). True on a hit, with \p Out filled; a rejected
  /// entry is a miss, counted in corruptDrops() and unlinked.
  bool get(const std::string &Name, uint64_t Key, refinedc::FnResult &Out);
  /// Publishes a result (replacing any entry for (Name, Key)).
  void put(const std::string &Name, uint64_t Key,
           const refinedc::FnResult &R);
  /// Unlinks the entry for (Name, Key), e.g. after a failed replay.
  void drop(const std::string &Name, uint64_t Key);

  const std::string &dir() const { return Dir; }
  /// The entry path for (Name, Key) — exposed for tests that corrupt or
  /// truncate entries on purpose.
  std::string entryPath(const std::string &Name, uint64_t Key) const;

  /// Total bytes of .rcv entries currently under the directory.
  uint64_t sizeBytes() const;
  /// Evicts least-recently-used entries (ordered by file mtime; `get`
  /// refreshes an entry's mtime on every hit, so recency tracks use, not
  /// just creation) until the directory holds at most \p MaxBytes of
  /// entries. A long-lived daemon calls this after every revision so its
  /// cache directory cannot grow without bound (`verifyd
  /// --cache-max-bytes`). MaxBytes = 0 evicts everything.
  GcStats gc(uint64_t MaxBytes);

  /// Entries found but rejected over this store's lifetime: truncated or
  /// bit-flipped payloads, checksum mismatches, foreign format or tool
  /// versions, name or key mismatches, files that are no regular file.
  uint64_t corruptDrops() const {
    return CorruptDrops.load(std::memory_order_relaxed);
  }

private:
  std::string Dir;
  std::atomic<uint64_t> CorruptDrops{0};
};

} // namespace rcc::store

#endif // RCC_STORE_RESULTSTORE_H
