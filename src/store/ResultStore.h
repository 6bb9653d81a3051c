//===- ResultStore.h - Tiered persistent verification-result store -*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tiered result store behind the verification driver's memoization
/// (DESIGN.md, "Persistent verification store"). A store maps
/// (function name, content-hash key) to a previously computed FnResult;
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
///  - `TieredResultStore`: composes tiers in probe order as a uniform
///    stack (L1, then L2), each carrying its *trust* attribute:
///    trusted tiers were produced in-process, untrusted tiers are replayed
///    through the ProofChecker by the caller before being believed. It
///    deliberately does NOT auto-promote on a hit: promotion upward is the
///    *caller's* call, made only after validation (`promote`).
///
/// All stores are thread-safe; verification jobs probe at job start and
/// publish at job end through the same interface regardless of tier.
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
#include <vector>

namespace rcc::store {

/// Lifetime counters of one store instance (monotonic; relaxed atomics,
/// mirrored into the trace MetricsRegistry by the checker after each run).
struct StoreCounters {
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Puts{0};
  /// Entries found but rejected: truncated/bit-flipped payloads, checksum
  /// mismatches, foreign format or tool versions, key/name mismatches.
  /// Rejected files are unlinked (a corrupt entry must not miss forever).
  std::atomic<uint64_t> CorruptDrops{0};
  /// Entries removed by the GC path (DiskResultStore::gc).
  std::atomic<uint64_t> Evictions{0};
};

/// One tier of the result store.
class ResultStore {
public:
  virtual ~ResultStore() = default;

  /// Probes for (Name, Key). True on a hit, with \p Out filled.
  virtual bool get(const std::string &Name, uint64_t Key,
                   refinedc::FnResult &Out) = 0;
  /// Publishes a result (overwriting any entry for Name).
  virtual void put(const std::string &Name, uint64_t Key,
                   const refinedc::FnResult &R) = 0;
  /// Removes the entry for (Name, Key) if present (e.g. after a failed
  /// replay).
  virtual void drop(const std::string &Name, uint64_t Key) = 0;
  /// Drops every entry. Session invalidation clears only in-memory tiers;
  /// disk tiers self-invalidate through their keys.
  virtual void clear() = 0;

  const StoreCounters &counters() const { return Counters; }

protected:
  StoreCounters Counters;
};

/// L1: the in-memory session tier (one entry per function name, exactly
/// the semantics of the pre-store session cache). Entries are sharded by
/// name hash, so concurrent jobs rarely wait on one another, and each
/// result sits behind a shared pointer, so the copies `put` and `get` make
/// happen outside the shard's lock.
class MemoryResultStore final : public ResultStore {
public:
  bool get(const std::string &Name, uint64_t Key,
           refinedc::FnResult &Out) override;
  void put(const std::string &Name, uint64_t Key,
           const refinedc::FnResult &R) override;
  void drop(const std::string &Name, uint64_t Key) override;
  void clear() override;

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
/// `<sanitized-name>.<key-hex>.rcv`. Writers write to a process-unique
/// temp file and atomically rename it into place, so any number of
/// processes sharing a directory can never expose a half-written entry.
/// Its trace spans are `store.l2.load`, `store.l2.write` and
/// `store.l2.gc`.
class DiskResultStore final : public ResultStore {
public:
  explicit DiskResultStore(std::string Dir);

  bool get(const std::string &Name, uint64_t Key,
           refinedc::FnResult &Out) override;
  void put(const std::string &Name, uint64_t Key,
           const refinedc::FnResult &R) override;
  void drop(const std::string &Name, uint64_t Key) override;
  /// Unlinks every .rcv entry under the directory (testing/maintenance;
  /// never called by session invalidation).
  void clear() override;

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

private:
  std::string Dir;
  std::atomic<uint64_t> TmpCounter{0};
};

/// The uniform tier stack: probes tiers in order; `get` reports which tier
/// hit so the caller can apply the tier's trust policy before promoting the
/// entry upward. Each tier carries its trust attribute — a hit in an
/// untrusted tier must be replayed through the ProofChecker (or explicitly
/// hash-trusted) by the caller before it is surfaced.
class TieredResultStore final : public ResultStore {
public:
  /// Appends a tier to the probe order. \p Trusted: entries were produced
  /// by this process (in-memory tiers); untrusted (disk) tiers require
  /// validation on every hit.
  void addTier(std::shared_ptr<ResultStore> S, bool Trusted) {
    Tiers.push_back(std::move(S));
    TrustedBits.push_back(Trusted);
  }
  /// Detaches every tier (the tiers themselves survive through their
  /// shared_ptr owners); used when a session re-composes its tiers.
  void resetTiers() {
    Tiers.clear();
    TrustedBits.clear();
  }
  size_t numTiers() const { return Tiers.size(); }
  ResultStore &tier(size_t I) { return *Tiers[I]; }
  const ResultStore &tier(size_t I) const { return *Tiers[I]; }
  /// Whether tier \p I's entries are trusted as-is.
  bool trusted(size_t I) const { return TrustedBits[I]; }

  /// Probes tiers in order; on a hit, \p HitTier is the tier index.
  bool get(const std::string &Name, uint64_t Key, refinedc::FnResult &Out,
           size_t &HitTier);
  bool get(const std::string &Name, uint64_t Key,
           refinedc::FnResult &Out) override {
    size_t T;
    return get(Name, Key, Out, T);
  }
  /// Publishes to every tier.
  void put(const std::string &Name, uint64_t Key,
           const refinedc::FnResult &R) override;
  /// Copies a validated result into every tier above \p FromTier (i.e.
  /// tiers probed earlier). Called after the caller has replayed/trusted a
  /// lower-tier hit.
  void promote(const std::string &Name, uint64_t Key,
               const refinedc::FnResult &R, size_t FromTier);
  void drop(const std::string &Name, uint64_t Key) override;
  void clear() override;

private:
  std::vector<std::shared_ptr<ResultStore>> Tiers;
  std::vector<bool> TrustedBits; ///< parallel to Tiers
};

} // namespace rcc::store

#endif // RCC_STORE_RESULTSTORE_H
