//===- ResultStore.cpp ----------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "store/ResultStore.h"

#include "store/Serialize.h"
#include "support/Util.h"
#include "trace/Trace.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace rcc;
using namespace rcc::store;
using namespace rcc::refinedc;

namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// MemoryResultStore
//===----------------------------------------------------------------------===//

MemoryResultStore::Shard &MemoryResultStore::shardOf(const std::string &Name) {
  return Shards[std::hash<std::string>()(Name) % kShards];
}

bool MemoryResultStore::get(const std::string &Name, uint64_t Key,
                            FnResult &Out) {
  Shard &S = shardOf(Name);
  std::shared_ptr<const FnResult> Hit;
  {
    std::lock_guard<std::mutex> G(S.M);
    auto It = S.Entries.find(Name);
    if (It != S.Entries.end() && It->second.first == Key)
      Hit = It->second.second;
  }
  if (!Hit)
    return false;
  Out = *Hit;
  return true;
}

void MemoryResultStore::put(const std::string &Name, uint64_t Key,
                            const FnResult &R) {
  Entry New{Key, std::make_shared<const FnResult>(R)};
  Shard &S = shardOf(Name);
  {
    std::lock_guard<std::mutex> G(S.M);
    std::swap(S.Entries[Name], New);
  }
  // New now holds the replaced entry, if any; it is freed here, unlocked.
}

void MemoryResultStore::clear() {
  for (Shard &S : Shards) {
    std::unordered_map<std::string, Entry> Old;
    std::lock_guard<std::mutex> G(S.M);
    Old.swap(S.Entries);
  }
}

//===----------------------------------------------------------------------===//
// DiskResultStore
//===----------------------------------------------------------------------===//
//
// Entry envelope (all fields length-framed / fixed-width, see Serialize.h):
//
//   magic "RCVS" | format version | tool version | name | key |
//   payload (serialized FnResult) | checksum of the payload (checksumBytes)
//
// Any deviation — a file that is not a regular file or is implausibly
// large, wrong magic/version/tool, name or key mismatch (filename
// collisions after sanitization), checksum failure, truncation, trailing
// bytes — rejects the entry, counts a corrupt drop, and unlinks the file so
// the slot heals on the next put.

static constexpr uint32_t kEntryMagic = 0x53564352; // "RCVS"

/// The largest file `get` reads. Real entries are a few kilobytes; a larger
/// file is rejected before anything is allocated for it.
static constexpr off_t kMaxEntryBytes = off_t(16) << 20;

/// Numbers the temp files of every DiskResultStore in the process, so two
/// stores on one directory never write the same temp file.
static std::atomic<uint64_t> TmpCounter{0};

DiskResultStore::DiskResultStore(std::string D) : Dir(std::move(D)) {
  std::error_code EC;
  fs::create_directories(Dir, EC); // failures surface as misses below
}

std::string DiskResultStore::entryPath(const std::string &Name,
                                       uint64_t Key) const {
  // Sanitized name keeps entries greppable; the key suffix keys the entry,
  // and the envelope's exact name/key fields guard against sanitization
  // collisions.
  std::string Safe;
  for (char C : Name) {
    if (Safe.size() >= 80)
      break;
    Safe += (isalnum(static_cast<unsigned char>(C)) || C == '_' || C == '-')
                ? C
                : '_';
  }
  if (Safe.empty())
    Safe = "fn";
  char KeyHex[32];
  snprintf(KeyHex, sizeof(KeyHex), "%016llx",
           static_cast<unsigned long long>(Key));
  return Dir + "/" + Safe + "." + KeyHex + ".rcv";
}

namespace {

/// Closes a descriptor on scope exit.
class FdCloser {
public:
  explicit FdCloser(int Fd) : Fd(Fd) {}
  ~FdCloser() { ::close(Fd); }
  FdCloser(const FdCloser &) = delete;
  FdCloser &operator=(const FdCloser &) = delete;

private:
  int Fd;
};

/// Reads exactly \p N bytes from \p Fd into \p Buf.
bool readExactly(int Fd, char *Buf, size_t N) {
  while (N > 0) {
    ssize_t Got = ::read(Fd, Buf, N);
    if (Got < 0 && errno == EINTR)
      continue;
    if (Got <= 0)
      return false;
    Buf += Got;
    N -= static_cast<size_t>(Got);
  }
  return true;
}

} // namespace

bool DiskResultStore::get(const std::string &Name, uint64_t Key,
                          FnResult &Out) {
  trace::Span LoadSpan(trace::Category::Cache, "store.l2.load");
  const std::string Path = entryPath(Name, Key);

  // Rejected entries count a corrupt drop and are unlinked so the slot
  // heals on the next put. The checker mirrors the counter delta into the
  // run's MetricsRegistry post-join (deterministically), so no live
  // trace::count here.
  auto Reject = [&]() {
    CorruptDrops.fetch_add(1, std::memory_order_relaxed);
    std::error_code EC;
    fs::remove(Path, EC);
    return false;
  };

  // Anyone who can write the directory can plant a file at an entry path,
  // so only a regular file of bounded size is read, in one read of exactly its size. O_NOFOLLOW refuses a symlink
  // (ELOOP), and O_NONBLOCK keeps the open of a FIFO from waiting for a
  // writer; fstat then rejects everything that is not a regular file.
  const int Fd =
      ::open(Path.c_str(), O_RDONLY | O_NONBLOCK | O_NOFOLLOW | O_CLOEXEC);
  if (Fd < 0)
    return errno == ELOOP ? Reject() : false;
  FdCloser Close(Fd);
  struct stat St;
  if (::fstat(Fd, &St) != 0 || !S_ISREG(St.st_mode) ||
      St.st_size > kMaxEntryBytes)
    return Reject();
  std::string Data(static_cast<size_t>(St.st_size), '\0');
  if (!readExactly(Fd, Data.data(), Data.size()))
    return Reject();

  BinaryReader R(Data);
  uint32_t Magic, Format;
  std::string_view Tool, EntryName, Payload;
  uint64_t EntryKey, Checksum;
  if (!R.u32(Magic) || Magic != kEntryMagic)
    return Reject();
  if (!R.u32(Format) || Format != kFormatVersion)
    return Reject();
  if (!R.view(Tool) || Tool != versionString())
    return Reject();
  if (!R.view(EntryName) || EntryName != Name)
    return Reject();
  if (!R.u64(EntryKey) || EntryKey != Key)
    return Reject();
  if (!R.view(Payload) || !R.u64(Checksum) || !R.atEnd())
    return Reject();
  if (Checksum != checksumBytes(Payload))
    return Reject();
  if (!deserializeFnResult(Payload, Out))
    return Reject();

  // Refresh the entry's mtime so the GC's LRU order reflects use recency,
  // not just creation time. Best effort: a read-only cache directory still
  // serves hits, it just ages like FIFO.
  (void)::futimens(Fd, nullptr);
  return true;
}

void DiskResultStore::put(const std::string &Name, uint64_t Key,
                          const FnResult &R) {
  trace::Span WriteSpan(trace::Category::Cache, "store.l2.write");
  std::string Payload = serializeFnResult(R);

  BinaryWriter W;
  W.u32(kEntryMagic);
  W.u32(kFormatVersion);
  W.str(versionString());
  W.str(Name);
  W.u64(Key);
  W.str(Payload);
  W.u64(checksumBytes(Payload));

  // Write-to-temp + atomic rename: concurrent writers on a shared cache
  // directory either see the old complete entry or the new complete entry,
  // never a torn one. The temp name is unique to the process and the call.
  char Tmp[64];
  snprintf(Tmp, sizeof(Tmp), "/.tmp.%ld.%llu",
           static_cast<long>(getpid()),
           static_cast<unsigned long long>(
               TmpCounter.fetch_add(1, std::memory_order_relaxed)));
  std::string TmpPath = Dir + Tmp;
  {
    std::ofstream OutF(TmpPath, std::ios::binary | std::ios::trunc);
    if (!OutF)
      return; // unwritable cache dir: degrade to no persistence
    OutF.write(W.data().data(),
               static_cast<std::streamsize>(W.data().size()));
    if (!OutF.good()) {
      OutF.close();
      std::error_code EC;
      fs::remove(TmpPath, EC);
      return;
    }
  }
  std::error_code EC;
  fs::rename(TmpPath, entryPath(Name, Key), EC);
  if (EC)
    fs::remove(TmpPath, EC);
}

void DiskResultStore::drop(const std::string &Name, uint64_t Key) {
  std::error_code EC;
  fs::remove(entryPath(Name, Key), EC);
}

uint64_t DiskResultStore::sizeBytes() const {
  uint64_t Total = 0;
  std::error_code EC;
  for (const auto &E : fs::directory_iterator(Dir, EC)) {
    if (E.path().extension() != ".rcv")
      continue;
    uint64_t Sz = E.file_size(EC);
    if (!EC)
      Total += Sz;
  }
  return Total;
}

GcStats DiskResultStore::gc(uint64_t MaxBytes) {
  trace::Span GcSpan(trace::Category::Cache, "store.l2.gc");
  GcStats S;

  // Snapshot (path, mtime, size) for every entry. Entries that vanish or
  // fail to stat mid-scan (concurrent writers share the directory) are
  // skipped; the next pass sees the settled state.
  struct Ent {
    fs::path Path;
    fs::file_time_type MTime;
    uint64_t Size;
  };
  std::vector<Ent> Ents;
  std::error_code EC;
  for (const auto &E : fs::directory_iterator(Dir, EC)) {
    if (E.path().extension() != ".rcv")
      continue;
    std::error_code SEC;
    uint64_t Sz = E.file_size(SEC);
    auto MT = E.last_write_time(SEC);
    if (SEC)
      continue;
    Ents.push_back({E.path(), MT, Sz});
    S.BytesBefore += Sz;
  }
  S.BytesAfter = S.BytesBefore;
  if (S.BytesBefore <= MaxBytes)
    return S;

  // Oldest first; ties broken by path so the pass is deterministic.
  std::sort(Ents.begin(), Ents.end(), [](const Ent &A, const Ent &B) {
    if (A.MTime != B.MTime)
      return A.MTime < B.MTime;
    return A.Path < B.Path;
  });
  for (const Ent &E : Ents) {
    if (S.BytesAfter <= MaxBytes)
      break;
    std::error_code REC;
    if (fs::remove(E.Path, REC) && !REC) {
      S.BytesAfter -= E.Size;
      ++S.Evicted;
    }
  }
  return S;
}
