//===- Arena.h - Arenas that own immutable search nodes --------*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ownership model of the verifier's immutable nodes: RefinedC types,
/// Lithium goals and judgments, and the closures of goal continuations
/// (NodeFn). A node is built once, never changed, and referred to by plain
/// `const` pointer; the arena that built it owns it and destroys it, with
/// every other node of that arena, when the arena dies. Nothing counts
/// references, so copying a reference costs nothing, also in a process
/// that has started threads.
///
/// Which arena a builder uses is a per-thread setting (NodeArenaScope):
///
///  - a verification session's arenas hold the types of its environment
///    (function and typedef specs, named-type bodies, globals), and live
///    as long as the session (refinedc::Checker);
///  - a job's arena holds every goal, judgment and type built while one
///    function is verified, and dies when the job returns;
///  - with no arena installed (unit tests that build nodes by hand), nodes
///    go to a process-lifetime fallback arena, guarded by a lock.
///
/// A reader must not outlive the owner of the nodes it reads: session
/// nodes outlive every job of the session, and nothing a job returns
/// points into its arena.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_SUPPORT_ARENA_H
#define RCC_SUPPORT_ARENA_H

#include <cstddef>
#include <memory>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace rcc {

/// A bump-pointer arena of nodes. Each node with a non-trivial destructor
/// is preceded in its slab by a record that chains it to the node built
/// before it, so the arena runs the destructors, newest first, when it
/// dies. Not thread-safe: one thread fills an arena at a time.
class NodeArena {
public:
  NodeArena() = default;
  ~NodeArena();
  NodeArena(const NodeArena &) = delete;
  NodeArena &operator=(const NodeArena &) = delete;

  /// Builds a T in this arena.
  template <typename T, typename... Args> T *make(Args &&...A) {
    ++Nodes;
    if constexpr (std::is_trivially_destructible_v<T>) {
      return ::new (allocate(sizeof(T), alignof(T)))
          T(std::forward<Args>(A)...);
    } else {
      // Linked only once constructed: a throwing constructor leaves bytes,
      // not a record to run.
      static_assert(alignof(T) <= alignof(DtorRec),
                    "node over-aligned for its destructor record");
      void *Mem = allocate(sizeof(DtorRec) + sizeof(T), alignof(DtorRec));
      auto *R = static_cast<DtorRec *>(Mem);
      T *N = ::new (static_cast<void *>(R + 1)) T(std::forward<Args>(A)...);
      R->Destroy = [](void *P) { static_cast<T *>(P)->~T(); };
      R->Prev = Last;
      Last = R;
      return N;
    }
  }

  /// Nodes built so far.
  size_t nodes() const { return Nodes; }

private:
  void *allocate(size_t Bytes, size_t Align);

  struct alignas(std::max_align_t) DtorRec {
    void (*Destroy)(void *);
    DtorRec *Prev;
  };
  static constexpr size_t kSlabBytes = 1 << 16;

  std::vector<std::unique_ptr<char[]>> Slabs;
  char *Cur = nullptr;
  char *End = nullptr;
  DtorRec *Last = nullptr;
  size_t Nodes = 0;
};

namespace detail {
/// The arena builders use on this thread; null means the fallback.
extern thread_local constinit NodeArena *CurrentArena;
NodeArena &fallbackArena();
std::mutex &fallbackMutex();
} // namespace detail

/// RAII: installs \p A as the arena this thread's builders use. Scopes
/// nest; the previous arena is restored on destruction.
class NodeArenaScope {
public:
  explicit NodeArenaScope(NodeArena &A) : Prev(detail::CurrentArena) {
    detail::CurrentArena = &A;
  }
  ~NodeArenaScope() { detail::CurrentArena = Prev; }
  NodeArenaScope(const NodeArenaScope &) = delete;
  NodeArenaScope &operator=(const NodeArenaScope &) = delete;

private:
  NodeArena *Prev;
};

/// Builds a T in this thread's arena, or in the fallback arena when none
/// is installed.
template <typename T, typename... Args> T *newNode(Args &&...A) {
  if (NodeArena *Ar = detail::CurrentArena)
    return Ar->make<T>(std::forward<Args>(A)...);
  std::lock_guard<std::mutex> G(detail::fallbackMutex());
  return detail::fallbackArena().make<T>(std::forward<Args>(A)...);
}

/// Nodes the fallback arena holds: every node built with no arena
/// installed, in this process so far.
size_t fallbackArenaNodes();

/// A callable whose closure is a node of the arena that was current when
/// it was made: a copy copies two pointers, where a std::function copy
/// allocates and copies its closure. Like any node, the closure must not
/// outlive its arena.
template <typename Sig> class NodeFn;
template <typename R, typename... Args> class NodeFn<R(Args...)> {
public:
  NodeFn() = default;
  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<Fn, NodeFn> &&
                std::is_invocable_r_v<R, const Fn &, Args...>>>
  NodeFn(F &&Fun)
      : Closure(newNode<Fn>(std::forward<F>(Fun))),
        Call([](const void *C, Args... A) -> R {
          return (*static_cast<const Fn *>(C))(std::forward<Args>(A)...);
        }) {}

  R operator()(Args... A) const {
    return Call(Closure, std::forward<Args>(A)...);
  }

private:
  const void *Closure = nullptr;
  R (*Call)(const void *, Args...) = nullptr;
};

/// Arenas that concurrent tasks fill: a task leases one arena for its
/// duration, so building a node never takes a lock (a lease takes one).
/// The set owns every arena it has handed out, and so every node built in
/// them, until it dies.
class NodeArenaSet {
public:
  NodeArenaSet() = default;
  NodeArenaSet(const NodeArenaSet &) = delete;
  NodeArenaSet &operator=(const NodeArenaSet &) = delete;

  /// RAII: takes an arena no other lease holds and installs it on this
  /// thread.
  class Lease {
  public:
    explicit Lease(NodeArenaSet &S) : Ret{S, S.take()}, Scope(*Ret.A) {}

  private:
    struct Return {
      NodeArenaSet &S;
      NodeArena *A;
      ~Return() { S.give(A); }
    } Ret; ///< returned after Scope is uninstalled
    NodeArenaScope Scope;
  };

private:
  NodeArena *take();
  void give(NodeArena *A);

  std::mutex M;
  std::vector<std::unique_ptr<NodeArena>> Arenas;
  std::vector<NodeArena *> Free;
};

} // namespace rcc

#endif // RCC_SUPPORT_ARENA_H
