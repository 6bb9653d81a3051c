//===- Goal.cpp -----------------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "lithium/Goal.h"

#include "caesium/Ast.h"

#include <sstream>

using namespace rcc::lithium;

const char *rcc::lithium::judgKindName(JudgKind K) {
  switch (K) {
  case JudgKind::Stmt:
    return "stmt";
  case JudgKind::Expr:
    return "expr";
  case JudgKind::IfJ:
    return "if";
  case JudgKind::BinOpJ:
    return "binop";
  case JudgKind::UnOpJ:
    return "unop";
  case JudgKind::ReadJ:
    return "read";
  case JudgKind::WriteJ:
    return "write";
  case JudgKind::CASJ:
    return "cas";
  case JudgKind::CallJ:
    return "call";
  case JudgKind::SubsumeV:
    return "subsume-val";
  case JudgKind::SubsumeL:
    return "subsume-loc";
  case JudgKind::BlockJ:
    return "block";
  }
  return "?";
}

std::string Judgment::str() const {
  std::ostringstream OS;
  OS << judgKindName(K);
  if (K == JudgKind::Stmt || K == JudgKind::BlockJ)
    OS << " " << (Fn ? Fn->Name : "?") << ":b" << BlockId << ":" << StmtIdx;
  if (E)
    OS << " `" << E->str() << "`";
  if (V1)
    OS << " v1=" << V1->str();
  if (T1)
    OS << " : " << T1->str();
  if (T2)
    OS << " <: " << T2->str();
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Goal pool
//===----------------------------------------------------------------------===//

void *GoalPool::allocate(size_t Bytes, size_t Align) {
  char *P = Cur + ((Align - reinterpret_cast<uintptr_t>(Cur) % Align) % Align);
  if (!Cur || P + Bytes > End) {
    size_t SlabSize = std::max(kSlabBytes, Bytes + Align);
    // Nothing reads a slab byte before writing it, so skip the zero-fill.
    Slabs.push_back(std::make_unique_for_overwrite<char[]>(SlabSize));
    Cur = Slabs.back().get();
    End = Cur + SlabSize;
    P = Cur + ((Align - reinterpret_cast<uintptr_t>(Cur) % Align) % Align);
  }
  Cur = P + Bytes;
  Allocated += Bytes;
  return P;
}

namespace {
thread_local GoalPool *CurPool = nullptr;

/// Minimal std allocator over the thread's GoalPool, for allocate_shared.
/// Deallocation is a no-op (slabs die with the pool).
template <typename T> struct PoolAlloc {
  using value_type = T;
  GoalPool *P;
  explicit PoolAlloc(GoalPool *P) : P(P) {}
  template <typename U> PoolAlloc(const PoolAlloc<U> &O) : P(O.P) {}
  T *allocate(size_t N) {
    return static_cast<T *>(P->allocate(N * sizeof(T), alignof(T)));
  }
  void deallocate(T *, size_t) {}
  template <typename U> bool operator==(const PoolAlloc<U> &O) const {
    return P == O.P;
  }
  template <typename U> bool operator!=(const PoolAlloc<U> &O) const {
    return P != O.P;
  }
};

template <typename T, typename... Args>
std::shared_ptr<T> poolMake(Args &&...A) {
  if (GoalPool *P = CurPool)
    return std::allocate_shared<T>(PoolAlloc<T>(P), std::forward<Args>(A)...);
  return std::make_shared<T>(std::forward<Args>(A)...);
}
} // namespace

GoalPoolScope::GoalPoolScope(GoalPool &P) : Prev(CurPool) { CurPool = &P; }
GoalPoolScope::~GoalPoolScope() { CurPool = Prev; }
GoalPool *rcc::lithium::currentGoalPool() { return CurPool; }

//===----------------------------------------------------------------------===//
// Goal builders
//===----------------------------------------------------------------------===//

GoalRef rcc::lithium::gTrue() {
  // Process-lifetime singleton: deliberately make_shared, never pooled —
  // a pool-backed static would dangle once the first pool dies.
  static GoalRef G = std::make_shared<Goal>();
  return G;
}

GoalRef rcc::lithium::gJudg(Judgment J) {
  auto G = poolMake<Goal>();
  G->K = GoalKind::Judg;
  G->J = poolMake<Judgment>(std::move(J));
  return G;
}

GoalRef rcc::lithium::gStar(ResList H, GoalRef Next) {
  if (H.empty())
    return Next;
  auto G = poolMake<Goal>();
  G->K = GoalKind::StarH;
  G->H = std::move(H);
  G->Next = std::move(Next);
  return G;
}

GoalRef rcc::lithium::gWand(ResList H, GoalRef Next) {
  if (H.empty())
    return Next;
  auto G = poolMake<Goal>();
  G->K = GoalKind::WandH;
  G->H = std::move(H);
  G->Next = std::move(Next);
  return G;
}

GoalRef rcc::lithium::gConj(GoalRef A, GoalRef B) {
  auto G = poolMake<Goal>();
  G->K = GoalKind::Conj;
  G->A = std::move(A);
  G->B = std::move(B);
  return G;
}

GoalRef rcc::lithium::gAll(const std::string &Binder, pure::Sort S,
                           std::function<GoalRef(TermRef)> Body) {
  auto G = poolMake<Goal>();
  G->K = GoalKind::All;
  G->Binder = Binder;
  G->BSort = S;
  G->Body = std::move(Body);
  return G;
}

GoalRef rcc::lithium::gEx(const std::string &Binder, pure::Sort S,
                          std::function<GoalRef(TermRef)> Body) {
  auto G = poolMake<Goal>();
  G->K = GoalKind::Ex;
  G->Binder = Binder;
  G->BSort = S;
  G->Body = std::move(Body);
  return G;
}
