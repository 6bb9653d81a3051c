//===- Arena.cpp ----------------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"

#include <algorithm>
#include <cstdint>

using namespace rcc;

NodeArena::~NodeArena() {
  // Destructors first, newest node first; then the slabs go back to
  // malloc, so under ASan a node that escaped its arena faults when read.
  for (DtorRec *R = Last; R; R = R->Prev)
    R->Destroy(R + 1);
}

void *NodeArena::allocate(size_t Bytes, size_t Align) {
  auto AlignUp = [Align](char *P) {
    return P + ((Align - reinterpret_cast<uintptr_t>(P) % Align) % Align);
  };
  char *P = Cur ? AlignUp(Cur) : nullptr;
  if (!P || P + Bytes > End) {
    size_t SlabSize = std::max(kSlabBytes, Bytes + Align);
    // Nothing reads a slab byte before writing it, so skip the zero-fill.
    Slabs.push_back(std::make_unique_for_overwrite<char[]>(SlabSize));
    Cur = Slabs.back().get();
    End = Cur + SlabSize;
    P = AlignUp(Cur);
  }
  Cur = P + Bytes;
  return P;
}

thread_local constinit NodeArena *rcc::detail::CurrentArena = nullptr;

NodeArena &rcc::detail::fallbackArena() {
  // Never destroyed: a node built before main or read during static
  // destruction stays valid.
  static NodeArena *A = new NodeArena;
  return *A;
}

std::mutex &rcc::detail::fallbackMutex() {
  static std::mutex *M = new std::mutex;
  return *M;
}

size_t rcc::fallbackArenaNodes() {
  std::lock_guard<std::mutex> G(detail::fallbackMutex());
  return detail::fallbackArena().nodes();
}

NodeArena *NodeArenaSet::take() {
  std::lock_guard<std::mutex> G(M);
  if (Free.empty()) {
    Arenas.push_back(std::make_unique<NodeArena>());
    return Arenas.back().get();
  }
  NodeArena *A = Free.back();
  Free.pop_back();
  return A;
}

void NodeArenaSet::give(NodeArena *A) {
  std::lock_guard<std::mutex> G(M);
  Free.push_back(A);
}
