//===- EvarEnv.cpp --------------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "pure/EvarEnv.h"

using namespace rcc::pure;

TermRef EvarEnv::fresh(Sort S, const std::string &Hint) {
  int64_t Id = NextId++;
  Sealed.insert(Id);
  if (!Hint.empty())
    Hints[Id] = Hint;
  return mkEVar(Id, S);
}

bool EvarEnv::bind(int64_t Id, TermRef T) {
  if (isSealed(Id) || isBound(Id))
    return false;
  TermRef R = resolve(T);
  if (containsEVar(R, Id))
    return false; // occurs check
  Bindings[Id] = R;
  ++NumInstantiated;
  return true;
}

TermRef EvarEnv::resolve(TermRef T) const {
  if (T->kind() == TermKind::EVar) {
    auto It = Bindings.find(T->num());
    if (It == Bindings.end())
      return T;
    return resolve(It->second);
  }
  return mapArgs(T, [this](TermRef A) { return resolve(A); });
}

bool EvarEnv::hasUnresolved(TermRef T) const {
  return containsEVar(resolve(T));
}

const std::string &EvarEnv::hint(int64_t Id) const {
  static const std::string Empty;
  auto It = Hints.find(Id);
  return It == Hints.end() ? Empty : It->second;
}
