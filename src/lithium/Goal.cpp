//===- Goal.cpp -----------------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "lithium/Goal.h"

#include "caesium/Ast.h"
#include "support/Arena.h"

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
// Goal builders
//===----------------------------------------------------------------------===//

GoalRef rcc::lithium::gTrue() {
  // A static node: it outlives every arena.
  static const Goal G;
  return &G;
}

GoalRef rcc::lithium::gJudg(Judgment J) {
  auto *G = newNode<Goal>();
  G->K = GoalKind::Judg;
  G->J = newNode<Judgment>(std::move(J));
  return G;
}

GoalRef rcc::lithium::gStar(ResList H, GoalRef Next) {
  if (H.empty())
    return Next;
  auto *G = newNode<Goal>();
  G->K = GoalKind::StarH;
  G->H = std::move(H);
  G->Next = std::move(Next);
  return G;
}

GoalRef rcc::lithium::gWand(ResList H, GoalRef Next) {
  if (H.empty())
    return Next;
  auto *G = newNode<Goal>();
  G->K = GoalKind::WandH;
  G->H = std::move(H);
  G->Next = std::move(Next);
  return G;
}

GoalRef rcc::lithium::gConj(GoalRef A, GoalRef B) {
  auto *G = newNode<Goal>();
  G->K = GoalKind::Conj;
  G->A = std::move(A);
  G->B = std::move(B);
  return G;
}

GoalRef rcc::lithium::gAll(const std::string &Binder, pure::Sort S,
                           BinderCont Body) {
  auto *G = newNode<Goal>();
  G->K = GoalKind::All;
  G->Binder = Binder;
  G->BSort = S;
  G->Body = std::move(Body);
  return G;
}

GoalRef rcc::lithium::gEx(const std::string &Binder, pure::Sort S,
                          BinderCont Body) {
  auto *G = newNode<Goal>();
  G->K = GoalKind::Ex;
  G->Binder = Binder;
  G->BSort = S;
  G->Body = std::move(Body);
  return G;
}
