//===- Frontend.h - Public front-end API ------------------------*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The front end of Figure 2, step (A): compile annotated C source into a
/// Caesium program plus the annotation tables the RefinedC layer consumes.
/// Specifications are carried as raw strings here; the refinedc library
/// parses them against its type grammar (keeping this layer free of any
/// dependence on the type system, mirroring the paper's layering where the
/// front end is part of the TCB but the type system is not).
///
//===----------------------------------------------------------------------===//

#ifndef RCC_FRONTEND_FRONTEND_H
#define RCC_FRONTEND_FRONTEND_H

#include "caesium/Ast.h"
#include "frontend/CAst.h"
#include "support/Diagnostics.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace rcc::front {

/// A struct definition together with its computed physical layout and its
/// RefinedC annotations (refined_by / field / exists / constraints / size /
/// ptr_type).
struct StructInfo {
  std::string Name;
  caesium::StructLayout Layout;
  std::vector<CStructField> Fields; ///< with per-field annotations
  std::vector<RcAnnot> Annots;
  std::string PtrTypedefName;
  rcc::SourceLoc Loc;
};

/// Function-level metadata: the C signature, the rc:: spec annotations, and
/// the loop-annotation table indexed by the AnnotId stored on loop-head
/// blocks during lowering.
struct FnInfo {
  std::string Name;
  CTypePtr RetTy;
  std::vector<CParam> Params;
  std::vector<RcAnnot> Annots;
  std::vector<std::vector<RcAnnot>> LoopAnnots;
  /// C types of locals by their (possibly uniqued) Caesium slot name.
  std::map<std::string, CTypePtr> LocalTypes;
  rcc::SourceLoc Loc;
  bool HasBody = false;
  /// Full extent of the declaration ([Loc, one past `}`/`;`)) and the range
  /// of the function name token — what an editor should underline when a
  /// failure has no better location.
  rcc::SourceRange Range;
  rcc::SourceRange NameRange;
};

struct GlobalInfo {
  std::string Name;
  CTypePtr Ty;
  std::vector<RcAnnot> Annots;
  rcc::SourceLoc Loc;
};

/// The complete front-end output.
struct AnnotatedProgram {
  caesium::Program Prog;
  std::map<std::string, StructInfo> Structs;
  std::map<std::string, FnInfo> Fns;
  std::vector<CTypedef> Typedefs;
  std::map<std::string, GlobalInfo> Globals;
  std::string Source;
  /// rcc::lineStarts(Source), recorded once so diagnostic ranges resolve a
  /// line without rescanning the source.
  std::vector<size_t> LineStarts;

  const StructInfo *structInfo(const std::string &Name) const {
    auto It = Structs.find(Name);
    return It == Structs.end() ? nullptr : &It->second;
  }
};

/// Compiles annotated C source. Returns nullptr when \p Diags has errors.
std::unique_ptr<AnnotatedProgram> compileSource(const std::string &Source,
                                                rcc::DiagnosticEngine &Diags);

/// The smallest number of functions for which the per-function phases ahead
/// of verification (parsing and lowering definitions, building function
/// specs) run on a thread pool. Below it the same per-function code runs in
/// a plain loop, so small units, such as every case study (at most 5
/// definitions), trace no pool spans. Measured crossover, compile plus
/// buildEnv of generated monorepo units on a shared 4-vCPU VM, with each
/// definition parsed in its task (one process per size and build, medians
/// of 200-300 runs, alternating rounds): the plain loop was faster in all
/// 6 rounds at 32 and 64 functions and in 4 of 6 at 96; at 128 the pool was
/// faster in 5 of 12; from 192 on it was faster in most rounds (5 of 6 at
/// 192, 9 of 12 at 256, 5 of 6 at 512 and at 1024), taking 0.54-1.16x the
/// loop's time at 256.
constexpr size_t kPoolMinFunctions = 128;

/// Runs Body(0) .. Body(N - 1) for one per-function phase of a unit: on a
/// ThreadPool(0) when N >= kPoolMinFunctions, else in index order on the
/// calling thread. Body(I) must write only to the I-th slot of its output;
/// the caller merges the slots in index order. \p Phase (1, 2, ...) gives
/// each phase its own trace lanes.
void forEachFunction(size_t N, unsigned Phase,
                     const std::function<void(size_t)> &Body);

} // namespace rcc::front

#endif // RCC_FRONTEND_FRONTEND_H
