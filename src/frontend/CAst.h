//===- CAst.h - AST for the annotated C subset ------------------*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The C-level AST produced by the parser (the analogue of Cerberus's AIL
/// intermediate language, Section 3). Declarations, statements and
/// expressions carry raw `[[rc::...]]` annotations, which the RefinedC layer
/// parses into specification types later; the front end itself only lowers C
/// to Caesium and never interprets specifications.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_FRONTEND_CAST_H
#define RCC_FRONTEND_CAST_H

#include "caesium/Layout.h"
#include "support/SourceLoc.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace rcc::front {

//===----------------------------------------------------------------------===//
// C types
//===----------------------------------------------------------------------===//

enum class CTypeKind : uint8_t { Void, Int, Pointer, Struct, Func, Array };

struct CType;
using CTypePtr = std::shared_ptr<const CType>;

struct CType {
  CTypeKind K = CTypeKind::Void;
  caesium::IntType Ity;       ///< Int
  CTypePtr Pointee;           ///< Pointer / Array element
  std::string StructName;     ///< Struct
  uint64_t ArrayLen = 0;      ///< Array
  CTypePtr Ret;               ///< Func
  std::vector<CTypePtr> Params;

  bool isVoid() const { return K == CTypeKind::Void; }
  bool isInt() const { return K == CTypeKind::Int; }
  bool isPointer() const { return K == CTypeKind::Pointer; }
  bool isStruct() const { return K == CTypeKind::Struct; }
  bool isFunc() const { return K == CTypeKind::Func; }
  bool isArray() const { return K == CTypeKind::Array; }

  std::string str() const;
};

CTypePtr ctVoid();
CTypePtr ctInt(caesium::IntType Ity);
CTypePtr ctPtr(CTypePtr Pointee);
CTypePtr ctStruct(const std::string &Name);
CTypePtr ctArray(CTypePtr Elem, uint64_t Len);
CTypePtr ctFunc(CTypePtr Ret, std::vector<CTypePtr> Params);

//===----------------------------------------------------------------------===//
// Annotations
//===----------------------------------------------------------------------===//

/// One `[[rc::kind("arg1", "arg2", ...)]]` annotation, uninterpreted.
struct RcAnnot {
  std::string Kind;
  std::vector<std::string> Args;
  rcc::SourceLoc Loc;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class CExprKind : uint8_t {
  IntLit,
  Null,     ///< NULL or (void*)0
  Ident,
  Unary,    ///< OpText in {"-", "!", "~"}
  Binary,   ///< arithmetic, comparison, logical (&&/|| kept structured)
  Assign,   ///< =
  CompoundAssign, ///< +=, -=, ...; OpText holds the base operator
  IncDec,   ///< ++/--; IsPost distinguishes
  Call,
  Member,   ///< .f or ->f (IsArrow)
  Index,    ///< a[i]
  Deref,    ///< *p
  AddrOf,   ///< &lv
  Cast,
  SizeofType,
  Cond,     ///< ?: (Kids: cond, then, else)
};

struct CExpr;
using CExprPtr = std::unique_ptr<CExpr>;

struct CExpr {
  CExprKind K;
  rcc::SourceLoc Loc;

  uint64_t IntVal = 0;      ///< IntLit
  std::string Name;         ///< Ident / Member field
  std::string OpText;       ///< Unary/Binary/CompoundAssign operator
  bool IsArrow = false;     ///< Member
  bool IsPost = false;      ///< IncDec
  bool IsDecrement = false; ///< IncDec
  CTypePtr CastTo;          ///< Cast
  CTypePtr SizeofTy;        ///< SizeofType
  std::vector<CExprPtr> Kids;

  explicit CExpr(CExprKind K) : K(K) {}
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class CStmtKind : uint8_t {
  Compound,
  Decl,
  ExprSt,
  If,
  While,
  For,
  DoWhile,
  Return,
  Break,
  Continue,
  Goto,
  Label,
  Empty,
};

struct CStmt;
using CStmtPtr = std::unique_ptr<CStmt>;

struct CStmt {
  CStmtKind K;
  rcc::SourceLoc Loc;

  std::vector<CStmtPtr> Body; ///< Compound
  CTypePtr DeclTy;            ///< Decl
  std::string DeclName;       ///< Decl / Goto / Label target name
  CExprPtr Init;              ///< Decl initializer (may be null)
  CExprPtr E;                 ///< ExprSt / If cond / While cond / Return value
  CStmtPtr Then;              ///< If
  CStmtPtr Else;              ///< If (may be null)
  CStmtPtr LoopBody;          ///< While / For / DoWhile
  CStmtPtr ForInit;           ///< For (decl or expr stmt; may be null)
  CExprPtr ForStep;           ///< For (may be null)
  std::vector<RcAnnot> LoopAnnots; ///< attached to While / For / DoWhile

  explicit CStmt(CStmtKind K) : K(K) {}
};

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

struct CStructField {
  std::string Name;
  CTypePtr Ty;
  std::vector<RcAnnot> Annots;
  rcc::SourceLoc Loc;
};

struct CStructDecl {
  std::string Name;
  std::vector<CStructField> Fields;
  std::vector<RcAnnot> Annots;
  /// When declared `typedef struct ... {...} *Name;` — the pointer typedef
  /// that rc::ptr_type refines (Figure 3's chunks_t).
  std::string PtrTypedefName;
  rcc::SourceLoc Loc;
};

struct CParam {
  std::string Name;
  CTypePtr Ty;
};

struct CFuncDecl {
  std::string Name;
  CTypePtr RetTy;
  std::vector<CParam> Params;
  CStmtPtr Body; ///< null for prototypes
  std::vector<RcAnnot> Annots;
  rcc::SourceLoc Loc;
  rcc::SourceLoc NameLoc; ///< where the function name token starts
  rcc::SourceLoc NameEnd; ///< one past the function name token
  rcc::SourceLoc EndLoc;  ///< one past the closing `}` (or the `;`)
  /// Token ranges [Begin, End) of a definition's leading annotation lists
  /// and of its body, when Parser::outlineTranslationUnit skipped them.
  struct TokenRanges {
    size_t AnnotBegin = 0, AnnotEnd = 0, BodyBegin = 0, BodyEnd = 0;
  } Deferred;

  bool isDefinition() const { return Body || Deferred.BodyEnd; }
};

struct CGlobalDecl {
  std::string Name;
  CTypePtr Ty;
  std::optional<int64_t> Init;
  std::vector<RcAnnot> Annots;
  rcc::SourceLoc Loc;
};

struct CTypedef {
  std::string Name;
  CTypePtr Ty;
  std::vector<RcAnnot> Annots;
  rcc::SourceLoc Loc;
};

struct CTranslationUnit {
  std::vector<CStructDecl> Structs;
  std::vector<CTypedef> Typedefs;
  std::vector<CGlobalDecl> Globals;
  std::vector<CFuncDecl> Functions;
};

} // namespace rcc::front

#endif // RCC_FRONTEND_CAST_H
