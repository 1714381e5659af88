#pragma once
// AST for MiniC — the C dialect (with CUDA, OpenMP and Kokkos-lite
// extensions) that all ParEval-Repo benchmark applications are written in.
//
// A deliberately flat representation: one Expr struct and one Stmt struct,
// each discriminated by a kind enum, keeps the interpreter and the
// source-to-source translators short and uniform.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "minic/omp.hpp"
#include "minic/sym.hpp"

namespace pareval::minic {

// ---------------------------------------------------------------- types --

enum class BaseType {
  Unknown,   // sema's "don't constrain" sentinel
  Void,
  Bool,
  Char,
  Int,
  Long,      // long / long long / int64_t
  UInt,      // unsigned / unsigned int
  SizeT,     // size_t / unsigned long
  Float,
  Double,
  Struct,    // user struct, name in `struct_name`
  Dim3,      // CUDA dim3
  View,      // Kokkos::View; element in `view_elem`, rank in `view_rank`
  Lambda,    // closure (only as a value / parameter in Kokkos calls)
  CurandState,
};

struct Type {
  BaseType base = BaseType::Int;
  int ptr_depth = 0;       // number of '*'
  bool is_const = false;
  std::string struct_name; // when base == Struct
  BaseType view_elem = BaseType::Double;  // when base == View
  int view_rank = 1;                      // when base == View
  std::string view_struct_name;           // when view_elem == Struct

  bool is_pointer() const { return ptr_depth > 0; }
  bool is_void() const { return base == BaseType::Void && ptr_depth == 0; }
  bool is_numeric() const {
    return ptr_depth == 0 &&
           (base == BaseType::Bool || base == BaseType::Char ||
            base == BaseType::Int || base == BaseType::Long ||
            base == BaseType::UInt || base == BaseType::SizeT ||
            base == BaseType::Float || base == BaseType::Double);
  }
  bool is_integer() const {
    return is_numeric() && base != BaseType::Float && base != BaseType::Double;
  }
  bool is_real() const {
    return is_numeric() && (base == BaseType::Float || base == BaseType::Double);
  }

  Type pointee() const {
    Type t = *this;
    if (t.ptr_depth > 0) --t.ptr_depth;
    return t;
  }
  Type pointer_to() const {
    Type t = *this;
    ++t.ptr_depth;
    return t;
  }

  static Type make(BaseType b, int ptr = 0) {
    Type t;
    t.base = b;
    t.ptr_depth = ptr;
    return t;
  }

  std::string to_string() const;
  bool operator==(const Type&) const = default;
};

/// Byte size of one element of a (non-pointer) base type, as our simulated
/// targets define it (LP64).
int base_type_size(BaseType b);
/// sizeof for a full type (pointers are 8 bytes).
int type_size(const Type& t);

// ---------------------------------------------------------- expressions --

/// Binary operators, decoded once from their spelling (sema stamps
/// Expr::binop) so neither engine compares operator strings per
/// evaluation. Machine::apply_binop / compound_combine are the one
/// implementation of MiniC arithmetic for both engines.
enum class BinOp {
  Add, Sub, Mul, Div, Mod,
  Shl, Shr, BAnd, BOr, BXor,
  Eq, Ne, Lt, Gt, Le, Ge,
};

/// nullopt for `&&`, `||` and spellings that are not operators.
std::optional<BinOp> binop_from_text(const std::string& op);
const char* binop_text(BinOp op);

enum class ExprKind {
  IntLit,
  FloatLit,
  StringLit,
  CharLit,
  Ident,        // text = name (possibly qualified, "Kokkos::fence")
  Unary,        // op in text: - ! ~ * & ++ -- (prefix); "p++"/"p--" postfix
  Binary,       // op in text: + - * / % << >> < > <= >= == != & | ^ && ||
  Assign,       // op in text: = += -= *= /= %= &= |= ^= <<= >>=
  Ternary,      // a ? b : c
  Call,         // callee in text (function name); args in kids
                // CUDA launches carry launch_grid/launch_block
  Index,        // kids[0][kids[1]]
  Member,       // kids[0].text  (arrow flag distinguishes ->)
  Cast,         // (type) kids[0]
  SizeofType,   // sizeof(type)
  InitList,     // { a, b, c }
  LambdaExpr,   // [=](params){ body }
};

struct Stmt;  // fwd

struct Expr {
  ExprKind kind = ExprKind::IntLit;
  std::string text;          // name / operator / literal spelling
  long long int_value = 0;   // IntLit / CharLit
  double float_value = 0.0;  // FloatLit
  std::vector<std::unique_ptr<Expr>> kids;
  Type type;                 // for Cast/SizeofType; set by sema elsewhere
  bool arrow = false;        // Member: true for '->'
  bool postfix = false;      // Unary ++/--: postfix form
  int line = 0;
  // Set by sema (minic/sema.hpp intern_symbols), never by the parser.
  Sym sym = kNoSym;             // Ident / Call: `text` interned
  std::optional<BinOp> binop;   // Binary, compound Assign: decoded op

  // CUDA kernel launch configuration (Call only): kernel<<<grid, block>>>().
  std::unique_ptr<Expr> launch_grid;
  std::unique_ptr<Expr> launch_block;

  // Lambda payload (LambdaExpr only).
  struct Param {
    Type type;
    std::string name;
    bool by_ref = false;  // `double& sum` in parallel_reduce functors
    Sym sym = kNoSym;     // `name` interned by sema
  };
  std::vector<Param> lambda_params;
  std::unique_ptr<Stmt> lambda_body;
};

using ExprPtr = std::unique_ptr<Expr>;

// ----------------------------------------------------------- statements --

enum class StmtKind {
  Block,
  ExprStmt,   // expr may be null (empty statement)
  Decl,       // one or more variable declarations
  If,
  For,
  While,
  DoWhile,
  Return,
  Break,
  Continue,
  Omp,        // OpenMP directive + (optional) body statement
};

struct VarDecl {
  Type type;
  std::string name;
  ExprPtr init;                       // may be null
  std::vector<ExprPtr> ctor_args;     // dim3 grid(a, b); View v("x", n);
  ExprPtr array_size;                 // T a[N]; null if not an array
  int line = 0;
  Sym sym = kNoSym;                   // `name` interned by sema
};

struct Stmt {
  StmtKind kind = StmtKind::Block;
  int line = 0;

  std::vector<std::unique_ptr<Stmt>> body;  // Block
  ExprPtr expr;        // ExprStmt / Return value / If & loops condition
  std::vector<VarDecl> decls;  // Decl

  // If
  std::unique_ptr<Stmt> then_branch;
  std::unique_ptr<Stmt> else_branch;
  // For
  std::unique_ptr<Stmt> for_init;  // Decl or ExprStmt (may be null)
  ExprPtr for_inc;
  std::unique_ptr<Stmt> loop_body;  // For/While/DoWhile body
  // Omp. The parser stores the raw directive text; semantic analysis parses
  // and validates it only when OpenMP is enabled for the build (without
  // -fopenmp, real compilers ignore the pragma entirely).
  std::string omp_raw;              // text after "#pragma omp"
  std::optional<OmpDirective> omp;  // filled in by sema when OpenMP is on
  std::unique_ptr<Stmt> omp_body;   // may be null (barrier etc.)
};

using StmtPtr = std::unique_ptr<Stmt>;

// ---------------------------------------------------------- declarations --

enum class FnQual {
  None,     // host
  Global,   // __global__ (CUDA kernel)
  Device,   // __device__
  HostDevice,
};

struct ParamDecl {
  Type type;
  std::string name;
  bool by_ref = false;
  Sym sym = kNoSym;  // `name` interned by sema
};

struct FunctionDecl {
  std::string name;
  Type return_type;
  std::vector<ParamDecl> params;
  StmtPtr body;  // null => prototype only
  FnQual qual = FnQual::None;
  bool is_static = false;
  int line = 0;
  std::string file;  // repo path, filled by the driver
};

struct FieldDecl {
  Type type;
  std::string name;
  ExprPtr array_size;  // fixed-size array field, else null
};

struct StructDecl {
  std::string name;
  std::vector<FieldDecl> fields;
  int line = 0;
};

struct GlobalVarDecl {
  VarDecl var;
  bool is_device = false;  // __device__ global
};

/// One parsed translation unit (after include merging by the driver).
struct TranslationUnit {
  std::string path;
  std::vector<StructDecl> structs;
  std::vector<FunctionDecl> functions;
  std::vector<GlobalVarDecl> globals;
  std::vector<std::string> system_headers;  // resolved <...> includes
  std::vector<std::string> called_functions;  // filled by sema, for the linker
  /// Repo files the preprocessor opened for this TU (entry first, then
  /// headers in first-inclusion order) and repo paths it probed but found
  /// absent — together the exact repo input set of the compile, which the
  /// TU compile cache (buildsim/tucache) keys on.
  std::vector<std::string> resolved_files;
  std::vector<std::string> missing_probes;
  DiagBag diags;
};

}  // namespace pareval::minic
