#pragma once
// Semantic analysis for MiniC. Checks name resolution, C-style type
// compatibility, CUDA launch/qualifier rules and OpenMP directive validity
// against the build's capabilities. All findings use the paper's Figure 3
// error taxonomy (Undeclared Identifier, Function Argument or Type
// Mismatch, OpenMP Invalid Directive, ...).

#include <set>
#include <string>

#include "minic/ast.hpp"
#include "minic/builtins.hpp"
#include "minic/program.hpp"

namespace pareval::minic {

struct SemaOptions {
  Capabilities caps;
  const BuiltinTable* builtins = nullptr;   // required
  std::set<std::string> included_headers;   // headers this TU included
};

/// Analyse (and annotate: OpenMP directives are parsed into Stmt::omp)
/// one translation unit. Diagnostics are appended to tu.diags;
/// tu.called_functions is populated for the linker. Ends with
/// intern_symbols(tu).
void analyze(TranslationUnit& tu, const SemaOptions& options);

/// Stamp every name the runtime looks up with its interned symbol
/// (Expr::sym on identifiers and callees, VarDecl/ParamDecl/lambda
/// parameter syms, OmpClause::var_syms) and every binary or compound
/// assignment operator with its decoded Expr::binop. Deterministic in
/// the tree alone, so the object codec re-runs it on decode instead of
/// persisting the results.
void intern_symbols(TranslationUnit& tu);

}  // namespace pareval::minic
