#include "minic/clone.hpp"

namespace pareval::minic {

ExprPtr clone_expr(const Expr& e) {
  auto out = std::make_unique<Expr>();
  out->kind = e.kind;
  out->text = e.text;
  out->int_value = e.int_value;
  out->float_value = e.float_value;
  out->type = e.type;
  out->arrow = e.arrow;
  out->postfix = e.postfix;
  out->line = e.line;
  out->sym = e.sym;
  out->binop = e.binop;
  for (const auto& k : e.kids) out->kids.push_back(clone_expr(*k));
  if (e.launch_grid) out->launch_grid = clone_expr(*e.launch_grid);
  if (e.launch_block) out->launch_block = clone_expr(*e.launch_block);
  out->lambda_params = e.lambda_params;
  if (e.lambda_body) out->lambda_body = clone_stmt(*e.lambda_body);
  return out;
}

VarDecl clone_var_decl(const VarDecl& v) {
  VarDecl out;
  out.type = v.type;
  out.name = v.name;
  out.line = v.line;
  out.sym = v.sym;
  if (v.init) out.init = clone_expr(*v.init);
  if (v.array_size) out.array_size = clone_expr(*v.array_size);
  for (const auto& a : v.ctor_args) out.ctor_args.push_back(clone_expr(*a));
  return out;
}

StmtPtr clone_stmt(const Stmt& s) {
  auto out = std::make_unique<Stmt>();
  out->kind = s.kind;
  out->line = s.line;
  for (const auto& child : s.body) out->body.push_back(clone_stmt(*child));
  if (s.expr) out->expr = clone_expr(*s.expr);
  for (const auto& d : s.decls) out->decls.push_back(clone_var_decl(d));
  if (s.then_branch) out->then_branch = clone_stmt(*s.then_branch);
  if (s.else_branch) out->else_branch = clone_stmt(*s.else_branch);
  if (s.for_init) out->for_init = clone_stmt(*s.for_init);
  if (s.for_inc) out->for_inc = clone_expr(*s.for_inc);
  if (s.loop_body) out->loop_body = clone_stmt(*s.loop_body);
  out->omp_raw = s.omp_raw;
  out->omp = s.omp;
  if (s.omp_body) out->omp_body = clone_stmt(*s.omp_body);
  return out;
}

}  // namespace pareval::minic
