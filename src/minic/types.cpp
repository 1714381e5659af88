#include "minic/ast.hpp"

namespace pareval::minic {

std::string Type::to_string() const {
  std::string out;
  if (is_const) out += "const ";
  switch (base) {
    case BaseType::Unknown: out += "<unknown>"; break;
    case BaseType::Void: out += "void"; break;
    case BaseType::Bool: out += "bool"; break;
    case BaseType::Char: out += "char"; break;
    case BaseType::Int: out += "int"; break;
    case BaseType::Long: out += "long"; break;
    case BaseType::UInt: out += "unsigned int"; break;
    case BaseType::SizeT: out += "size_t"; break;
    case BaseType::Float: out += "float"; break;
    case BaseType::Double: out += "double"; break;
    case BaseType::Struct: out += "struct " + struct_name; break;
    case BaseType::Dim3: out += "dim3"; break;
    case BaseType::View: {
      out += "Kokkos::View<";
      Type elem;
      elem.base = view_elem;
      elem.ptr_depth = view_rank;
      out += elem.to_string() + ">";
      break;
    }
    case BaseType::Lambda: out += "<lambda>"; break;
    case BaseType::CurandState: out += "curandState"; break;
  }
  for (int i = 0; i < ptr_depth; ++i) out += "*";
  return out;
}

int base_type_size(BaseType b) {
  switch (b) {
    case BaseType::Unknown: return 8;
    case BaseType::Void: return 1;
    case BaseType::Bool: return 1;
    case BaseType::Char: return 1;
    case BaseType::Int: return 4;
    case BaseType::UInt: return 4;
    case BaseType::Long: return 8;
    case BaseType::SizeT: return 8;
    case BaseType::Float: return 4;
    case BaseType::Double: return 8;
    case BaseType::Struct: return 8;   // refined by sema with field count
    case BaseType::Dim3: return 12;
    case BaseType::View: return 16;
    case BaseType::Lambda: return 8;
    case BaseType::CurandState: return 48;
  }
  return 8;
}

int type_size(const Type& t) {
  if (t.ptr_depth > 0) return 8;
  return base_type_size(t.base);
}

std::optional<BinOp> binop_from_text(const std::string& op) {
  if (op == "+") return BinOp::Add;
  if (op == "-") return BinOp::Sub;
  if (op == "*") return BinOp::Mul;
  if (op == "/") return BinOp::Div;
  if (op == "%") return BinOp::Mod;
  if (op == "<<") return BinOp::Shl;
  if (op == ">>") return BinOp::Shr;
  if (op == "&") return BinOp::BAnd;
  if (op == "|") return BinOp::BOr;
  if (op == "^") return BinOp::BXor;
  if (op == "==") return BinOp::Eq;
  if (op == "!=") return BinOp::Ne;
  if (op == "<") return BinOp::Lt;
  if (op == ">") return BinOp::Gt;
  if (op == "<=") return BinOp::Le;
  if (op == ">=") return BinOp::Ge;
  return std::nullopt;
}

const char* binop_text(BinOp op) {
  switch (op) {
    case BinOp::Add: return "+";
    case BinOp::Sub: return "-";
    case BinOp::Mul: return "*";
    case BinOp::Div: return "/";
    case BinOp::Mod: return "%";
    case BinOp::Shl: return "<<";
    case BinOp::Shr: return ">>";
    case BinOp::BAnd: return "&";
    case BinOp::BOr: return "|";
    case BinOp::BXor: return "^";
    case BinOp::Eq: return "==";
    case BinOp::Ne: return "!=";
    case BinOp::Lt: return "<";
    case BinOp::Gt: return ">";
    case BinOp::Le: return "<=";
    case BinOp::Ge: return ">=";
  }
  return "?";
}

}  // namespace pareval::minic
