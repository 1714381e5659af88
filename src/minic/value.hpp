#pragma once
// Runtime values and the two-space memory model of the MiniC interpreter.
//
// The defining feature of this substrate is the *separate host and device
// memory spaces*: pointers remember which space their block lives in, and
// dereferencing a pointer from the wrong execution context is a runtime
// fault — exactly the failure a translated app hits on a real GPU when a
// map clause or cudaMemcpy is missing. Reads of never-written cells return
// deterministic garbage and set a flag, which is how an un-copied device
// buffer poisons a checksum instead of crashing.

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "minic/ast.hpp"

namespace pareval::minic {

enum class MemSpace { Host, Device };

/// A typed pointer into a memory block. Offsets are in *elements*.
struct MemRef {
  int block = -1;
  long long offset = 0;
  int elem_size = 8;  // sizeof the pointee as MiniC defines it
  BaseType elem_base = BaseType::Double;  // for store coercion

  bool operator==(const MemRef&) const = default;
};

struct Value;

/// Kokkos::View payload: a device allocation plus extents. Host mirrors
/// produced by create_mirror_view share this struct with a Host block.
struct ViewData {
  std::string label;
  int rank = 1;
  long long extent[3] = {1, 1, 1};
  int block = -1;           // backing block id
  BaseType elem = BaseType::Double;
  std::string elem_struct;  // when elem == Struct

  /// Element count. The extents are program-controlled: a product that
  /// overflows saturates to LLONG_MAX, which no allocation limit admits.
  long long size() const {
    long long n = 0;
    if (__builtin_mul_overflow(extent[0], extent[1], &n) ||
        __builtin_mul_overflow(n, extent[2], &n)) {
      return std::numeric_limits<long long>::max();
    }
    return n;
  }
};

/// Struct values: field name -> value. Copied deeply on assignment
/// (C value semantics).
struct StructData {
  std::string struct_name;
  std::map<std::string, Value> fields;
};

/// Captured-environment closure for [=] lambdas / KOKKOS_LAMBDA.
struct Closure {
  std::vector<Expr::Param> params;
  const Stmt* body = nullptr;  // borrowed from the owning AST
  /// One entry per symbol: the innermost binding visible at creation.
  std::vector<std::pair<Sym, Value>> captured;
};

struct VarSlot;

struct Value {
  enum class Kind {
    Unset,    // uninitialized
    Int,      // all integer types
    Real,     // float/double
    Ptr,      // MemRef
    Str,      // string literal / char* into literal data
    StructV,
    ViewV,
    LambdaV,
    Dim3V,
    Ref,      // transient lvalue reference (&var passed to a builtin)
  };

  Kind kind = Kind::Unset;
  long long i = 0;
  double d = 0.0;
  MemRef ptr;
  std::string s;
  std::shared_ptr<StructData> strct;
  std::shared_ptr<ViewData> view;
  std::shared_ptr<Closure> lambda;
  struct Dim3 {
    long long x = 1, y = 1, z = 1;
  } dim3v;
  VarSlot* ref = nullptr;

  static Value make_int(long long v) {
    Value out;
    out.kind = Kind::Int;
    out.i = v;
    return out;
  }
  static Value make_real(double v) {
    Value out;
    out.kind = Kind::Real;
    out.d = v;
    return out;
  }
  static Value make_ptr(MemRef r) {
    Value out;
    out.kind = Kind::Ptr;
    out.ptr = r;
    return out;
  }
  static Value make_str(std::string v) {
    Value out;
    out.kind = Kind::Str;
    out.s = std::move(v);
    return out;
  }

  /// Become make_int(v) / make_real(v) in place. A value holding no
  /// heap payload (the common numeric case) is overwritten field by field
  /// instead of through a temporary.
  void set_int(long long v) {
    if (!plain()) {
      *this = make_int(v);
      return;
    }
    reset_scalars(Kind::Int);
    i = v;
  }
  void set_real(double v) {
    if (!plain()) {
      *this = make_real(v);
      return;
    }
    reset_scalars(Kind::Real);
    d = v;
  }

  bool is_numeric() const { return kind == Kind::Int || kind == Kind::Real; }
  /// Numeric value as double (Int converts).
  double as_real() const { return kind == Kind::Real ? d : static_cast<double>(i); }
  /// Numeric value as integer (Real truncates).
  long long as_int() const {
    return kind == Kind::Int ? i : static_cast<long long>(d);
  }
  bool truthy() const {
    switch (kind) {
      case Kind::Int: return i != 0;
      case Kind::Real: return d != 0.0;
      case Kind::Ptr: return ptr.block >= 0;
      case Kind::Str: return true;
      case Kind::Unset: return false;
      default: return true;
    }
  }

  /// Deep copy (structs cloned; views/lambdas shared — they are handles).
  Value clone() const;

 private:
  bool plain() const { return s.empty() && !strct && !view && !lambda; }
  void reset_scalars(Kind k) {
    kind = k;
    i = 0;
    d = 0.0;
    ptr = MemRef{};
    dim3v = Dim3{};
    ref = nullptr;
  }
};

/// A declared variable: static type plus current value.
struct VarSlot {
  Type type;
  Value v;
};

/// One allocation. Cells are whole Values so struct arrays, pointer arrays
/// and argv all work uniformly; Unset cells model uninitialized memory.
struct MemBlock {
  MemSpace space = MemSpace::Host;
  int elem_size = 8;
  std::vector<Value> cells;
  bool freed = false;
  std::string origin;  // allocation site label for fault messages
};

}  // namespace pareval::minic
